import math
import tracemalloc

import numpy as np
import pytest

from branchsim.errors import CapacityError, LayoutError, ShapeError, ValidationError
from branchsim.gates import GateSpec
from branchsim.linalg import (
    HERMITICITY_TOL,
    NORM_TOL,
    UNITARITY_TOL,
    as_matrix,
    purity,
    unitarity_deviation,
    validate_density_matrix,
)
from branchsim.machine import (
    InitSpec,
    StateVector,
    build_layout,
    initialize,
    partial_trace,
)
from branchsim.verify import random_unitaries


def test_as_matrix_rejects_a_non_square_matrix():
    with pytest.raises(ShapeError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        as_matrix(np.zeros((2, 3)))


def test_unitarity_deviation_identity():
    assert unitarity_deviation(np.eye(2)) <= UNITARITY_TOL


def test_unitarity_deviation_rotation():
    assert unitarity_deviation(GateSpec("rx", angle=0.37).matrix()) <= UNITARITY_TOL


def test_unitarity_deviation_rejects_all_half_matrix():
    assert unitarity_deviation(np.full((4, 4), 0.5)) > UNITARITY_TOL


@pytest.mark.parametrize("m", [
    [[1e200, 0], [0, 1e-200]],  # the product overflows to inf
    [[1e200, 1e200], [1e200, -1e200]],  # inf - inf: nan, which no bound rejects
])
def test_unitarity_deviation_is_inf_when_the_product_overflows(m):
    assert unitarity_deviation(m) == math.inf


def _bell_state():
    # (|00> + |11>)/sqrt(2) on (C, M1) of a one-slot layout, S and P in |0>
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = amps[0b1100] = 1 / math.sqrt(2)
    return StateVector(build_layout(1), amps)


def test_partial_trace_bell_second_qubit_is_maximally_mixed():
    rho = partial_trace(_bell_state(), {"M1"})
    np.testing.assert_allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_product_state_keeps_pure_factor():
    layout = build_layout(1)
    phi = np.array([math.cos(0.3), math.sin(0.3) * 1j])
    state = initialize(InitSpec(alpha=phi[0], beta=phi[1]), layout)
    rho = partial_trace(state, {"C"})
    np.testing.assert_allclose(rho, np.outer(phi, phi.conj()), atol=1e-12)
    assert purity(rho) == pytest.approx(1.0, abs=1e-9)


def test_partial_trace_branch_mixture_on_system():
    # (|0>_C |0>_M1 |s0>_S + |1>_C |1>_M1 |s1>_S)/sqrt(2) with P in |0>
    layout = build_layout(1)
    s0 = np.array([math.cos(0.4), -1j * math.sin(0.4)])
    s1 = np.array([math.cos(0.4), +1j * math.sin(0.4)])
    amps = np.zeros(16, dtype=complex)
    amps[0b0000], amps[0b0010] = s0 / math.sqrt(2)
    amps[0b1100], amps[0b1110] = s1 / math.sqrt(2)
    rho = partial_trace(StateVector(layout, amps), {"S"})
    expected = 0.5 * np.outer(s0, s0.conj()) + 0.5 * np.outer(s1, s1.conj())
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_partial_trace_unknown_register():
    state = _bell_state()
    with pytest.raises(LayoutError):
        partial_trace(state, {"M7"})
    with pytest.raises(LayoutError):
        partial_trace(state, set())


def test_partial_trace_is_normalized_and_hermitian():
    rng = np.random.default_rng(7)
    layout = build_layout(2)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    for keep in ({"C"}, {"S", "P"}, {"M1", "M2"}):
        rho = partial_trace(StateVector(layout, amps), keep)
        assert abs(np.trace(rho) - 1) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


def test_partial_trace_pure_state_equals_tensordot_exactly():
    # zeroed memory strings have no row, so some traced labels are absent;
    # zeroing three of the four leaves a single-row state
    layout = build_layout(2)
    names = layout.register_names()
    for zero_rows in ((), (0b01, 0b11), (0b00, 0b01, 0b11)):
        rng = np.random.default_rng(12)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps.reshape(2, 4, 4)[:, list(zero_rows)] = 0  # (C, memory string, S and P)
        amps /= np.linalg.norm(amps)
        psi = amps.reshape([2] * 5)
        state = StateVector(layout, amps)
        assert state.rows.size == 4 - len(zero_rows)
        for mask in range(1, 1 << 5):
            keep = {names[ax] for ax in range(5) if mask >> ax & 1}
            kept = sorted(layout.position(r) for r in keep)
            traced = [ax for ax in range(5) if ax not in kept]
            d = 1 << len(kept)
            expected = np.tensordot(psi, psi.conj(), axes=(traced, traced))
            assert np.array_equal(
                partial_trace(state, keep), expected.reshape(d, d)
            ), (zero_rows, keep)


def test_partial_trace_of_two_sparse_rows_allocates_little():
    # canonical-deep's final shape: 17 memories, rows 0^17 and 1^17
    layout = build_layout(17)
    residual = np.zeros((2, 2, 2, 2), dtype=complex)
    residual[0, 0, 0, 0] = residual[1, 1, 1, 1] = 1 / math.sqrt(2)
    state = StateVector(layout, rows=[0, (1 << 17) - 1], residual=residual)
    keeps = [{r} for r in layout.register_names()] + [{"C", "M1"}, {"M1", "M17"}]
    for keep in keeps:
        tracemalloc.start()
        try:
            rho = partial_trace(state, keep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, f"{sorted(keep)}: peak {peak} bytes"
        assert np.trace(rho).real == pytest.approx(1.0)


def test_partial_trace_refuses_oversized_marginal_before_allocating():
    layout = build_layout(12)  # 15 qubits: all registers give a 4**15 matrix
    names = set(layout.register_names())
    amps = np.zeros(1 << 15, dtype=complex)
    amps[0] = 1.0
    state = StateVector(layout, amps)
    with pytest.raises(CapacityError):
        partial_trace(state, names)
    rho = partial_trace(state, {f"M{k}" for k in range(1, 11)})
    assert rho.shape == (1024, 1024)  # 4**10 entries: exactly at the cap


@pytest.mark.parametrize(
    "rho,expected",
    [
        (np.diag([0.5, 0.5]), 0.5),
        (np.diag([0.0, 1.0]), 1.0),
    ],
)
def test_purity_closed_cases(rho, expected):
    assert purity(rho) == pytest.approx(expected, abs=1e-12)


def test_purity_of_branch_mixture():
    # 0.5|s0><s0| + 0.5|s1><s1| with |<s0|s1>|^2 = cos^2(5pi/4) = 1/2
    c, s = math.cos(5 * math.pi / 8), math.sin(5 * math.pi / 8)
    s0 = np.array([c, -1j * s])
    s1 = np.array([c, +1j * s])
    rho = 0.5 * np.outer(s0, s0.conj()) + 0.5 * np.outer(s1, s1.conj())
    assert purity(rho) == pytest.approx(0.75, abs=1e-12)


def _rotated_spectrum(eps: float) -> np.ndarray:
    """U diag(0.6, 0.3, 0.1 + eps, -eps) U^dagger: unit trace, one eigenvalue -eps."""
    u = random_unitaries(np.random.default_rng(31), 1, 4)[0]
    rho = (u * [0.6, 0.3, 0.1 + eps, -eps]) @ u.conj().T
    return (rho + rho.conj().T) / 2


def test_validate_density_matrix_accepts_uniform_projector():
    # no diagonal entry dominates its row: the floor needs the exact spectrum
    plus = np.full(4, 0.5)
    validate_density_matrix(np.outer(plus, plus))
    validate_density_matrix(_rotated_spectrum(1e-10))  # above the -1e-9 floor


def test_validate_density_matrix_rejections():
    with pytest.raises(ValidationError):
        validate_density_matrix(np.array([[0.5, 0.3j], [0.2j, 0.5]]))
    with pytest.raises(ValidationError):
        validate_density_matrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValidationError):
        validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValidationError, match="eigenvalue below the floor"):
        validate_density_matrix(_rotated_spectrum(1e-6))


def test_tolerances_defaults():
    assert (UNITARITY_TOL, NORM_TOL, HERMITICITY_TOL) == (1e-9, 1e-10, 1e-10)


def test_gate_library_products_stay_unitary():
    kinds = ("pauli_x", "pauli_y", "pauli_z", "hadamard")
    mats = [GateSpec(kind).matrix() for kind in kinds]
    mats += [GateSpec("rx", angle=0.3).matrix()]
    prod = np.eye(2)
    for m in mats:
        prod = prod @ m
        assert unitarity_deviation(prod) <= UNITARITY_TOL
