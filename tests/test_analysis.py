import math
from dataclasses import replace

import numpy as np
import pytest

from branchsim import branch_decompose, builtin_scenario, memory_marginal, run
from branchsim.analysis import (
    PRUNE_THRESHOLD,
    PURITY_ONE,
    BranchTable,
    fidelity,
    no_cloning_witness,
    outcome_probability,
    register_marginal,
    separability_check,
)
from branchsim.errors import LayoutError
from branchsim.gates import GateSpec
from branchsim.machine import (
    InitSpec,
    StateVector,
    build_layout,
    initialize,
    write_memory,
)
from branchsim.scenario import Scenario
from branchsim.verify import random_canonical_scenario

INV_SQRT2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# branch decomposition

def test_branch_decompose_ghz():
    table = branch_decompose(run(builtin_scenario("pauli-flips")))
    assert table.entries == ("000", "111")
    np.testing.assert_allclose(table.weights, [0.5, 0.5], atol=1e-12)
    # substates over (C, S, P): |000> and |111>
    np.testing.assert_allclose(table.substates, np.eye(8)[[0b000, 0b111]], atol=1e-12)
    assert not (table.weights.flags.writeable or table.substates.flags.writeable)


def test_branch_decompose_product_state_single_entry():
    layout = build_layout(2)
    state = initialize(InitSpec(alpha=1, beta=0), layout)
    table = branch_decompose(state)
    assert table.probabilities() == {"00": pytest.approx(1.0, abs=1e-12)}


def test_branch_decompose_reinforcement_weights():
    # p(00) = |a|^2, p(10) = |b|^2 sin^2(t), p(11) = |b|^2 cos^2(t)
    table = branch_decompose(run(builtin_scenario("reinforce-two-step")))
    probs = table.probabilities()
    assert probs["00"] == pytest.approx(0.5, abs=1e-10)
    assert probs["10"] == pytest.approx(0.25, abs=1e-10)
    assert probs["11"] == pytest.approx(0.25, abs=1e-10)


def test_branch_weight_sum_adds_left_to_right():
    # each 1e-16 is below half an ulp of 1.0, so a plain loop drops it and a
    # compensated sum (math.fsum, builtin sum from Python 3.12) keeps it
    weights = np.array([1.0] + [1e-16] * 10)
    table = BranchTable(4, np.arange(11), weights, np.zeros((11, 8), np.complex128))
    loop = 0.0
    for w in weights.tolist():
        loop += w
    assert loop == 1.0 != math.fsum(weights)
    assert table.weight_sum() == loop


def test_branch_decompose_requires_memory():
    state = run(Scenario(name="bare", init=InitSpec(alpha=1, beta=0), iterations=()))
    with pytest.raises(LayoutError):
        branch_decompose(state)


def test_branch_probabilities_match_joint_memory_marginal():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        state = run(random_canonical_scenario(rng, n))
        table = branch_decompose(state)
        joint = register_marginal(state, {f"M{k}" for k in range(1, n + 1)})
        diag = np.real(np.diag(joint))
        for label, p in table.probabilities().items():
            assert p == pytest.approx(diag[int(label, 2)], abs=1e-10)
        assert sum(table.probabilities().values()) == pytest.approx(1.0, abs=1e-10)


def test_branch_reconstruction_reproduces_global_state():
    rng = np.random.default_rng(22)
    state = run(random_canonical_scenario(rng, 3))
    table = branch_decompose(state)
    layout = state.layout
    rebuilt = np.zeros_like(state.amplitudes).reshape([2] * layout.total_qubits)
    for i, label in enumerate(table.entries):
        index = [slice(None)] * layout.total_qubits
        for axis, ch in enumerate(label, start=1):
            index[axis] = int(ch)
        rebuilt[tuple(index)] = (
            math.sqrt(table.weights[i]) * table.substates[i].reshape(2, 2, 2)
        )
    np.testing.assert_allclose(
        rebuilt.reshape(-1), state.amplitudes, atol=1e-10
    )


def test_branch_entries_below_prune_threshold_are_dropped():
    theta = 1e-8  # sin^2 ~ 1e-16 < prune threshold
    base = builtin_scenario("reinforce-two-step")
    steered = replace(base.iterations[0], r1=GateSpec("real_rotation", angle=theta))
    table = branch_decompose(run(replace(base, iterations=(steered, base.iterations[1]))))
    assert set(table.entries) == {"00", "11"}
    assert PRUNE_THRESHOLD == 1e-12


# ---------------------------------------------------------------------------
# marginals

def test_memory_marginal_ghz_is_balanced_and_diagonal():
    state = run(builtin_scenario("pauli-flips"))
    for k in (1, 2, 3):
        rho = memory_marginal(state, k)
        assert rho.shape == (2, 2)
        assert abs(rho[0, 1]) <= 1e-12
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-10)
        assert rho[1, 1].real == pytest.approx(0.5, abs=1e-10)


def test_memory_marginal_deterministic_control():
    layout = build_layout(1)
    state = write_memory(initialize(InitSpec(alpha=1, beta=0), layout), 1)
    np.testing.assert_allclose(memory_marginal(state, 1), np.diag([1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("name", ["rotations-nofeedback", "rotations-feedback"])
def test_memory_marginal_rotation_examples(name):
    state = run(builtin_scenario(name))
    for k in (1, 2, 3):
        np.testing.assert_allclose(memory_marginal(state, k), np.diag([0.5, 0.5]), atol=1e-12)


def test_memory_marginal_out_of_range():
    state = run(builtin_scenario("pauli-flips"))
    with pytest.raises(LayoutError):
        memory_marginal(state, 4)
    with pytest.raises(LayoutError):
        memory_marginal(state, 0)


def test_register_marginal_branch_mixture_on_system():
    state = run(builtin_scenario("rotations-feedback"))
    c, s = math.cos(5 * math.pi / 8), math.sin(5 * math.pi / 8)
    s0 = np.array([c, -1j * s])
    s1 = np.array([c, +1j * s])
    expected = 0.5 * np.outer(s0, s0.conj()) + 0.5 * np.outer(s1, s1.conj())
    np.testing.assert_allclose(register_marginal(state, {"S"}), expected, atol=1e-10)


def test_register_marginal_all_registers_is_global_projector():
    state = run(builtin_scenario("pauli-flips"))
    rho = register_marginal(state, set(state.layout.register_names()))
    expected = np.outer(state.amplitudes, state.amplitudes.conj())
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_register_marginal_nofeedback_system_is_pure_one():
    state = run(builtin_scenario("rotations-nofeedback"))
    rho = register_marginal(state, {"S"})
    np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-10)


# ---------------------------------------------------------------------------
# outcome probabilities

def test_outcome_probability_feedback_example():
    state = run(builtin_scenario("rotations-feedback"))
    assert outcome_probability(state, "S", 1) == pytest.approx(
        math.sin(5 * math.pi / 8) ** 2, abs=1e-10
    )


def test_outcome_probability_nofeedback_example():
    state = run(builtin_scenario("rotations-nofeedback"))
    assert outcome_probability(state, "S", 1) == pytest.approx(1.0, abs=1e-10)


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    state = run(random_canonical_scenario(rng, 2))
    for reg in state.layout.register_names():
        total = outcome_probability(state, reg, 0) + outcome_probability(state, reg, 1)
        assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# no-cloning witness and separability

def test_witness_detects_entangled_record():
    layout = build_layout(1)
    state = write_memory(
        initialize(InitSpec(alpha=INV_SQRT2, beta=INV_SQRT2), layout), 1
    )
    entangled, fid = no_cloning_witness(state, "C", "M1")
    assert entangled
    # pure Bell pair vs product of its maximally mixed marginals:
    # F(|Phi><Phi|, I/4) = 1/4
    assert fid == pytest.approx(0.25, abs=1e-9)


def test_witness_mixed_pair_inside_ghz():
    state = run(builtin_scenario("pauli-flips"))
    entangled, fid = no_cloning_witness(state, "C", "M1")
    assert entangled
    # classically correlated diag(1/2,0,0,1/2) vs I/4: F = 1/2
    assert fid == pytest.approx(0.5, abs=1e-9)


def test_witness_product_on_basis_control():
    layout = build_layout(1)
    state = write_memory(initialize(InitSpec(alpha=1, beta=0), layout), 1)
    entangled, fid = no_cloning_witness(state, "C", "M1")
    assert not entangled
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_witness_system_policy_factorizes_without_feedback():
    state = run(builtin_scenario("rotations-nofeedback"))
    entangled, fid = no_cloning_witness(state, "S", "P")
    assert not entangled
    assert fid == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p, expected", [
    (0.0, False), (2e-10, False), (4e-10, True), (1e-6, True), (0.5, True),
])
def test_witness_pure_pair_follows_the_product_fidelity_rule(p, expected):
    # sqrt(1-p)|00> + sqrt(p)|11> on (S, P), C in |0>: F with the product of
    # its marginals diag(1-p, p) is (1-p)^3 + p^3, so p = 4e-10 reads
    # 1 - 1.2e-9, below PURITY_ONE, while its smaller Schmidt weight is tiny
    residual = np.zeros((1, 2, 2, 2), dtype=complex)
    residual[0, 0, 0, 0] = math.sqrt(1.0 - p)
    residual[0, 0, 1, 1] = math.sqrt(p)
    state = StateVector(build_layout(0), rows=[0], residual=residual)
    entangled, fid = no_cloning_witness(state, "S", "P")
    assert fid == pytest.approx((1.0 - p) ** 3 + p**3, abs=1e-14)
    assert entangled == (fid < PURITY_ONE) == expected


def test_witness_same_register_rejected():
    state = run(builtin_scenario("pauli-flips"))
    with pytest.raises(LayoutError):
        no_cloning_witness(state, "S", "S")


def test_witness_entangled_after_any_balanced_canonical_run():
    rng = np.random.default_rng(24)
    for _ in range(5):
        state = run(random_canonical_scenario(rng, int(rng.integers(1, 4))))
        entangled, _ = no_cloning_witness(state, "C", "M1")
        assert entangled


def test_memory_marginal_blind_to_control_phase():
    rng = np.random.default_rng(25)
    scenario = random_canonical_scenario(rng, 2)
    t = rng.uniform(0, 2 * math.pi)
    shifted = replace(
        scenario,
        init=replace(scenario.init,
                     beta=scenario.init.beta * complex(math.cos(t), math.sin(t))),
    )
    for k in (1, 2):
        m1 = memory_marginal(run(scenario), k)
        m2 = memory_marginal(run(shifted), k)
        np.testing.assert_allclose(m1, m2, atol=1e-12)


def test_separability_nofeedback_vs_feedback():
    state_a = run(builtin_scenario("rotations-nofeedback"))
    separable, pur = separability_check(state_a, "S")
    assert separable and pur == pytest.approx(1.0, abs=1e-9)

    state_b = run(builtin_scenario("rotations-feedback"))
    separable, pur = separability_check(state_b, "S")
    assert not separable
    assert pur == pytest.approx(0.75, abs=1e-9)


def test_separability_of_uncorrelated_policy():
    layout = build_layout(1)
    state = initialize(
        InitSpec(alpha=0.6, beta=0.8, gamma=INV_SQRT2, delta=INV_SQRT2), layout
    )
    separable, pur = separability_check(state, "P")
    assert separable and pur == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# fidelity helper

def test_fidelity_qubit_pairs_against_sqrtm():
    rng = np.random.default_rng(26)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        sig = b @ b.conj().T
        sig /= np.trace(sig)
        w, v = np.linalg.eigh(rho)
        root = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        expected = np.sum(np.sqrt(np.clip(
            np.linalg.eigvalsh(root @ sig @ root), 0, None))) ** 2
        assert fidelity(rho, sig) == pytest.approx(float(expected), abs=1e-10)


def test_fidelity_pure_case_is_overlap():
    psi = np.array([0.6, 0.8j])
    rho = np.outer(psi, psi.conj())
    rho4 = np.kron(rho, np.diag([0.5, 0.5]))
    pure4 = np.kron(rho, np.diag([1.0, 0.0]))
    expected = float(np.real(np.trace(rho4 @ pure4)))
    assert fidelity(rho4, pure4) == pytest.approx(expected, abs=1e-12)


def test_fidelity_identical_states_is_one():
    rho = np.diag([0.25, 0.25, 0.25, 0.25])
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_is_stable_under_rounding_noise_on_rank_deficient_pairs():
    # diag(p, 0, 0, 1-p) is a classically correlated pair; its zero
    # eigenvalues come out of any computation as +-1e-17 noise, which must
    # not move the fidelity with the product of its marginals.
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = rng.uniform(0.05, 0.95)
        rho = np.diag([p, 0.0, 0.0, 1.0 - p]).astype(complex)
        product = np.kron(np.diag([p, 1.0 - p]), np.diag([p, 1.0 - p]))
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noisy = rho + 0.5e-17 * (h + h.conj().T)
        assert abs(fidelity(noisy, product) - fidelity(rho, product)) < 1e-12
