import json
import math
import warnings

import numpy as np
import pytest

from branchsim import verify
from branchsim.errors import ValidationError
from branchsim.gates import (
    IDENTITY,
    PAULI_X,
    GateSpec,
    radians,
    unitarity_deviation_2x2,
)
from branchsim.linalg import UNITARITY_TOL, unitarity_deviation
from branchsim.machine import SLOTS, IterationSpec
from branchsim.scenario import Scenario, parse_scenario
from oracles import raw_gate
from test_cli import _OVERFLOWING_RAW, _TINY_RAW


def test_rx_convention_matches_half_angle_form():
    # rx(a) = cos(a/2) I - i sin(a/2) X
    a = 0.83
    expected = math.cos(a / 2) * np.eye(2) - 1j * math.sin(a / 2) * PAULI_X.matrix()
    np.testing.assert_allclose(GateSpec("rx", angle=a).matrix(), expected, atol=1e-15)


def test_rx_pi_sends_zero_to_minus_i_one():
    out = GateSpec("rx", angle=math.pi).matrix() @ np.array([1, 0])
    np.testing.assert_allclose(out, [0, -1j], atol=1e-15)
    out = GateSpec("rx", angle=-math.pi).matrix() @ np.array([1, 0])
    np.testing.assert_allclose(out, [0, +1j], atol=1e-15)


def test_real_rotation_uses_full_angle():
    theta = 0.61
    m = GateSpec("real_rotation", angle=theta).matrix()
    expected = [[math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)]]
    np.testing.assert_allclose(m, expected, atol=1e-15)
    # on |1> the column reads (-sin, cos)
    np.testing.assert_allclose(m @ [0, 1], [-math.sin(theta), math.cos(theta)])


@pytest.mark.parametrize(
    "gate",
    [IDENTITY, PAULI_X, GateSpec("pauli_y"), GateSpec("pauli_z"), GateSpec("hadamard"),
     GateSpec("rx", angle=0.37), GateSpec("ry", angle=1.1), GateSpec("rz", angle=-2.0),
     GateSpec("real_rotation", angle=0.25)],
)
def test_all_library_gates_are_unitary(gate: GateSpec):
    assert unitarity_deviation(gate.matrix()) <= UNITARITY_TOL


def test_raw_gate_round_trip():
    m = GateSpec("rz", angle=0.4).matrix()
    np.testing.assert_allclose(raw_gate(m).matrix(), m, atol=1e-15)


def test_raw_gate_rejects_non_unitary():
    with pytest.raises(ValidationError, match="not unitary"):
        raw_gate([[1, 0], [0, 2]])


def test_gate_spec_field_validation():
    with pytest.raises(ValidationError):
        GateSpec("rx")
    with pytest.raises(ValidationError):
        GateSpec("rx", angle=math.inf)
    with pytest.raises(ValidationError):
        GateSpec("bogus")
    with pytest.raises(ValidationError):
        GateSpec("raw")


_SWAP = ((0, 1), (1, 0))


@pytest.mark.parametrize("fields, message", [
    (dict(kind="pauli_x", angle=0.3), "'pauli_x' takes no angle"),
    (dict(kind="identity", raw=_SWAP), "'identity' takes no raw matrix"),
    (dict(kind="rx", angle=1.0, raw=_SWAP), "'rx' takes no raw matrix"),
    (dict(kind="raw", raw=_SWAP, angle=3.0), "'raw' takes no angle"),
], ids=["fixed-angle", "fixed-raw", "rotation-raw", "raw-angle"])
def test_gate_spec_rejects_a_field_its_kind_does_not_use(fields, message):
    with pytest.raises(ValidationError, match=message):
        GateSpec(**fields)


@pytest.mark.parametrize("fields", [
    dict(kind="raw", raw=((1, 0), (0,))),
    dict(kind="raw", raw="ab"),
    dict(kind="raw", raw=((None, 0), (0, 1))),
    dict(kind="raw", raw=(("1", "0"), ("0", "1"))),
    dict(kind="raw", raw=((10**200, 0), (0, 1))),
    dict(kind="rx", angle=[1]),
    dict(kind="rx", angle=10**400),
], ids=["ragged", "string", "none-entry", "string-entries", "huge-int-entry", "list-angle",
        "huge-int-angle"])
def test_gate_spec_of_a_wrong_type_raises_validation_error(fields):
    message = ("gate angle must be a float or an angle expression" if "angle" in fields
               else "raw gate must be a 2x2 matrix of complex numbers")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        GateSpec(**fields)


def test_gate_spec_keeps_one_angle_as_written():
    exact = GateSpec("rx", angle="pi/2")
    assert exact.angle == "pi/2"
    np.testing.assert_array_equal(exact.matrix(),
                                  GateSpec("rx", angle=radians("pi/2")).matrix())
    assert exact != GateSpec("rx", angle=math.pi / 2)  # same matrix, other spelling
    with pytest.raises(TypeError):
        GateSpec("rx", angle=1.0, angle_expr="pi/2")
    with pytest.raises(ValidationError, match="bad angle expression"):
        GateSpec("rx", angle="tau")
    with pytest.raises(ValidationError, match="must be finite"):
        GateSpec("rx", angle="9" * 400 + "*pi")


def _entries(m):
    (a, b), (c, d) = np.asarray(m, dtype=np.complex128).tolist()
    return a, b, c, d


def test_closed_form_deviation_agrees_with_numpy_on_either_side_of_the_tolerance():
    rng = np.random.default_rng(2024)
    haar = verify.random_unitaries(rng, 2000)
    # scaled by 1 +- eps, a unitary deviates by about 2 eps: 9.8e-10 to 1.02e-9
    sign = rng.choice([-1.0, 1.0], size=(2000, 1, 1))
    eps = sign * rng.uniform(4.9e-10, 5.1e-10, size=(2000, 1, 1))
    noise = 1e-12 * (rng.normal(size=haar.shape) + 1j * rng.normal(size=haar.shape))
    matrices = [*haar, *((1 + eps) * haar + noise)]
    verdicts = set()
    for m in matrices:
        closed, numpy_dev = unitarity_deviation_2x2(*_entries(m)), unitarity_deviation(m)
        assert abs(closed - numpy_dev) <= 1e-15
        assert (closed <= UNITARITY_TOL) == (numpy_dev <= UNITARITY_TOL)
        verdicts.add(closed <= UNITARITY_TOL)
    assert verdicts == {True, False}
    # the same matrices as documents, six raw gates a round: the one-pass
    # check of a document's gates fails exactly where the closed form does,
    # at the first such gate, with its value
    init = {"alpha": 1, "beta": 0, "gamma": 1, "delta": 0, "mode": "uncorrelated"}
    outcomes = set()
    for start in range(0, len(matrices), 6):
        gates = dict(zip(SLOTS, matrices[start:start + 6]))
        doc = {"name": "boundary", "init": init, "iterations": [
            {slot: {"raw": [[[z.real, z.imag] for z in row] for row in m.tolist()]}
             for slot, m in gates.items()}]}
        failing = [(slot, dev) for slot, m in gates.items()
                   if (dev := unitarity_deviation_2x2(*_entries(m))) > UNITARITY_TOL]
        outcomes.add(len(failing) > 0)
        if not failing:
            parse_scenario(json.dumps(doc))
            continue
        slot, dev = failing[0]
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert str(err.value) == (
            f"iterations[0].{slot}: raw gate is not unitary (deviation {dev:.3e})")
    assert outcomes == {True, False}


@pytest.mark.parametrize("raw", _OVERFLOWING_RAW)
def test_closed_form_deviation_is_inf_where_a_product_overflows(raw):
    entries = [complex(*z) for row in raw for z in row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert unitarity_deviation_2x2(*entries) == math.inf
        with pytest.raises(ValidationError, match=r"not unitary \(deviation inf\)"):
            GateSpec("raw", raw=(tuple(entries[:2]), tuple(entries[2:])))


def test_closed_form_accepts_a_gate_unitary_to_rounding():
    gate = GateSpec("raw", raw=tuple(tuple(complex(*z) for z in row) for row in _TINY_RAW))
    assert unitarity_deviation_2x2(*_entries(gate.matrix())) == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_closed_form_rejects_non_finite_entries(value):
    with pytest.raises(ValidationError, match="^matrix contains non-finite entries$"):
        GateSpec("raw", raw=((1, 0), (complex(0, value), 1)))


def _single_haar_draw(rng):
    """The per-gate Haar draw, kept as the reference for the batched one."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("k", [1, 6, 102])
def test_batched_haar_draw_equals_successive_single_draws(k):
    batched, single = np.random.default_rng(k), np.random.default_rng(k)
    draws = verify.random_unitaries(batched, k)
    for u in draws:
        assert np.array_equal(u, _single_haar_draw(single))
    assert batched.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("extended", [False, True], ids=["canonical", "extended"])
def test_random_scenarios_equal_a_per_gate_draw(extended):
    def gate(rng):
        return raw_gate(_single_haar_draw(rng))

    n = 4
    drawn = (verify.random_extended_scenario if extended
             else verify.random_canonical_scenario)(np.random.default_rng(7), n)
    rng = np.random.default_rng(7)
    iterations = [IterationSpec(*(gate(rng) for _ in range(6))) for _ in range(n)]
    init = verify.random_init(rng)  # its system_init is one gate drawn alone
    if extended:
        iterations = [it.replace(r0=gate(rng), r1=gate(rng)) for it in iterations]
    assert drawn == Scenario(name="random-canonical", init=init, iterations=iterations)
