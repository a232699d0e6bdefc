import cmath
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from branchsim import verify
from branchsim.errors import ValidationError
from branchsim.gates import IDENTITY, PAULI_X, GateSpec, check_unitary, radians
from branchsim.linalg import UNITARITY_TOL, unitarity_deviations
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
    assert unitarity_deviations(gate.matrix()[None])[0] <= UNITARITY_TOL


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
    dict(kind="raw", raw=((2**64, 0), (0, 1))),
    dict(kind="raw", raw=((Decimal(1), 0), (0, 1))),
    dict(kind="raw", raw=((Fraction(1), 0), (0, 1))),
    dict(kind="rx", angle=[1]),
    dict(kind="rx", angle=10**400),
], ids=["ragged", "string", "none-entry", "string-entries", "huge-int-entry", "int-beyond-64-bits",
        "decimal-entry", "fraction-entry", "list-angle", "huge-int-angle"])
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


def _closed_form_deviation(m) -> float:
    """max |m†m - I| of a 2x2 ``m``, in closed form on its eight floats: the
    reference for ``unitarity_deviations``.  Each column's squared norm is
    inf where a product overflows, and it comes before the overlap's
    possible nan, so the result is inf, never nan; a non-finite entry reads
    inf too."""
    (a, b), (c, d) = np.asarray(m, dtype=np.complex128).tolist()
    if not all(map(cmath.isfinite, (a, b, c, d))):
        return math.inf
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    cr, ci, dr, di = c.real, c.imag, d.real, d.imag
    return max(abs(ar * ar + ai * ai + cr * cr + ci * ci - 1.0),
               abs(br * br + bi * bi + dr * dr + di * di - 1.0),
               math.hypot(ar * br + ai * bi + cr * dr + ci * di,
                          ar * bi - ai * br + cr * di - ci * dr))


def _rows(m) -> tuple:
    return tuple(map(tuple, np.asarray(m, dtype=np.complex128).tolist()))


def _raw(m) -> dict:
    return {"raw": [[[z.real, z.imag] for z in row] for row in _rows(m)]}


def _document(gates: dict, system_init=None) -> str:
    """A one-round document of raw gates, u0 and u1 the identity unless given."""
    init = {"alpha": 1, "beta": 0, "gamma": 1, "delta": 0, "mode": "uncorrelated"}
    if system_init is not None:
        init["system_init"] = _raw(system_init)
    gates = {"u0": IDENTITY.matrix(), "u1": IDENTITY.matrix(), **gates}
    return json.dumps({"name": "boundary", "init": init,
                       "iterations": [{slot: _raw(m) for slot, m in gates.items()}]})


def test_closed_form_deviation_agrees_with_numpy_on_either_side_of_the_tolerance():
    rng = np.random.default_rng(2024)
    haar = verify.random_unitaries(rng, 2000)
    # scaled by 1 +- eps, a unitary deviates by about 2 eps: 9.8e-10 to 1.02e-9
    sign = rng.choice([-1.0, 1.0], size=(2000, 1, 1))
    eps = sign * rng.uniform(4.9e-10, 5.1e-10, size=(2000, 1, 1))
    noise = 1e-12 * (rng.normal(size=haar.shape) + 1j * rng.normal(size=haar.shape))
    matrices = np.concatenate([haar, (1 + eps) * haar + noise])
    devs = unitarity_deviations(matrices)
    for m, dev in zip(matrices, devs):
        closed = _closed_form_deviation(m)
        assert abs(closed - dev) <= 1e-15
        assert (closed <= UNITARITY_TOL) == (dev <= UNITARITY_TOL)
    assert set(devs <= UNITARITY_TOL) == {True, False}
    # the same matrices as documents, six raw gates a round: the check of a
    # document's gates fails at the first gate past the tolerance, and its
    # message prints that gate's deviation
    outcomes = set()
    for start in range(0, len(matrices), 6):
        gates = dict(zip(SLOTS, matrices[start:start + 6]))
        failing = [(slot, dev) for slot, dev in zip(gates, devs[start:start + 6])
                   if dev > UNITARITY_TOL]
        outcomes.add(len(failing) > 0)
        if not failing:
            parse_scenario(_document(gates))
            continue
        slot, dev = failing[0]
        with pytest.raises(ValidationError) as err:
            parse_scenario(_document(gates))
        assert str(err.value) == (
            f"iterations[0].{slot}: raw gate is not unitary (deviation {dev:.3e})")
    assert outcomes == {True, False}


@pytest.mark.parametrize("raw", _OVERFLOWING_RAW)
def test_closed_form_deviation_is_inf_where_a_product_overflows(raw):
    m = np.array([[complex(*z) for z in row] for row in raw])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _closed_form_deviation(m) == unitarity_deviations(m[None])[0] == math.inf
        with pytest.raises(ValidationError, match=r"not unitary \(deviation inf\)"):
            GateSpec("raw", raw=_rows(m))


def test_closed_form_accepts_a_gate_unitary_to_rounding():
    gate = GateSpec("raw", raw=tuple(tuple(complex(*z) for z in row) for row in _TINY_RAW))
    m = gate.matrix()
    assert _closed_form_deviation(m) == unitarity_deviations(m[None])[0] == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_closed_form_rejects_non_finite_entries(value):
    raw = ((1, 0), (complex(0, value), 1))
    assert _closed_form_deviation(raw) == unitarity_deviations(np.array([raw]))[0] == math.inf
    with pytest.raises(ValidationError, match="^matrix contains non-finite entries$"):
        GateSpec("raw", raw=raw)


_PAST = "raw gate is not unitary (deviation 1.020e-09)"
_NON_FINITE = "matrix contains non-finite entries"
_ONE_RULE = {  # a gate, and the message that every entry point gives it
    "unitary": ([[0.6, 0.8j], [0.8j, 0.6]], None),
    "past-tolerance": ([[1, 0], [0, 1 + 5.1e-10]], _PAST),
    "overflowing": ([[1e200, 0], [0, 1e-200]], "raw gate is not unitary (deviation inf)"),
    "non-finite": ([[1, 0], [complex(0, math.inf), 1]], _NON_FINITE),
    "partly-nan": ([[1, 0], [0, math.nan]], _NON_FINITE),  # max would read nan
}


def _message(build, prefix="") -> str | None:
    try:
        build()
    except ValidationError as exc:
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix):]
    return None


@pytest.mark.parametrize("name", _ONE_RULE)
def test_one_unitarity_rule_at_every_entry_point(name):
    m, message = _ONE_RULE[name]
    m = np.array(m, dtype=np.complex128)
    haar = verify.random_unitaries(np.random.default_rng(5), 5)
    round_gates = dict(zip(SLOTS, [*haar[:3], m, *haar[3:]]))  # m in f1, after three
    messages = {
        "GateSpec": _message(lambda: GateSpec("raw", raw=_rows(m))),
        "check_unitary": _message(lambda: check_unitary(m[None])),
        "round gate": _message(lambda: parse_scenario(_document(round_gates)),
                               "iterations[0].f1: "),
        "system_init": _message(lambda: parse_scenario(_document({}, system_init=m)),
                                "init.system_init: "),
    }
    assert messages == dict.fromkeys(messages, message)


def test_a_mixed_stack_names_its_first_failing_gate_in_its_own_words():
    haar = verify.random_unitaries(np.random.default_rng(6), 2)
    bad = [np.array(m, dtype=np.complex128) for m, message in _ONE_RULE.values() if message]
    words = [message for _, message in _ONE_RULE.values() if message]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        devs = unitarity_deviations(np.array([haar[0], *bad, haar[1]]))
    assert devs[0] <= UNITARITY_TOL and devs[-1] <= UNITARITY_TOL
    assert not np.isnan(devs).any() and np.isinf(devs[2:-1]).all()
    for first in range(len(bad)):  # each failure first in turn, after a unitary
        stack = np.array([haar[0], *bad[first:], *bad[:first], haar[1]])
        with pytest.raises(ValidationError) as err:
            check_unitary(stack, lambda i: f"gate {i}")
        assert str(err.value) == f"gate 1: {words[first]}"
        gates = dict(zip(SLOTS, stack))
        with pytest.raises(ValidationError) as err:
            parse_scenario(_document(gates))
        assert str(err.value) == f"iterations[0].u1: {words[first]}"


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
