import io
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchsim import analysis, cli, machine, verify
from branchsim.errors import (
    CapacityError,
    LayoutError,
    ProjectionError,
    ShapeError,
    ValidationError,
)
from branchsim.gates import IDENTITY, PAULI_X, GateSpec
from branchsim.machine import (
    INIT_MODES,
    MAX_ITERATIONS,
    InitSpec,
    IterationSpec,
    RegisterLayout,
    StateVector,
    apply_controlled,
    build_layout,
    initialize,
    iterate,
    iterate_extended,
    measure_control,
    run,
    write_memory,
)
from branchsim.scenario import (
    AnalysisRequest,
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    emit_scenario,
)
from branchsim.verify import (
    closed_form,
    global_unitary,
    oracle_run,
    random_canonical_scenario,
    random_extended_scenario,
    random_unitaries,
)

from oracles import dense_fold, inject_round, positions, raw_gate

INV_SQRT2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# layout

def test_build_layout_three_iterations():
    layout = build_layout(3)
    assert layout.total_qubits == 6
    assert layout.register_names() == ("C", "M1", "M2", "M3", "S", "P")
    assert [layout.position(r) for r in layout.register_names()] == [0, 1, 2, 3, 4, 5]
    # C owns the most significant bit
    assert layout.position("C") == 0
    assert layout.position("P") == layout.total_qubits - 1


def test_build_layout_single_iteration():
    assert build_layout(1).total_qubits == 4


def test_build_layout_capacity():
    assert build_layout(17).total_qubits == 20
    with pytest.raises(CapacityError):
        build_layout(18)
    for n in (18, -1):  # the layout itself holds the rule
        with pytest.raises(CapacityError,
                           match=f"^{n} iterations needs {n + 3} qubits; cap is 20$"):
            RegisterLayout(n)


def _unlisted(n: int) -> list:
    """Ids no n-slot layout lists: near misses of its names, and an unhashable one."""
    return ["M0", "M01", "M\u0661", f"M{n + 1}", "m1", "", "C ", ["C"]]


@pytest.mark.parametrize("n", range(MAX_ITERATIONS + 1))
def test_a_register_is_a_name_its_layout_lists_at_its_index(n):
    layout = build_layout(n)
    names = layout.register_names()
    assert [layout.position(r) for r in names] == list(range(n + 3))
    assert {r: layout.position(r) for r in names} == positions(n)
    for name in _unlisted(n):
        with pytest.raises(LayoutError, match="^unknown register id"):
            layout.position(name)


@pytest.mark.parametrize("name", _unlisted(3), ids=repr)
def test_every_entry_point_rejects_an_unlisted_register(name):
    state = run(random_canonical_scenario(np.random.default_rng(5), 3))
    calls = [lambda: state.probability(name, 1),
             lambda: analysis.outcome_probability(state, name, 0),
             lambda: apply_controlled(state, name, "S", PAULI_X, PAULI_X),
             lambda: apply_controlled(state, "C", name, IDENTITY, PAULI_X),
             lambda: analysis.register_marginal(state, [name]),
             lambda: analysis.register_marginal(state, {1, "M01"}),  # mixed types
             lambda: analysis.separability_check(state, name),
             lambda: analysis.no_cloning_witness(state, name, "S")]
    for call in calls:
        with pytest.raises(LayoutError, match="^unknown register id"):
            call()


# ---------------------------------------------------------------------------
# initialize

def test_initialize_copy_mode_matches_bell_wiring():
    layout = build_layout(3)
    state = initialize(
        InitSpec(alpha=INV_SQRT2, beta=INV_SQRT2, mode="copy_c_to_p_from_zero"),
        layout,
    )
    expected = np.zeros(64, dtype=complex)
    expected[0b000000] = expected[0b100001] = INV_SQRT2
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_initialize_basis_state():
    layout = build_layout(2)
    state = initialize(InitSpec(alpha=1, beta=0), layout)
    expected = np.zeros(32, dtype=complex)
    expected[0] = 1
    np.testing.assert_array_equal(state.amplitudes, expected)


def test_initialize_correlated_four_term_amplitudes():
    # C->P CNOT maps (alpha gamma, alpha delta, beta gamma, beta delta)
    # onto (C,P) = (00, 01, 11, 10): the beta terms swap policy values.
    layout = build_layout(1)
    a, b = INV_SQRT2, INV_SQRT2
    g, d = math.cos(0.3), math.sin(0.3)
    state = initialize(
        InitSpec(alpha=a, beta=b, gamma=g, delta=d, mode="correlated_c_to_p"),
        layout,
    )
    idx = {(c, p): (c << 3) | p for c in (0, 1) for p in (0, 1)}
    assert state.amplitudes[idx[0, 0]] == pytest.approx(a * g)
    assert state.amplitudes[idx[0, 1]] == pytest.approx(a * d)
    assert state.amplitudes[idx[1, 0]] == pytest.approx(b * d)
    assert state.amplitudes[idx[1, 1]] == pytest.approx(b * g)


def test_initialize_applies_system_gate():
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=1, beta=0, system_init=GateSpec("rx", angle=0.7)), layout)
    np.testing.assert_allclose(state.amplitudes[0b0000], math.cos(0.35), atol=1e-12)
    np.testing.assert_allclose(state.amplitudes[0b0010], -1j * math.sin(0.35),
                               atol=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.9, beta=0.1),
        dict(alpha=1, beta=0, gamma=0.5, delta=0.5),
        dict(alpha=1, beta=0, mode="bogus"),
        dict(alpha=1, beta=0, gamma=0, delta=1, mode="copy_c_to_p_from_zero"),
        dict(alpha=math.nan, beta=0),
    ],
)
def test_init_spec_invariants(kwargs):
    with pytest.raises(ValidationError):
        InitSpec(**kwargs)


# ---------------------------------------------------------------------------
# apply_controlled / write_memory

def test_apply_controlled_quantum_switch():
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=INV_SQRT2, beta=INV_SQRT2), layout)
    state = apply_controlled(state, "C", "S", IDENTITY, PAULI_X)
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = expected[0b1010] = INV_SQRT2
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_apply_controlled_identity_pair_is_noop():
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=0.6, beta=0.8), layout)
    out = apply_controlled(state, "C", "S", IDENTITY, IDENTITY)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_apply_controlled_rx_pi_phase():
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=0, beta=1), layout)
    state = apply_controlled(state, "C", "S", IDENTITY, GateSpec("rx", angle=math.pi))
    np.testing.assert_allclose(state.amplitudes[0b1010], -1j, atol=1e-12)


def test_apply_controlled_same_register_rejected():
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=1, beta=0), layout)
    with pytest.raises(LayoutError):
        apply_controlled(state, "S", "S", IDENTITY, PAULI_X)


_REGISTERS_3 = ("C", "M1", "M2", "M3", "S", "P")


def _kron_chain(layout, control, target, g0, g1):
    projectors = (np.diag([1, 0]).astype(np.complex128),
                  np.diag([0, 1]).astype(np.complex128))
    total = np.zeros((1 << layout.total_qubits,) * 2, dtype=np.complex128)
    for value, gate in ((0, g0), (1, g1)):
        factors = [np.eye(2, dtype=np.complex128)] * layout.total_qubits
        factors[layout.position(control)] = projectors[value]
        factors[layout.position(target)] = gate
        block = factors[0]
        for f in factors[1:]:
            block = np.kron(block, f)
        total += block
    return total


@pytest.mark.parametrize("memories, control, target", [
    pytest.param(3, c, t, id=f"{c}-{t}")
    for c in _REGISTERS_3 for t in _REGISTERS_3 if c != t
] + [
    # 10 qubits, the widest layout whose patterns are cached: a round's
    # pairs, then the two farthest apart
    pytest.param(7, c, t, id=f"7-memories-{c}-{t}")
    for c, t in (("C", "S"), ("C", "M7"), ("P", "S"), ("M7", "P"), ("P", "C"),
                 ("M1", "P"), ("C", "P"))
])
def test_apply_controlled_matches_kron_oracle_on_every_register_pair(
    memories, control, target
):
    layout = build_layout(memories)
    size = 1 << layout.total_qubits
    rng = np.random.default_rng(11)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps /= np.linalg.norm(amps)
    g0, g1 = random_unitaries(rng, 2)
    # the oracle's index-form gate is exactly the np.kron chain of 2x2 factors
    cols, values = verify._controlled_entries(layout, control, target, g0, g1)
    assert cols.shape == values.shape == (2, size)
    matrix = global_unitary(layout, [(control, target, g0, g1)])
    assert np.array_equal(matrix, _kron_chain(layout, control, target, g0, g1))
    state = StateVector(layout, amps)
    if target.startswith("M"):  # a memory takes only its write
        with pytest.raises(LayoutError, match=f"^memory {target} takes only its write"):
            apply_controlled(state, control, target, raw_gate(g0), raw_gate(g1))
        return
    out = apply_controlled(state, control, target, raw_gate(g0), raw_gate(g1))
    np.testing.assert_allclose(out.amplitudes, matrix @ amps, rtol=0, atol=1e-12)


def test_global_unitary_is_the_ordered_product_of_kron_chains():
    # 6 qubits: a round's gates folded onto the identity by the gather
    # kernel, against the product of their np.kron chains, first applied first
    layout = build_layout(3)
    eye = np.eye(1 << layout.total_qubits, dtype=np.complex128)
    assert np.array_equal(global_unitary(layout, []), eye)
    rng = np.random.default_rng(12)
    for scenario in (random_canonical_scenario(rng, 3), random_extended_scenario(rng, 3)):
        for k, spec in enumerate(scenario.iterations, start=1):
            gates = verify.round_gates(k, spec)
            expected = eye
            for gate in gates:
                expected = _kron_chain(layout, *gate) @ expected
            np.testing.assert_allclose(global_unitary(layout, gates), expected,
                                       rtol=0, atol=1e-12)


def test_write_memory_entangles_control_and_slot():
    layout = build_layout(1)
    a, b = 0.6, 0.8
    state = write_memory(initialize(InitSpec(alpha=a, beta=b), layout), 1)
    assert state.amplitudes[0b0000] == pytest.approx(a)
    assert state.amplitudes[0b1100] == pytest.approx(b)


def test_write_memory_trivial_on_zero_control():
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=1, beta=0), layout)
    out = write_memory(state, 1)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_each_slot_is_written_once_and_in_order():
    layout = build_layout(2)
    state = initialize(InitSpec(alpha=0.6, beta=0.8), layout)
    once = write_memory(state, 1)
    assert once.rows.tolist() == [0b00, 0b10]
    both = write_memory(once, 2)
    assert both.rows.tolist() == [0b00, 0b11]
    after_m2 = write_memory(state, 2)
    attempts = [
        lambda: write_memory(once, 1),  # M1 a second time
        lambda: write_memory(after_m2, 1),  # M1 after M2
        lambda: apply_controlled(state, "C", "M1", PAULI_X, IDENTITY),
        lambda: apply_controlled(state, "C", "M1", IDENTITY, raw_gate(PAULI_X.matrix())),
        lambda: apply_controlled(state, "S", "M1", IDENTITY, PAULI_X),
        lambda: apply_controlled(state, "P", "M1", IDENTITY, PAULI_X),
        lambda: apply_controlled(state, "M2", "M1", IDENTITY, PAULI_X),
        lambda: apply_controlled(state, "C", "M1", IDENTITY, IDENTITY),
        lambda: apply_controlled(state, "S", "M1", IDENTITY, IDENTITY),
    ]
    for attempt in attempts:
        with pytest.raises(LayoutError, match="^memory M1 takes only its write"):
            attempt()


def test_write_memory_out_of_range():
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=1, beta=0), layout)
    with pytest.raises(LayoutError):
        write_memory(state, 2)


# ---------------------------------------------------------------------------
# iterate

def _pauli_iteration():
    return IterationSpec(u0=IDENTITY, u1=PAULI_X, f0=IDENTITY, f1=GateSpec("pauli_z"),
                         v0=IDENTITY, v1=PAULI_X)


def test_iterate_first_pauli_round():
    layout = build_layout(0)
    state = initialize(InitSpec(alpha=INV_SQRT2, beta=INV_SQRT2), layout)
    state = iterate(state, 1, _pauli_iteration())
    assert state.layout == build_layout(1)
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = INV_SQRT2  # untouched branch
    expected[0b1111] = INV_SQRT2  # flipped system, written memory, updated policy
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_iterate_identity_gates_reduce_to_memory_write():
    init = InitSpec(alpha=0.6, beta=0.8)
    via_iterate = iterate(initialize(init, build_layout(0)), 1, IterationSpec())
    via_write = write_memory(initialize(init, build_layout(1)), 1)
    np.testing.assert_allclose(via_iterate.amplitudes, via_write.amplitudes,
                               atol=1e-15)


def test_a_round_depends_only_on_its_gate_matrices():
    # a named and a raw identity are the same matrix, so the engine's
    # state must be the same bits, exact zeros' signs included
    raw = GateSpec("raw", raw=((1, 0), (0, 1)))
    rng = np.random.default_rng(37)
    for mode in INIT_MODES:
        for n in range(1, 7):
            for build, pairs in ((random_canonical_scenario, "ufv"),
                                 (random_extended_scenario, "ufvr")):
                scenario = build(rng, n, mode)
                for p in pairs:
                    by_name, by_matrix = (
                        run(replace(scenario, iterations=tuple(
                            spec.replace(**{f"{p}0": gate, f"{p}1": gate})
                            for spec in scenario.iterations)))
                        for gate in (IDENTITY, raw))
                    assert by_name.rows.tolist() == by_matrix.rows.tolist(), (mode, n, p)
                    assert by_name.residual.tobytes() == by_matrix.residual.tobytes(), (mode, n, p)


def test_iterate_branch_rotations_compose_with_feedback():
    # with P copied from C, u then f act as one rotation by the summed angle
    theta, eps = math.pi / 3, math.pi / 12

    def rx(a):
        return GateSpec("rx", angle=a)

    layout = build_layout(0)
    state = initialize(
        InitSpec(alpha=INV_SQRT2, beta=INV_SQRT2, mode="copy_c_to_p_from_zero"),
        layout,
    )
    spec = IterationSpec(u0=rx(theta), u1=rx(-theta), f0=rx(eps), f1=rx(-eps))
    state = iterate(state, 1, spec)
    net = rx(theta + eps).matrix() @ np.array([1, 0])
    assert state.amplitudes[0b0000] == pytest.approx(INV_SQRT2 * net[0])
    assert state.amplitudes[0b0010] == pytest.approx(INV_SQRT2 * net[1])
    net1 = rx(-(theta + eps)).matrix() @ np.array([1, 0])
    assert state.amplitudes[0b1101] == pytest.approx(INV_SQRT2 * net1[0])
    assert state.amplitudes[0b1111] == pytest.approx(INV_SQRT2 * net1[1])


def test_rounds_only_append_the_next_slot():
    state = iterate(initialize(InitSpec(alpha=1, beta=0), build_layout(0)), 1,
                    IterationSpec())
    steered = IterationSpec(r0=IDENTITY, r1=IDENTITY)
    for k in (1, 3, 0):  # re-run M1, skip M2, no slot at all
        with pytest.raises(LayoutError, match="only round 2 appends"):
            iterate(state, k, IterationSpec())
        with pytest.raises(LayoutError, match="only round 2 appends"):
            iterate_extended(state, k, steered)


def test_iteration_spec_requires_full_r_pair():
    with pytest.raises(ValidationError):
        IterationSpec(r0=IDENTITY)


# ---------------------------------------------------------------------------
# iterate_extended

def _reinforce_round(theta: float) -> IterationSpec:
    return IterationSpec(v0=IDENTITY, v1=PAULI_X,
                         r0=IDENTITY, r1=GateSpec("real_rotation", angle=theta))


def test_iterate_extended_steers_control():
    theta = 0.77
    a, b = 0.6, 0.8
    layout = build_layout(0)
    state = initialize(InitSpec(alpha=a, beta=b), layout)
    state = iterate_extended(state, 1, _reinforce_round(theta))
    # alpha branch untouched; beta branch control rotated by theta
    assert state.amplitudes[0b0000] == pytest.approx(a)
    assert state.amplitudes[0b0101] == pytest.approx(-b * math.sin(theta))
    assert state.amplitudes[0b1101] == pytest.approx(b * math.cos(theta))


def test_iterate_extended_with_identity_r_equals_iterate():
    scenario = random_canonical_scenario(np.random.default_rng(3), 1)
    state = initialize(scenario.init, build_layout(0))
    spec = scenario.iterations[0]
    plain = iterate(state, 1, spec)
    wrapped = iterate_extended(state, 1, spec.replace(r0=IDENTITY, r1=IDENTITY))
    np.testing.assert_allclose(wrapped.amplitudes, plain.amplitudes, atol=1e-12)


def test_iterate_extended_theta_half_pi_empties_beta_control():
    layout = build_layout(0)
    state = initialize(InitSpec(alpha=0.6, beta=0.8), layout)
    state = iterate_extended(state, 1, _reinforce_round(math.pi / 2))
    # R(pi/2)|1> = -|0>: no amplitude left on C=1
    c1_weight = state.probability("C", 1)
    assert c1_weight == pytest.approx(0.0, abs=1e-12)
    assert state.amplitudes[0b0101] == pytest.approx(-0.8)


# ---------------------------------------------------------------------------
# run

def test_run_pauli_flips_reaches_ghz():
    state = run(builtin_scenario("pauli-flips"))
    expected = np.zeros(64, dtype=complex)
    expected[0] = expected[63] = INV_SQRT2
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)
    oracle = oracle_run(builtin_scenario("pauli-flips"))
    np.testing.assert_allclose(oracle, expected, rtol=0, atol=1e-12)


def test_run_zero_iterations_returns_initialized_state():
    scenario = Scenario(
        name="empty",
        init=InitSpec(alpha=0.6, beta=0.8),
        iterations=(),
    )
    state = run(scenario)
    assert state.layout.total_qubits == 3
    assert state.amplitudes[0b000] == pytest.approx(0.6)
    assert state.amplitudes[0b100] == pytest.approx(0.8)


def test_run_rotations_nofeedback_factors_system():
    state = run(builtin_scenario("rotations-nofeedback"))
    expected = np.zeros(64, dtype=complex)
    expected[0b000010] = -1j * INV_SQRT2
    expected[0b111111] = +1j * INV_SQRT2
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)
    oracle = oracle_run(builtin_scenario("rotations-nofeedback"))
    np.testing.assert_allclose(oracle, expected, rtol=0, atol=1e-12)


def test_oracle_composed_and_factor_by_factor_agree():
    rng = np.random.default_rng(88)
    for n in range(1, 5):
        for scenario in (random_canonical_scenario(rng, n), random_extended_scenario(rng, n)):
            stepped = oracle_run(scenario, compose=False)
            assert np.max(np.abs(oracle_run(scenario) - stepped)) <= 1e-12


def _closed_form_amplitudes(scenario):
    rows, residual = closed_form(scenario.init, scenario.iterations)
    layout = build_layout(len(scenario.iterations))
    return StateVector(layout, rows=rows, residual=residual).amplitudes


def test_oracle_matches_closed_form():
    rng = np.random.default_rng(89)
    scenarios = [random_canonical_scenario(rng, n, mode)
                 for n in range(1, 8) for mode in INIT_MODES]
    # extended rounds up to 11, which are 14 qubits: past the composed oracle
    scenarios += [random_extended_scenario(rng, n, mode)
                  for n in (*range(1, 8), 11) for mode in INIT_MODES]
    for scenario in scenarios:
        closed = _closed_form_amplitudes(scenario)
        assert np.max(np.abs(oracle_run(scenario, compose=False) - closed)) <= 1e-10


@pytest.mark.parametrize("n", [12, 17])
def test_closed_form_matches_engine_beyond_the_oracle(n):
    # the composed oracle stops at 10 qubits; 17 rounds are the 20-qubit cap,
    # where an extended run populates all 131,072 memory strings
    rng = np.random.default_rng(92 + n)
    scenarios = [random_canonical_scenario(rng, n, mode) for mode in INIT_MODES]
    scenarios.append(random_extended_scenario(rng, n))
    for scenario, populated in zip(scenarios, (2, 2, 2, 1 << n)):
        state = run(scenario)
        rows, residual = closed_form(scenario.init, scenario.iterations)
        assert rows.size == populated
        assert np.array_equal(rows, state.rows)
        assert np.max(np.abs(residual - state.residual)) <= 1e-10


def test_closed_form_capacity_error_checked_before_allocation():
    # 18 rounds are 21 qubits: the (2, 2**18, 4) array would be 64 MiB
    init = InitSpec(alpha=INV_SQRT2, beta=INV_SQRT2)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            closed_form(init, [IterationSpec()] * 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_oracle_never_calls_the_engine(monkeypatch):
    rng = np.random.default_rng(90)
    scenarios = [random_canonical_scenario(rng, 2, mode) for mode in INIT_MODES]
    scenarios.append(random_extended_scenario(rng, 2))
    engine = [run(scenario) for scenario in scenarios]
    for name in ("initialize", "iterate", "iterate_extended"):
        monkeypatch.setattr(verify, name, None)  # any call raises TypeError
    for name in ("initialize", "StateVector", "iterate", "iterate_extended", "run",
                 "apply_controlled", "write_memory"):
        monkeypatch.setattr(machine, name, None)
    for scenario, state in zip(scenarios, engine):
        for compose in (True, False):
            oracle = oracle_run(scenario, compose=compose)
            assert np.max(np.abs(oracle - state.amplitudes)) <= 1e-10
        rows, residual = closed_form(scenario.init, scenario.iterations)
        assert np.array_equal(rows, state.rows)
        assert np.max(np.abs(residual - state.residual)) <= 1e-10


def test_structure_checks_catch_swapped_feedback_and_update(monkeypatch):
    # each round's policy update now precedes its feedback: the round is
    # built gate by gate from the public per-gate entry points
    def update_first(state, k, spec):
        state = StateVector(build_layout(k), rows=state.rows << 1, residual=state.residual)
        state = apply_controlled(state, "C", "S", spec.u0, spec.u1)
        state = write_memory(state, k)
        state = apply_controlled(state, f"M{k}", "P", spec.v0, spec.v1)
        state = apply_controlled(state, "P", "S", spec.f0, spec.f1)
        if spec.extended:
            state = apply_controlled(state, "P", "C", spec.r0, spec.r1)
        return state

    inject_round(monkeypatch, update_first)
    for name in ("oracle_equivalence", "property_dilation_blocks",
                 "property_symbolic_expansion"):
        result = verify.CHECKS[name](machine.seeded_generator(1729))
        assert result.deviation > result.tolerance, name


def test_structure_checks_catch_swapped_steering(monkeypatch):
    # each extended round steers C with r1 where P reads 0
    def swapped(state, k, spec):
        return iterate(state, k, IterationSpec.of_gates(spec.gates[[0, 1, 2, 3, 4, 5, 7, 6]],
                                                        spec.extended))

    inject_round(monkeypatch, swapped)
    for name in ("oracle_equivalence", "property_extended_identity",
                 "property_symbolic_expansion"):
        result = verify.CHECKS[name](machine.seeded_generator(1729))
        assert result.deviation > result.tolerance, name


def test_check_keeps_the_first_draw_of_its_largest_deviation(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", {})
    check = verify._check("toy", 3, 0.5)(lambda rng, draw: (0.1, 0.9, 0.9)[draw])
    assert verify.CHECKS == {"toy": check}
    result = check(None)
    assert (result.deviation, result.tolerance, result.draw) == (0.9, 0.5, 1)
    assert not result.passed and result.fault is None


def test_check_fails_at_a_draw_that_breaks_an_engine_invariant(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", {})
    drawn = []

    def one(rng, draw):
        drawn.append(draw)
        if draw == 2:
            raise ValidationError("state norm deviates from 1 by 1.000e-06")
        return 0.1

    result = verify._check("toy", 5, 0.5)(one)(None)
    assert drawn == [0, 1, 2]
    assert result == verify.CheckResult("toy", False, math.inf, 0.5, 2,
                                        "state norm deviates from 1 by 1.000e-06")
    # only library errors are a check's failure; anything else is a bug in it
    with pytest.raises(ZeroDivisionError):
        verify._check("toy", 1, 0.5)(lambda rng, draw: 1 / 0)(None)


def test_oracle_capacity_error_checked_before_allocation():
    # 8 rounds are 11 qubits: a dense global matrix of 4**11 entries (64 MiB);
    # the stepwise form runs there, and at 14 qubits, where a dense factor
    # would take 4 GiB, it holds a few vectors of 2**14 entries
    rng = np.random.default_rng(91)
    canonical = random_canonical_scenario(rng, 8)
    extended = random_extended_scenario(rng, 11)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            oracle_run(canonical, compose=True)
        _, composed_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        stepped = oracle_run(extended, compose=False)
        _, stepped_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert composed_peak < 1 << 20, f"peak {composed_peak} bytes"
    assert stepped_peak < 8 << 20, f"peak {stepped_peak} bytes"
    for scenario, amps in ((canonical, oracle_run(canonical, compose=False)),
                           (extended, stepped)):
        assert np.max(np.abs(amps - run(scenario).amplitudes)) <= 1e-10


def test_oracle_pattern_cache_keeps_no_layout_past_the_cap():
    # patterns are cached only for layouts whose dense matrix fits the
    # 2**20-entry cap: 10 qubits, 2**10 rows; a 14-qubit draw keeps none
    rng = np.random.default_rng(94)
    small, large = random_extended_scenario(rng, 2), random_extended_scenario(rng, 11)
    verify._cached_pattern.cache_clear()
    oracle_run(large, compose=False)
    assert verify._cached_pattern.cache_info().currsize == 0
    oracle_run(small, compose=False)
    # C-S, P-S, P-C, and C-Mk, Mk-P for k = 1, 2
    assert verify._cached_pattern.cache_info().currsize == 7
    oracle_run(large, compose=False)
    assert verify._cached_pattern.cache_info().currsize == 7
    layout, (g0, g1) = build_layout(2), random_unitaries(rng, 2)
    cols, values = verify._controlled_entries(layout, "C", "S", g0, g1)
    assert values.flags.writeable
    for array in (cols, *verify._cached_pattern(layout.total_qubits, 0, 3),
                  *verify._pattern(14, 0, 3)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("rounds", [7, 8])
def test_stepped_oracle_matches_engine_on_both_sides_of_the_pattern_cache(rounds):
    # 10 qubits read cached patterns, 11 build theirs for each gate
    rng = np.random.default_rng(95 + rounds)
    for scenario in (random_canonical_scenario(rng, rounds),
                     random_extended_scenario(rng, rounds)):
        stepped = oracle_run(scenario, compose=False)
        assert np.max(np.abs(stepped - run(scenario).amplitudes)) <= 1e-10


def test_run_checks_equal_on_a_cold_and_a_warm_pattern_cache():
    verify._cached_pattern.cache_clear()
    cold = verify.run_checks(seed=1729)
    assert verify._cached_pattern.cache_info().currsize > 0
    assert verify.run_checks(seed=1729) == cold
    assert all(result.passed for result in cold)


_GATE_FIELDS = ("u0", "u1", "f0", "f1", "v0", "v1", "r0", "r1")


@st.composite
def _fold_scenarios(draw):
    """Canonical or extended rounds, any init mode, some gates identity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, mode = draw(st.integers(0, 6)), draw(st.sampled_from(INIT_MODES))
    extended = draw(st.booleans())
    build = random_extended_scenario if extended else random_canonical_scenario
    scenario = build(rng, n, mode)
    fields = _GATE_FIELDS if extended else _GATE_FIELDS[:6]
    rounds = []
    for spec in scenario.iterations:
        skipped = draw(st.lists(st.sampled_from(fields), unique=True))
        rounds.append(spec.replace(**{f: IDENTITY for f in skipped}))
    return replace(scenario, iterations=tuple(rounds))


def _assert_equals_dense_fold(state, scenario):
    """The whole vectors are equal, and the engine's populated rows hold the
    fold's bytes there, signed zeros included (``array_equal`` reads -0.0
    as 0.0); a row the engine drops may hold -0.0 in the fold."""
    dense = dense_fold(scenario)
    assert np.array_equal(state.amplitudes, dense), scenario.name
    populated = dense.reshape(2, -1, 4)[:, state.rows].transpose(1, 0, 2)
    assert populated.tobytes() == state.residual.tobytes(), scenario.name


@settings(max_examples=60, deadline=None)
@given(_fold_scenarios())
def test_run_equals_dense_tensor_axis_fold_exactly(scenario):
    _assert_equals_dense_fold(run(scenario), scenario)


def test_builtins_equal_dense_tensor_axis_fold_exactly():
    for scenario in builtin_scenarios():
        _assert_equals_dense_fold(run(scenario), scenario)


def test_wide_runs_equal_dense_tensor_axis_fold_exactly():
    # 13 rounds: the extended draw holds 8,192 rows, so every gate runs
    # long contiguous loops, not the hypothesis draws' few elements
    rng = np.random.default_rng(29)
    for build, n_rows in ((random_canonical_scenario, 2), (random_extended_scenario, 8192)):
        scenario = build(rng, 13)
        state = run(scenario)
        assert state.rows.size == n_rows
        _assert_equals_dense_fold(state, scenario)


def test_engine_never_writes_its_input():
    # a one-row residual's rows-last transpose is already contiguous, so
    # the engine's working block must be a copy, never the input itself
    rng = np.random.default_rng(31)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(build_layout(0), amps / np.linalg.norm(amps))
    rows, residual = state.rows.tobytes(), state.residual.tobytes()
    g0, g1 = (raw_gate(g) for g in random_unitaries(rng, 2))
    pairs = [(c, t) for c in "CSP" for t in "CSP" if c != t]
    for control, target in pairs:
        apply_controlled(state, control, target, g0, g1)
    iterate(state, 1, IterationSpec(g0, g1, g1, g0, g0, g1, g1, g0))
    assert state.rows.tobytes() == rows and state.residual.tobytes() == residual
    assert not (state.rows.flags.writeable or state.residual.flags.writeable)


def test_dense_amplitudes_round_trip_exactly():
    rng = np.random.default_rng(17)
    layout = build_layout(3)
    single = np.zeros(64, dtype=complex)  # one populated memory string, 101
    single.reshape(2, 8, 4)[:, 0b101, :] = random_unitaries(rng, 1, 8)[0, :, 0].reshape(2, 4)
    full = rng.normal(size=64) + 1j * rng.normal(size=64)
    full /= np.linalg.norm(full)
    for amps, n_rows in ((single, 1), (full, 8)):
        state = StateVector(layout, amps)
        assert state.rows.size == n_rows
        assert np.array_equal(state.amplitudes, amps)
        assert not state.amplitudes.flags.writeable


def test_canonical_rounds_keep_two_rows():
    rng = np.random.default_rng(19)
    scenario = random_canonical_scenario(rng, 17)
    state = initialize(scenario.init, build_layout(0))
    for k, spec in enumerate(scenario.iterations, start=1):
        state = iterate(state, k, spec)
        assert state.rows.tolist() == [0, (1 << k) - 1]
        assert state.residual.shape == (2, 2, 2, 2)


def test_run_command_never_builds_the_dense_vector(tmp_path, monkeypatch):
    rng = np.random.default_rng(23)
    scenario = replace(
        random_canonical_scenario(rng, 17),
        analyses=(
            AnalysisRequest("branches"), AnalysisRequest("marginal", ("M1",)),
            AnalysisRequest("marginal", ("S",)), AnalysisRequest("outcome", ("S",)),
            AnalysisRequest("separability", ("S",)),
            AnalysisRequest("witness", ("C", "M1")),
        ),
        measure_seed=3,
    )
    path = tmp_path / "deep.json"
    path.write_text(emit_scenario(scenario), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("the dense vector was built")

    monkeypatch.setattr(machine, "_dense_view", refuse)
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["run", "--scenario", str(path)], stdout=out, stderr=err) == 0
    report = out.getvalue()
    assert f'"{"0" * 17}"' in report and f'"{"1" * 17}"' in report
    assert err.getvalue() == ""


# ---------------------------------------------------------------------------
# measurement

def test_measure_control_on_ghz_collapses_to_basis_states():
    state = run(builtin_scenario("pauli-flips"))
    out0, collapsed0, p0 = measure_control(state, 0, force=0)
    out1, collapsed1, p1 = measure_control(state, 0, force=1)
    assert (out0, out1) == (0, 1)
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert p1 == pytest.approx(0.5, abs=1e-12)
    expected0 = np.zeros(64, dtype=complex)
    expected0[0] = 1
    np.testing.assert_allclose(collapsed0.amplitudes, expected0, atol=1e-12)
    expected1 = np.zeros(64, dtype=complex)
    expected1[63] = 1
    np.testing.assert_allclose(collapsed1.amplitudes, expected1, atol=1e-12)
    assert abs(np.vdot(collapsed0.amplitudes, collapsed1.amplitudes)) < 1e-12


def test_measure_control_drops_the_rows_it_zeroes():
    rng = np.random.default_rng(29)
    state = run(random_canonical_scenario(rng, 4))
    assert state.rows.tolist() == [0b0000, 0b1111]
    for outcome, row in ((0, 0b0000), (1, 0b1111)):
        _, collapsed, _ = measure_control(state, 0, force=outcome)
        assert collapsed.rows.tolist() == [row]
        assert np.all(collapsed.residual[:, 1 - outcome] == 0)
    # extended rounds steer C inside a row: the row survives either outcome
    state = run(random_extended_scenario(rng, 2))
    _, collapsed, _ = measure_control(state, 0, force=1)
    kept = np.any(state.residual[:, 1] != 0, axis=(1, 2))
    assert collapsed.rows.tolist() == state.rows[kept].tolist()


def test_measure_control_deterministic_outcome_for_basis_control():
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=1, beta=0), layout)
    for seed in (0, 1, 99):
        outcome, _, prob = measure_control(state, seed)
        assert outcome == 0
        assert prob == pytest.approx(1.0, abs=1e-12)


def test_measure_control_seed_reproducibility():
    state = run(builtin_scenario("pauli-flips"))
    outcomes = {measure_control(state, 42)[0] for _ in range(5)}
    assert len(outcomes) == 1


@pytest.mark.parametrize("p1", [0.05, 0.3, 0.5, 0.9])
def test_seeded_measurement_follows_the_born_rule(p1):
    # over seeds 0..1999 the count of outcome 1 is binomial(2000, p1): it
    # must lie within 4 standard deviations of its mean, so an outcome that
    # ignores its seed (always the likelier one, say) fails
    state = initialize(InitSpec(alpha=math.sqrt(1 - p1), beta=math.sqrt(p1)), build_layout(0))
    n = 2000
    ones = sum(measure_control(state, seed)[0] for seed in range(n))
    assert abs(ones - n * p1) <= 4 * math.sqrt(n * p1 * (1 - p1))


def test_measure_control_post_steering_renormalizes():
    theta = 0.77
    a, b = 0.6, 0.8
    layout = build_layout(0)
    state = initialize(InitSpec(alpha=a, beta=b), layout)
    state = iterate_extended(state, 1, _reinforce_round(theta))
    outcome, collapsed, prob = measure_control(state, 0, force=0)
    expected_p = a**2 + (b * math.sin(theta)) ** 2
    assert prob == pytest.approx(expected_p, abs=1e-12)
    # surviving amplitudes carry memory strings 0 and 1 with renormalized weights
    assert collapsed.amplitudes[0b0000] == pytest.approx(a / math.sqrt(expected_p))
    assert collapsed.amplitudes[0b0101] == pytest.approx(
        -b * math.sin(theta) / math.sqrt(expected_p)
    )


def test_measure_control_zero_probability_force_rejected():
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=1, beta=0), layout)
    with pytest.raises(ProjectionError):
        measure_control(state, 0, force=1)


# ---------------------------------------------------------------------------
# state vector invariants

def test_state_vector_rejects_unnormalized_amplitudes():
    layout = build_layout(1)
    with pytest.raises(ValidationError):
        StateVector(layout, np.ones(16, dtype=complex))


def test_state_vector_rejects_nan():
    layout = build_layout(1)
    amps = np.zeros(16, dtype=complex)
    amps[0] = math.nan
    with pytest.raises(ValidationError):
        StateVector(layout, amps)


@pytest.mark.parametrize("rows", [[1, 0], [0, 0], [0, 2], [-1, 0]])
def test_state_vector_rejects_rows_that_are_not_sorted_memory_strings(rows):
    # one memory: the rows are 0 and 1, each once, ascending
    with pytest.raises(ShapeError, match="^rows must be distinct sorted memory "
                                         "strings of the layout$"):
        StateVector(build_layout(1), rows=rows, residual=np.full((2, 2, 2, 2), 0.25 + 0j))


@pytest.mark.parametrize("rows, residual, shapes", [
    ([0, 1], np.zeros((2, 8)), "(2,) and (2, 8)"),
    ([[0, 1]], np.zeros((2, 2, 2, 2)), "(1, 2) and (2, 2, 2, 2)")])
def test_state_vector_rejects_a_misshapen_table(rows, residual, shapes):
    message = f"expected rows (r,) and residual (r, 2, 2, 2), got {shapes}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        StateVector(build_layout(1), rows=rows, residual=residual)


def test_state_vector_rejects_a_dense_vector_of_the_wrong_size():
    message = "expected 16 amplitudes, got shape (8,)"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        StateVector(build_layout(1), np.full(8, 8 ** -0.5 + 0j))


@pytest.mark.parametrize("kwargs", [{}, {"amplitudes": np.eye(16)[0], "rows": [0]}])
def test_state_vector_takes_amplitudes_or_a_table(kwargs):
    with pytest.raises(ValidationError, match="^give either amplitudes, or rows and residual$"):
        StateVector(build_layout(1), **kwargs)


_NON_FINITE = "^state contains non-finite amplitudes$"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_state_vector_names_non_finite_amplitudes_before_the_norm(bad):
    residual = np.full((2, 2, 2, 2), 0.5 + 0j)  # norm 2: off-norm as well
    residual[1, 0, 1, 1] = bad
    with pytest.raises(ValidationError, match=_NON_FINITE):
        StateVector(build_layout(1), rows=[0, 1], residual=residual)


@pytest.mark.parametrize("scale, dev", [(1.5, "5.000e-01"), (1 + 2e-10, "2.000e-10"),
                                        (1e200, "inf")])  # the last one's squares overflow
def test_state_vector_names_a_finite_norm_deviation(scale, dev):
    residual = np.full((2, 2, 2, 2), 0.25 * scale + 0j)
    with pytest.raises(ValidationError, match=f"^state norm deviates from 1 by {dev}$"):
        StateVector(build_layout(1), rows=[0, 1], residual=residual)
    within = np.full((2, 2, 2, 2), 0.25 * (1 + 5e-11) + 0j)  # inside NORM_TOL
    StateVector(build_layout(1), rows=[0, 1], residual=within)


@pytest.mark.parametrize("rows, message", [
    ([1, 2], _NON_FINITE),  # row 2's substate is nan, row 1's is off-norm
    ([1], "^state norm deviates from 1 by 1.000e\\+00$")])
def test_branch_decompose_checks_its_substates(rows, message, monkeypatch):
    # the state's own check admits any residual, so only the substates' check runs
    monkeypatch.setattr(machine, "check_normalized", lambda blocks: None)
    residual = np.full((3, 2, 2, 2), 0.25 + 0j)
    residual[1] *= 1e200  # its weight overflows to inf: the substate reads 0
    residual[2, 0, 0, 0] = math.inf  # inf / inf: the substate holds nan
    state = StateVector(build_layout(2), rows=[0] + rows, residual=residual[[0] + rows])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValidationError, match=message):
        analysis.branch_decompose(state)


def test_canonical_runs_only_populate_uniform_memory_strings():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        scenario = random_canonical_scenario(rng, n)
        alpha, beta = scenario.init.alpha, scenario.init.beta
        state = run(scenario)
        psi = state.amplitudes.reshape([2] * state.layout.total_qubits)
        weights = np.abs(psi) ** 2
        mem_weights = weights.sum(axis=(0, n + 1, n + 2))
        populated = {
            format(i, f"0{n}b")
            for i in range(1 << n)
            if mem_weights.reshape(-1)[i] > 1e-12
        }
        assert populated <= {"0" * n, "1" * n}
        assert mem_weights.reshape(-1)[0] == pytest.approx(abs(alpha) ** 2, abs=1e-10)
        assert mem_weights.reshape(-1)[-1] == pytest.approx(abs(beta) ** 2, abs=1e-10)
