"""Self-verification: golden scenario checks and randomized property checks.

The oracle here is deliberately naive: the initial state is a sum of
Kronecker products of vectors, and each controlled gate is an explicit
Kronecker-defined global operator, never the engine's branch table.  Its
entries are read off the Kronecker entry rule (Van Loan, "The ubiquitous
Kronecker product", J. Comput. Appl. Math. 123:85-100, 2000): row i of
``sum_v |v><v|_control (x) g_v (x) I...`` holds ``g_v[i_t, e]``, with v
and i_t the control's and the target's bits of i, at column i with the
target's bit set to e, for e = 0, 1, and is zero elsewhere.  So the
operator is two int32 columns and two values per row, in natural row
order, rather than 4**n entries.  That index pattern depends only on the
qubit count and the control and target positions; it is cached for the
layouts whose dense matrix fits the 2**20-entry cap (at most 10 qubits)
and built per call beyond it.  Every operator is applied by one
gather-multiply-sum, to the vector or to each column of a matrix; a
composed global matrix is the same kernel applied to the identity.
Agreement between the two routes is the core correctness check.  Two
more routes check the engine's structure: the composed global unitary
of a canonical run splits into ``|0><0| (x) W_0 + |1><1| (x) W_1`` on the
control (a controlled Stinespring dilation, with memories, system and
policy as the kept environment) and must reproduce the run, and
``closed_form`` gives any run's branch table from each round's pair of
8x8 maps on (C, S, P), built from the oracle's own gates.  The test
suite imports the oracle, the closed form and the random draws from
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce, wraps
from typing import Callable

import numpy as np

from . import analysis, machine
from .errors import BranchsimError, ValidationError
from .gates import GateSpec, IDENTITY, PAULI_X
from .linalg import check_capacity, unitarity_deviations, within_capacity
from .machine import (
    INIT_MODES,
    InitSpec,
    IterationSpec,
    RegisterLayout,
    build_layout,
    initialize,
    iterate,  # unused here, kept as verify.iterate for the benchmark's tracer
    iterate_extended,
    measure_control,
    seeded_generator,
)
from .scenario import Scenario, builtin_scenario

DEFAULT_SEED = 1729

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_PROJ = (
    np.array([[1, 0], [0, 0]], dtype=np.complex128),
    np.array([[0, 0], [0, 1]], dtype=np.complex128),
)


@dataclass(frozen=True)
class CheckResult:
    """A check's largest deviation and the first draw, counted from 0, that
    reaches it; ``fault`` is the message of a draw that broke an engine
    invariant, which scores inf."""

    name: str
    passed: bool
    deviation: float
    tolerance: float
    draw: int
    fault: str | None = None


# ---------------------------------------------------------------------------
# Oracle construction: global operators from the Kronecker entry rule,
# applied by gather-multiply-sum

def _pattern(n: int, c_pos: int, t_pos: int):
    """Read-only index pattern ``(cols, slots)`` of ``sum_v |v><v|_control
    (x) g_v (x) I...`` on n qubits, whatever the gates: for e = 0, 1, row i
    holds entry ``slots[e, i] = 4*v + 2*i_t + e`` of ``(g0, g1)`` flattened
    at column ``cols[e, i]``, by the entry rule of the module docstring.
    """
    c_shift, t_shift = n - 1 - c_pos, n - 1 - t_pos
    i = np.arange(1 << n, dtype=np.int32)
    t = 1 << t_shift
    cols = np.stack((i & ~t, i | t))
    slots = (4 * (i >> c_shift & 1) + 2 * (i >> t_shift & 1)
             + np.arange(2, dtype=np.int32)[:, None])
    cols.flags.writeable = slots.flags.writeable = False
    return cols, slots


_cached_pattern = lru_cache(maxsize=None)(_pattern)


def _controlled_entries(layout: RegisterLayout, control: str, target: str,
                        g0: np.ndarray, g1: np.ndarray):
    """``(cols, values)`` of ``sum_v |v><v|_control (x) g_v (x) I...``:
    each row's two entries, shape (2, 2**total_qubits), gathered from the
    gates through the layout's index pattern.

    The pattern is cached only where the dense matrix fits the 2**20-entry
    cap (at most 10 qubits), so no kept pattern has more than 2**10 rows; a
    larger layout's pattern is built for each call and not kept.
    """
    n = layout.total_qubits
    pattern = _cached_pattern if within_capacity(4 ** n) else _pattern
    cols, slots = pattern(n, layout.position(control), layout.position(target))
    return cols, np.concatenate((g0, g1), axis=None)[slots]


def controlled_product(layout: RegisterLayout, gate, x: np.ndarray) -> np.ndarray:
    """The ``(control, target, g0, g1)`` gate's global operator times x, a
    vector or a matrix (each column), from its two entries per row."""
    cols, values = _controlled_entries(layout, *gate)
    values = values.reshape(values.shape + (1,) * (x.ndim - 1))
    return values[0] * x[cols[0]] + values[1] * x[cols[1]]


def global_unitary(layout: RegisterLayout, gates) -> np.ndarray:
    """Dense product of controlled gates, the first applied first: the
    identity with each gate applied in turn.  It has 4**total_qubits
    entries, so a layout beyond 10 qubits raises ``CapacityError`` before
    anything is allocated; the patterns are cached for exactly the layouts
    that pass.
    """
    n = layout.total_qubits
    check_capacity(4 ** n, f"a {n}-qubit global matrix")
    return reduce(lambda w, gate: controlled_product(layout, gate, w), gates,
                  np.eye(1 << n, dtype=np.complex128))


def round_gates(k: int, spec: IterationSpec):
    """(control, target, g0, g1) of round k's controlled gates, as 2x2
    matrices read from the round's gate array, in order: U, CNOT, F, V,
    then R."""
    g = spec.gates
    gates = [("C", "S", g[0], g[1]), ("C", f"M{k}", IDENTITY.matrix(), PAULI_X.matrix()),
             ("P", "S", g[2], g[3]), (f"M{k}", "P", g[4], g[5])]
    if spec.extended:
        gates.append(("P", "C", g[6], g[7]))
    return gates


def initial_vector(init: InitSpec, n_memories: int) -> np.ndarray:
    """alpha|0>|0..0>|s>|p> + beta|1>|0..0>|s>|p'>, p' = X p in the wired modes,
    built from Kronecker products of vectors, never by the engine's wiring."""
    memory = np.zeros(1 << n_memories, dtype=np.complex128)
    memory[0] = 1.0
    s = init.system_init.matrix() @ np.array([1, 0], dtype=np.complex128)
    p = np.array([init.gamma, init.delta], dtype=np.complex128)
    p_prime = PAULI_X.matrix() @ p if init.mode != "uncorrelated" else p

    def branch(c, p):
        return reduce(lambda a, b: np.multiply.outer(a, b).ravel(), (c, memory, s, p))

    return branch([init.alpha, 0], p) + branch([0, init.beta], p_prime)


def oracle_run(scenario: Scenario, compose: bool = True) -> np.ndarray:
    """Run a scenario by explicit global-matrix arithmetic.

    With ``compose`` each round's gates are first composed into its dense
    global unitary, which caps it at 10 qubits; otherwise each gate is
    applied to the vector in turn (same operator, up to the 20-qubit cap).
    """
    layout = build_layout(len(scenario.iterations))
    amps = initial_vector(scenario.init, layout.n_memories)
    for k, spec in enumerate(scenario.iterations, start=1):
        gates = round_gates(k, spec)
        if compose:
            amps = global_unitary(layout, gates) @ amps
            continue
        for gate in gates:
            amps = controlled_product(layout, gate, amps)
    return amps


def closed_form(init: InitSpec, iterations) -> tuple[np.ndarray, np.ndarray]:
    """Final ``(rows, residual)`` of a run of either round kind, history by history.

    Round k maps the (C, S, P) part of a memory string by the value c it
    records: ``T_c = R (I (x) I (x) V_c) F U (|c><c| (x) I (x) I)``, with U,
    F and R (the identity in a canonical round) the oracle's own gates.
    A child's label is ``(row << 1) | c``; rows left exactly zero are
    dropped, so a canonical run keeps two.  Never built through the engine.
    """
    build_layout(len(iterations))  # the state's cap, before allocating
    layout, eye4 = build_layout(0), np.eye(4)
    rows, residual = np.zeros(1, dtype=np.int64), initial_vector(init, 0)[None]
    for spec in iterations:
        u, _, f, (_, _, *v), *r = round_gates(1, spec)  # U, CNOT, F, V (, R)
        fu, steer = global_unitary(layout, [u, f]), global_unitary(layout, r)
        t = np.stack([steer @ np.kron(eye4, v[c]) @ fu @ np.kron(_PROJ[c], eye4)
                      for c in (0, 1)])
        residual = (t @ residual.T).transpose(2, 0, 1).reshape(-1, 8)  # (row, c)
        rows = ((rows << 1)[:, None] | np.array([0, 1])).reshape(-1)
        keep = (residual != 0).any(axis=1)
        rows, residual = rows[keep], residual[keep]
    return rows, residual.reshape(-1, 2, 2, 2)


def _table_deviation(state, table) -> float:
    """Largest residual difference from a (rows, residual) table; inf if rows differ."""
    rows, residual = table
    if not np.array_equal(state.rows, rows):
        return math.inf
    return float(np.max(np.abs(state.residual - residual)))


# ---------------------------------------------------------------------------
# Random draws

_MIN_WEIGHT = 0.05  # least |a|^2 and |b|^2 of a random amplitude pair


def random_unitaries(rng: np.random.Generator, k: int, dim: int = 2) -> np.ndarray:
    """k Haar-random dim x dim unitaries, shape (k, dim, dim): QR of a complex
    Ginibre matrix with R's diagonal phases moved into Q (Mezzadri,
    arXiv:math-ph/0609050).  Each matrix takes its real then its imaginary
    part from the stream, so the batch equals k successive single draws bit
    for bit and leaves the generator at the same point."""
    z = rng.normal(size=(k, 2, dim, dim))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_amplitude_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    """Normalized (a, b) with |a|^2 bounded away from 0 and 1."""
    w = rng.uniform(_MIN_WEIGHT, 1.0 - _MIN_WEIGHT)
    pa, pb = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return (
        complex(math.sqrt(w) * math.cos(pa), math.sqrt(w) * math.sin(pa)),
        complex(math.sqrt(1 - w) * math.cos(pb), math.sqrt(1 - w) * math.sin(pb)),
    )


def random_init(rng: np.random.Generator, mode: str | None = None) -> InitSpec:
    alpha, beta = random_amplitude_pair(rng)
    if mode is None:
        mode = INIT_MODES[rng.integers(0, len(INIT_MODES))]
    if mode == "copy_c_to_p_from_zero":
        gamma, delta = 1.0 + 0j, 0j
    else:
        gamma, delta = random_amplitude_pair(rng)
    (a, b), (c, d) = random_unitaries(rng, 1)[0].tolist()
    return InitSpec(
        alpha=alpha, beta=beta, gamma=gamma, delta=delta, mode=mode,
        system_init=GateSpec("raw", raw=((a, b), (c, d))),
    )


def _random_scenario(rng: np.random.Generator, n_iterations: int, mode: str | None,
                     extended: bool) -> Scenario:
    """Haar-random u, f and v pairs in every round, then the init, then an r
    pair per round if ``extended``, drawn straight into the scenario's gate
    array; a drawn unitary is not checked again."""
    gates = np.empty((n_iterations, 8, 2, 2), dtype=np.complex128)
    gates[:, :6] = random_unitaries(rng, 6 * n_iterations).reshape(n_iterations, 6, 2, 2)
    init = random_init(rng, mode)
    gates[:, 6:] = (random_unitaries(rng, 2 * n_iterations).reshape(n_iterations, 2, 2, 2)
                    if extended else IDENTITY.matrix())
    gates.flags.writeable = False
    return Scenario(name="random-canonical", init=init,
                    iterations=tuple(IterationSpec.of_gates(g, extended) for g in gates))


def random_canonical_scenario(
    rng: np.random.Generator, n_iterations: int, mode: str | None = None
) -> Scenario:
    return _random_scenario(rng, n_iterations, mode, extended=False)


def random_extended_scenario(
    rng: np.random.Generator, n_iterations: int, mode: str | None = None
) -> Scenario:
    return _random_scenario(rng, n_iterations, mode, extended=True)


# ---------------------------------------------------------------------------
# Checks.  Each body is one draw's arithmetic, ``one(rng, draw) -> deviation``;
# ``_check(name, draws, tolerance)`` registers it in CHECKS as a callable that
# runs draws 0, 1, ... on one generator and keeps the largest deviation and the
# first draw that reaches it.  A draw that breaks an engine invariant (raises a
# BranchsimError) fails the check there with deviation inf, and no later draw
# runs.  A check passes when deviation <= tolerance: 1.0 for deviations divided
# by their own, _BOOL_TOL for 0/1 ones.

_TOL = 1e-10  # amplitudes, probabilities, norms, oracle and closed-form agreement
_LOOSE_TOL = 1e-9  # purity and the feedback outcome probability
_TIGHT_TOL = 1e-12  # zero up to rounding: phase blindness, identity R, coherences
_BOOL_TOL = 0.5

CHECKS: dict[str, Callable[[np.random.Generator], CheckResult]] = {}


def _check(name: str, draws: int, tolerance: float):
    def register(one):
        @wraps(one)
        def check(rng) -> CheckResult:
            deviations = np.zeros(draws)
            for draw in range(draws):
                try:
                    deviations[draw] = one(rng, draw)
                except BranchsimError as exc:
                    return CheckResult(name, False, math.inf, tolerance, draw, str(exc))
            draw = int(np.argmax(deviations))
            deviation = float(deviations[draw])
            return CheckResult(name, deviation <= tolerance, deviation, tolerance, draw)
        CHECKS[name] = check
        return check
    return register


def _bool_dev(condition: bool) -> float:
    return 0.0 if condition else 1.0


@_check("golden_pauli_flips", 1, 1.0)
def _check_golden_pauli_flips(rng, draw):
    state = machine.run(builtin_scenario("pauli-flips"))
    expected = np.zeros(64, dtype=np.complex128)
    expected[0] = expected[63] = _INV_SQRT2
    infidelity = 1.0 - abs(np.vdot(expected, state.amplitudes)) ** 2
    dev = max(infidelity / _TOL, 0.0)
    for k in (1, 2, 3):
        rho = analysis.memory_marginal(state, k)
        dev = max(dev, abs(rho[0, 1]) / _TIGHT_TOL)
        dev = max(dev, max(abs(p - 0.5) for p in rho.diagonal().real) / _TOL)
    return dev


@_check("golden_rotations_nofeedback", 1, 1.0)
def _check_golden_rotations_nofeedback(rng, draw):
    state = machine.run(builtin_scenario("rotations-nofeedback"))
    dev = abs(analysis.outcome_probability(state, "S", 1) - 1.0) / _TOL
    _, pur = analysis.separability_check(state, "S")
    dev = max(dev, abs(pur - 1.0) / _LOOSE_TOL)
    expected = np.zeros(64, dtype=np.complex128)
    expected[0b000010] = -1j * _INV_SQRT2
    expected[0b111111] = +1j * _INV_SQRT2
    return max(dev, float(np.max(np.abs(state.amplitudes - expected))) / _TOL)


@_check("golden_rotations_feedback", 1, 1.0)
def _check_golden_rotations_feedback(rng, draw):
    state = machine.run(builtin_scenario("rotations-feedback"))
    expected_p = (2.0 + math.sqrt(2.0)) / 4.0
    dev = abs(analysis.outcome_probability(state, "S", 1) - expected_p) / _LOOSE_TOL
    table = analysis.branch_decompose(state)
    if table.entries != ("000", "111"):  # a missing branch has no substate to read
        return max(dev, 2.0)
    c, s = math.cos(5 * math.pi / 8), math.sin(5 * math.pi / 8)
    # substates are over (C, S, P); P follows C on each branch
    sub0, sub1 = table.substates
    dev = max(dev, abs(sub0[0b000] - c) / _TOL, abs(sub0[0b010] - (-1j * s)) / _TOL)
    dev = max(dev, abs(sub1[0b101] - c) / _TOL, abs(sub1[0b111] - (+1j * s)) / _TOL)
    _, pur = analysis.separability_check(state, "S")
    return max(dev, _bool_dev(pur < 1.0 - 1e-3) * 2.0)


@_check("golden_reinforce_two_step", 1, 1.0)
def _check_golden_reinforce_two_step(rng, draw):
    state = machine.run(builtin_scenario("reinforce-two-step"))
    probs = analysis.branch_decompose(state).probabilities()
    expected = {"00": 0.5, "10": 0.25, "11": 0.25}
    dev = _bool_dev(set(probs) == set(expected)) * 2.0
    for label, p in expected.items():
        dev = max(dev, abs(probs.get(label, 0.0) - p) / _TOL)
    return dev


@_check("oracle_equivalence", 104, _TOL)
def _check_oracle_equivalence(rng, draw):
    # 100 canonical draws, then larger extended ones: 8-10 qubits, then 14,
    # past the composed form's cap
    if draw < 100:
        scenario = random_canonical_scenario(rng, int(rng.integers(1, 5)))
    else:
        scenario = random_extended_scenario(rng, (5, 6, 7, 11)[draw - 100])
    engine = machine.run(scenario).amplitudes
    return float(np.max(np.abs(engine - oracle_run(scenario, compose=False))))


@_check("property_symbolic_expansion", 20, _TOL)
def _check_symbolic_expansion(rng, draw):
    random_scenario = random_extended_scenario if draw % 2 else random_canonical_scenario
    scenario = random_scenario(rng, int(rng.integers(1, 8)), INIT_MODES[draw % len(INIT_MODES)])
    closed = closed_form(scenario.init, scenario.iterations)
    return _table_deviation(machine.run(scenario), closed)


@_check("property_marginal_diagonality", 50, 1.0)
def _check_marginal_diagonality(rng, draw):
    scenario = random_canonical_scenario(rng, int(rng.integers(1, 4)))
    state = machine.run(scenario)
    wa = abs(scenario.init.alpha) ** 2
    wb = abs(scenario.init.beta) ** 2
    rhos = [analysis.memory_marginal(state, k)
            for k in range(1, len(scenario.iterations) + 1)]
    return max(max(abs(rho[0, 1]) / _TIGHT_TOL, abs(rho[0, 0].real - wa) / _TOL,
                   abs(rho[1, 1].real - wb) / _TOL) for rho in rhos)


@_check("property_phase_blindness", 20, _TIGHT_TOL)
def _check_phase_blindness(rng, draw):
    scenario = random_canonical_scenario(rng, int(rng.integers(1, 4)))
    t = rng.uniform(0, 2 * math.pi)
    phase = complex(math.cos(t), math.sin(t))
    shifted = replace(
        scenario, init=replace(scenario.init, beta=scenario.init.beta * phase)
    )
    base_state, shifted_state = machine.run(scenario), machine.run(shifted)
    return max(float(np.max(np.abs(analysis.memory_marginal(base_state, k)
                                   - analysis.memory_marginal(shifted_state, k))))
               for k in range(1, len(scenario.iterations) + 1))


@_check("property_no_cloning", 50, _BOOL_TOL)
def _check_no_cloning(rng, draw):
    state = machine.run(random_canonical_scenario(rng, int(rng.integers(1, 4))))
    entangled, _ = analysis.no_cloning_witness(state, "C", "M1")
    return _bool_dev(entangled)


@_check("property_branch_conservation", 20, _TOL)
def _check_branch_conservation(rng, draw):
    n = int(rng.integers(1, 4))
    scenario = (random_extended_scenario(rng, n) if draw % 2
                else random_canonical_scenario(rng, n))
    state = machine.run(scenario)
    table = analysis.branch_decompose(state)
    # reconstruction: sqrt(p_b) |b>_M (x) substate re-interleaved, (C, M, SP)
    rebuilt = np.zeros((2, 1 << n, 4), dtype=np.complex128)
    rebuilt[:, table.rows] = (
        np.sqrt(table.weights)[:, None] * table.substates
    ).reshape(-1, 2, 4).transpose(1, 0, 2)
    # branch weights equal the joint memory marginal diagonal
    joint = analysis.register_marginal(
        state, {f"M{k}" for k in range(1, n + 1)}
    )
    diag = np.real(np.diag(joint))
    return max(abs(table.weight_sum() - 1.0),
               float(np.max(np.abs(rebuilt.ravel() - state.amplitudes))),
               float(np.max(np.abs(table.weights - diag[table.rows]))))


@_check("property_norm_preservation", 20, _TOL)
def _check_norm_preservation(rng, draw):
    scenario = random_extended_scenario(rng, int(rng.integers(1, 4)))
    state = initialize(scenario.init, build_layout(0))
    dev = abs(state.norm() - 1.0)
    for k, spec in enumerate(scenario.iterations, start=1):
        state = iterate_extended(state, k, spec)
        dev = max(dev, abs(state.norm() - 1.0))
    return dev


@_check("property_extended_identity", 20, _TIGHT_TOL)
def _check_extended_identity(rng, draw):
    scenario = random_canonical_scenario(rng, 1)
    spec = scenario.iterations[0]
    if draw % 2:  # a drawn R pair, against the extended round's closed form
        gates = spec.gates.copy()
        gates[6:] = random_unitaries(rng, 2)
        gates.flags.writeable = False
        spec = steered = IterationSpec.of_gates(gates, True)
    else:  # an identity R pair, against the canonical round's closed form
        steered = IterationSpec.of_gates(spec.gates, True)
    state = iterate_extended(initialize(scenario.init, build_layout(0)), 1, steered)
    return _table_deviation(state, closed_form(scenario.init, [spec]))


@_check("property_measurement", 20, _TOL)
def _check_measurement(rng, draw):
    state = machine.run(random_extended_scenario(rng, int(rng.integers(1, 4))))
    _, c0, p0 = measure_control(state, 0, force=0)
    _, c1, p1 = measure_control(state, 0, force=1)
    seed = int(rng.integers(0, 2**32))
    first = measure_control(state, seed)[0]
    second = measure_control(state, seed)[0]
    return max(abs(p0 + p1 - 1.0), abs(np.vdot(c0.amplitudes, c1.amplitudes)),
               _bool_dev(first == second))


@_check("property_dilation_blocks", 12, _TOL)
def _check_dilation_blocks(rng, draw):
    """A canonical run's global unitary W is |0><0| (x) W_0 + |1><1| (x) W_1
    with unitary W_c, and that dilation gives the engine's run; an extended
    run, where P steers C, has nonzero off-diagonal C blocks."""
    n = int(rng.integers(1, 5))  # at most 4 rounds: W has 4**(n + 3) entries
    extended = draw % 3 == 2
    scenario = (random_extended_scenario if extended else random_canonical_scenario)(rng, n)
    w = global_unitary(build_layout(n), [
        gate for k, spec in enumerate(scenario.iterations, start=1)
        for gate in round_gates(k, spec)])
    d = w.shape[0] // 2
    w0, w1 = w[:d, :d], w[d:, d:]
    off = max(np.max(np.abs(w[:d, d:])), np.max(np.abs(w[d:, :d])))
    if extended:
        return _bool_dev(off > _TOL)
    dilation = np.kron(_PROJ[0], w0) + np.kron(_PROJ[1], w1)
    engine = machine.run(scenario).amplitudes
    out = dilation @ initial_vector(scenario.init, n)
    return max(_bool_dev(off == 0.0), float(unitarity_deviations(np.array((w0, w1))).max()),
               float(np.max(np.abs(out - engine))))


@_check("property_canonical_branch_support", 20, _TOL)
def _check_canonical_branch_support(rng, draw):
    n = int(rng.integers(1, 4))
    scenario = random_canonical_scenario(rng, n)
    probs = analysis.branch_decompose(machine.run(scenario)).probabilities()
    return max(_bool_dev(set(probs) <= {"0" * n, "1" * n}),
               abs(probs.get("0" * n, 0.0) - abs(scenario.init.alpha) ** 2),
               abs(probs.get("1" * n, 0.0) - abs(scenario.init.beta) ** 2))


SUITES = {
    "golden": lambda name: name.startswith("golden_"),
    "oracle": lambda name: name == "oracle_equivalence",
    "properties": lambda name: name.startswith("property_"),
}


def run_checks(only: str | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the (optionally filtered) check suite in sorted name order."""
    if only is not None and only not in SUITES:
        raise ValidationError(
            f"unknown suite {only!r}; choose from {sorted(SUITES)}"
        )
    selected = sorted(
        name for name in CHECKS if only is None or SUITES[only](name)
    )
    # fresh generator per check: draws are independent of suite filtering
    return [CHECKS[name](seeded_generator(seed)) for name in selected]
