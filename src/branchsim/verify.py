"""Self-verification: golden scenario checks and randomized property checks.

The oracle here is deliberately naive: the initial state is a sum of
Kronecker products of vectors, and each controlled gate is an explicit
Kronecker-built global operator, never the engine's branch table.  The
operator is held in index (COO) form, ``A (x) B`` having rows
``r_a*d_b + r_b``, columns ``c_a*d_b + c_b`` and values ``v_a*v_b``
(Van Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math.
123:85-100, 2000), so each control-value term has 2**n entries rather
than 4**n.  It is applied to the vector by scatter-add, or densified
where a composed matrix is wanted.  Agreement between the two routes is
the core correctness check.  Two more routes check the engine's
structure: the composed global unitary of a canonical run splits into
``|0><0| (x) W_0 + |1><1| (x) W_1`` on the control (a controlled
Stinespring dilation, with memories, system and policy as the kept
environment) and must reproduce the run, and ``closed_form`` gives a
canonical run's final state branch by branch from the gates' 2x2
matrices.  The test suite imports the oracle, the closed form and the
random draws from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

import numpy as np

from . import analysis, machine
from .errors import CapacityError, ValidationError
from .gates import GateSpec, IDENTITY, PAULI_X, raw_gate
from .linalg import QUBIT_CAP, unitarity_deviation
from .machine import (
    INIT_MODES,
    InitSpec,
    IterationSpec,
    RegisterLayout,
    build_layout,
    initialize,
    iterate,
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
_EYE2 = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float


# ---------------------------------------------------------------------------
# Oracle construction: global operators as explicit Kronecker products in
# index (COO) form, applied by scatter-add or densified and multiplied by @

def _coo_kron(a, b):
    """(rows, cols, values, dim) of A (x) B from those of A and B."""
    (ra, ca, va, da), (rb, cb, vb, db) = a, b
    return ((ra[:, None] * db + rb).ravel(), (ca[:, None] * db + cb).ravel(),
            (va[:, None] * vb).ravel(), da * db)


def _coo_identity(qubits: int):
    idx = np.arange(1 << qubits)
    return idx, idx, np.ones(idx.size, dtype=np.complex128), idx.size


def _controlled_terms(layout: RegisterLayout, control: str, target: str,
                      g0: np.ndarray, g1: np.ndarray):
    """Yield (rows, cols, values) of ``|v><v|_control (x) g_v (x) I...`` for
    v = 0, 1: each term has exactly 2**total_qubits entries."""
    n = layout.total_qubits
    c_pos, t_pos = layout.position(control), layout.position(target)
    lo, hi = sorted((c_pos, t_pos))
    for value, gate in ((0, g0), (1, g1)):
        factors = {
            c_pos: (np.array([value]), np.array([value]), np.ones(1, np.complex128), 2),
            t_pos: (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), gate.ravel(), 2),
        }
        chain = (_coo_identity(lo), factors[lo], _coo_identity(hi - lo - 1),
                 factors[hi], _coo_identity(n - hi - 1))
        yield reduce(_coo_kron, [f for f in chain if f[3] > 1])[:3]


def controlled_unitary_matrix(
    layout: RegisterLayout, control: str, target: str, g0: np.ndarray, g1: np.ndarray
) -> np.ndarray:
    """Sum over control values of projector (x) gate (x) identities, dense.

    The matrix has 4**total_qubits entries, so a layout beyond 10 qubits
    raises ``CapacityError`` before anything is allocated.
    """
    if 4 ** layout.total_qubits > 1 << QUBIT_CAP:
        raise CapacityError(
            f"a {layout.total_qubits}-qubit global matrix has "
            f"{4 ** layout.total_qubits} entries; cap is 2**{QUBIT_CAP}"
        )
    total = np.zeros((1 << layout.total_qubits,) * 2, dtype=np.complex128)
    for rows, cols, values in _controlled_terms(layout, control, target, g0, g1):
        total[rows, cols] = values
    return total


def _apply_controlled_terms(terms, amps: np.ndarray) -> np.ndarray:
    """The operator's sum of terms times ``amps``, by scatter-add of each
    term's products over its rows; no matrix is materialized."""
    out = np.zeros_like(amps)
    for rows, cols, values in terms:
        products = values * amps[cols]
        out.real += np.bincount(rows, products.real, minlength=amps.size)
        out.imag += np.bincount(rows, products.imag, minlength=amps.size)
    return out


def round_gates(k: int, spec: IterationSpec):
    """(control, target, g0, g1) of round k's controlled gates, as 2x2
    matrices, in order: U, CNOT, F, V, then R."""
    gates = [("C", "S", spec.u0, spec.u1), ("C", f"M{k}", IDENTITY, PAULI_X),
             ("P", "S", spec.f0, spec.f1), (f"M{k}", "P", spec.v0, spec.v1)]
    if spec.extended:
        gates.append(("P", "C", spec.r0, spec.r1))
    return [(control, target, g0.matrix(), g1.matrix())
            for control, target, g0, g1 in gates]


def iteration_matrix(layout: RegisterLayout, k: int, spec: IterationSpec) -> np.ndarray:
    """Explicit global unitary of one round: (R .) V . F . CNOT . U."""
    factors = (controlled_unitary_matrix(layout, *gate) for gate in round_gates(k, spec))
    w = next(factors)
    for factor in factors:
        w = factor @ w
    return w


def initial_vector(init: InitSpec, n_memories: int) -> np.ndarray:
    """alpha|0>|0..0>|s>|p> + beta|1>|0..0>|s>|p'>, p' = X p in the wired modes,
    built from Kronecker products of vectors, never by the engine's wiring."""
    memory = np.zeros(1 << n_memories, dtype=np.complex128)
    memory[0] = 1.0
    s = init.system_init.matrix() @ np.array([1, 0], dtype=np.complex128)
    p = np.array([init.gamma, init.delta], dtype=np.complex128)
    p_prime = PAULI_X.matrix() @ p if init.mode != "uncorrelated" else p

    def branch(c, p):
        return np.kron(np.kron(np.kron(c, memory), s), p)

    return branch([init.alpha, 0], p) + branch([0, init.beta], p_prime)


def oracle_run(scenario: Scenario, compose: bool = True) -> np.ndarray:
    """Run a scenario by explicit global-matrix arithmetic.

    With ``compose`` each round's dense controlled factors are multiplied
    into one iteration matrix first, which caps it at 10 qubits; otherwise
    each factor's index-form terms are applied to the vector in turn (same
    operator, 2**total_qubits entries per term, up to the 20-qubit cap).
    """
    layout = build_layout(len(scenario.iterations))
    amps = initial_vector(scenario.init, layout.n_memories)
    for k, spec in enumerate(scenario.iterations, start=1):
        if compose:
            amps = iteration_matrix(layout, k, spec) @ amps
            continue
        for gate in round_gates(k, spec):
            amps = _apply_controlled_terms(_controlled_terms(layout, *gate), amps)
    return amps


def closed_form(init: InitSpec, iterations) -> np.ndarray:
    """Final state of canonical rounds, one branch of the control at a time.

    Where C reads c every memory records c, so round k acts on S (x) P as
    ``T_c = (I (x) V_c)(F0 (x) |0><0| + F1 (x) |1><1|)(U_c (x) I)`` and the
    state is ``alpha|0>|0^n> T_0...T_0 (s (x) p) + beta|1>|1^n> T_1...T_1
    (s (x) p')``.  Built from the gates' 2x2 matrices and the oracle's
    initial vector, never through the engine.
    """
    n = build_layout(len(iterations)).n_memories  # the state's cap, before allocating
    out = np.zeros((2, 1 << n, 4), dtype=np.complex128)  # C, memories, S (x) P
    for c, sp in enumerate(initial_vector(init, 0).reshape(2, 4)):
        for spec in iterations:
            u, v = (spec.u0, spec.u1)[c].matrix(), (spec.v0, spec.v1)[c].matrix()
            feedback = (np.kron(spec.f0.matrix(), _PROJ[0])
                        + np.kron(spec.f1.matrix(), _PROJ[1]))
            sp = np.kron(_EYE2, v) @ feedback @ np.kron(u, _EYE2) @ sp
        out[c, c * ((1 << n) - 1)] = sp
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# Random draws

_MIN_WEIGHT = 0.05  # least |a|^2 and |b|^2 of a random amplitude pair


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gate(rng: np.random.Generator) -> GateSpec:
    return raw_gate(random_unitary(rng))


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
    return InitSpec(
        alpha=alpha, beta=beta, gamma=gamma, delta=delta, mode=mode,
        system_init=random_gate(rng),
    )


def random_canonical_scenario(
    rng: np.random.Generator, n_iterations: int, mode: str | None = None
) -> Scenario:
    iterations = tuple(
        IterationSpec(
            u0=random_gate(rng), u1=random_gate(rng),
            f0=random_gate(rng), f1=random_gate(rng),
            v0=random_gate(rng), v1=random_gate(rng),
        )
        for _ in range(n_iterations)
    )
    return Scenario(name="random-canonical", init=random_init(rng, mode),
                    iterations=iterations)


def random_extended_scenario(
    rng: np.random.Generator, n_iterations: int, mode: str | None = None
) -> Scenario:
    base = random_canonical_scenario(rng, n_iterations, mode)
    iterations = tuple(
        replace(it, r0=random_gate(rng), r1=random_gate(rng))
        for it in base.iterations
    )
    return replace(base, iterations=iterations)


# ---------------------------------------------------------------------------
# Individual checks return (max deviation, tolerance) and pass when deviation
# <= tolerance: 1.0 for deviations divided by their own, _BOOL_TOL for 0/1 ones.

_TOL = 1e-10  # amplitudes, probabilities, norms, oracle and closed-form agreement
_LOOSE_TOL = 1e-9  # purity and the feedback outcome probability
_TIGHT_TOL = 1e-12  # zero up to rounding: phase blindness, identity R, coherences
_BOOL_TOL = 0.5


def _bool_dev(condition: bool) -> float:
    return 0.0 if condition else 1.0


def _check_golden_pauli_flips(rng):
    state = machine.run(builtin_scenario("pauli-flips"))
    expected = np.zeros(64, dtype=np.complex128)
    expected[0] = expected[63] = _INV_SQRT2
    infidelity = 1.0 - abs(np.vdot(expected, state.amplitudes)) ** 2
    dev = max(infidelity / _TOL, 0.0)
    for k in (1, 2, 3):
        rho = analysis.memory_marginal(state, k)
        dev = max(dev, abs(rho[0, 1]) / _TIGHT_TOL)
        dev = max(dev, max(abs(p - 0.5) for p in rho.diagonal().real) / _TOL)
    return dev, 1.0


def _check_golden_rotations_nofeedback(rng):
    state = machine.run(builtin_scenario("rotations-nofeedback"))
    dev = abs(analysis.outcome_probability(state, "S", 1) - 1.0) / _TOL
    _, pur = analysis.separability_check(state, "S")
    dev = max(dev, abs(pur - 1.0) / _LOOSE_TOL)
    expected = np.zeros(64, dtype=np.complex128)
    expected[0b000010] = -1j * _INV_SQRT2
    expected[0b111111] = +1j * _INV_SQRT2
    dev = max(dev, float(np.max(np.abs(state.amplitudes - expected))) / _TOL)
    return dev, 1.0


def _check_golden_rotations_feedback(rng):
    state = machine.run(builtin_scenario("rotations-feedback"))
    expected_p = (2.0 + math.sqrt(2.0)) / 4.0
    dev = abs(analysis.outcome_probability(state, "S", 1) - expected_p) / _LOOSE_TOL
    table = analysis.branch_decompose(state)
    c, s = math.cos(5 * math.pi / 8), math.sin(5 * math.pi / 8)
    # substates are over (C, S, P); P follows C on each branch
    sub0, sub1 = table.substates[[table.entries["000"], table.entries["111"]]]
    dev = max(dev, abs(sub0[0b000] - c) / _TOL, abs(sub0[0b010] - (-1j * s)) / _TOL)
    dev = max(dev, abs(sub1[0b101] - c) / _TOL, abs(sub1[0b111] - (+1j * s)) / _TOL)
    _, pur = analysis.separability_check(state, "S")
    dev = max(dev, _bool_dev(pur < 1.0 - 1e-3) * 2.0)
    return dev, 1.0


def _check_golden_reinforce_two_step(rng):
    state = machine.run(builtin_scenario("reinforce-two-step"))
    probs = analysis.branch_decompose(state).probabilities()
    expected = {"00": 0.5, "10": 0.25, "11": 0.25}
    dev = _bool_dev(set(probs) == set(expected)) * 2.0
    for label, p in expected.items():
        dev = max(dev, abs(probs.get(label, 0.0) - p) / _TOL)
    return dev, 1.0


def _check_oracle_equivalence(rng):
    scenarios = [random_canonical_scenario(rng, int(rng.integers(1, 5)))
                 for _ in range(100)]
    # larger extended draws: 8-10 qubits, then 14, past the composed form's cap
    scenarios += [random_extended_scenario(rng, n) for n in (5, 6, 7, 11)]
    dev = 0.0
    for scenario in scenarios:
        engine = machine.run(scenario).amplitudes
        dev = max(dev, float(np.max(np.abs(engine - oracle_run(scenario, compose=False)))))
    return dev, _TOL


def _check_symbolic_expansion(rng):
    dev = 0.0
    for trial in range(20):
        scenario = random_canonical_scenario(
            rng, int(rng.integers(1, 8)), INIT_MODES[trial % len(INIT_MODES)]
        )
        engine = machine.run(scenario).amplitudes
        closed = closed_form(scenario.init, scenario.iterations)
        dev = max(dev, float(np.max(np.abs(engine - closed))))
    return dev, _TOL


def _check_marginal_diagonality(rng):
    dev = 0.0
    for _ in range(50):
        scenario = random_canonical_scenario(rng, int(rng.integers(1, 4)))
        state = machine.run(scenario)
        wa = abs(scenario.init.alpha) ** 2
        wb = abs(scenario.init.beta) ** 2
        for k in range(1, len(scenario.iterations) + 1):
            rho = analysis.memory_marginal(state, k)
            dev = max(dev, abs(rho[0, 1]) / _TIGHT_TOL)
            dev = max(dev, abs(rho[0, 0].real - wa) / _TOL)
            dev = max(dev, abs(rho[1, 1].real - wb) / _TOL)
    return dev, 1.0


def _check_phase_blindness(rng):
    dev = 0.0
    for _ in range(20):
        scenario = random_canonical_scenario(rng, int(rng.integers(1, 4)))
        t = rng.uniform(0, 2 * math.pi)
        phase = complex(math.cos(t), math.sin(t))
        shifted = replace(
            scenario, init=replace(scenario.init, beta=scenario.init.beta * phase)
        )
        base_state, shifted_state = machine.run(scenario), machine.run(shifted)
        for k in range(1, len(scenario.iterations) + 1):
            m1 = analysis.memory_marginal(base_state, k)
            m2 = analysis.memory_marginal(shifted_state, k)
            dev = max(dev, float(np.max(np.abs(m1 - m2))))
    return dev, _TIGHT_TOL


def _check_no_cloning(rng):
    dev = 0.0
    for _ in range(50):
        scenario = random_canonical_scenario(rng, int(rng.integers(1, 4)))
        state = machine.run(scenario)
        entangled, _ = analysis.no_cloning_witness(state, "C", "M1")
        dev = max(dev, _bool_dev(entangled))
    return dev, _BOOL_TOL


def _check_branch_conservation(rng):
    dev = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 4))
        scenario = (random_extended_scenario(rng, n) if trial % 2
                    else random_canonical_scenario(rng, n))
        state = machine.run(scenario)
        table = analysis.branch_decompose(state)
        dev = max(dev, abs(sum(table.probabilities().values()) - 1.0))
        # reconstruction: sqrt(p_b) |b>_M (x) substate re-interleaved
        layout = state.layout
        rebuilt = np.zeros_like(state.amplitudes)
        shape = [2] * layout.total_qubits
        for label, i in table.entries.items():
            index = [slice(None)] * layout.total_qubits
            for axis, ch in zip(layout.memories, label):
                index[axis] = int(ch)
            rebuilt.reshape(shape)[tuple(index)] = (
                math.sqrt(table.weights[i]) * table.substates[i].reshape(2, 2, 2)
            )
        dev = max(dev, float(np.max(np.abs(rebuilt - state.amplitudes))))
        # branch weights equal the joint memory marginal diagonal
        joint = analysis.register_marginal(
            state, {f"M{k}" for k in range(1, n + 1)}
        )
        diag = np.real(np.diag(joint))
        for label, p in table.probabilities().items():
            dev = max(dev, abs(p - diag[int(label, 2)]))
    return dev, _TOL


def _check_norm_preservation(rng):
    dev = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        scenario = random_extended_scenario(rng, n)
        state = initialize(scenario.init, build_layout(0))
        dev = max(dev, abs(state.norm() - 1.0))
        for k, spec in enumerate(scenario.iterations, start=1):
            state = iterate_extended(state, k, spec)
            dev = max(dev, abs(state.norm() - 1.0))
    return dev, _TOL


def _check_extended_identity(rng):
    dev = 0.0
    for _ in range(20):
        scenario = random_canonical_scenario(rng, 1)
        state = initialize(scenario.init, build_layout(0))
        spec = scenario.iterations[0]
        plain = iterate(state, 1, spec)
        wrapped = iterate_extended(
            state, 1, replace(spec, r0=IDENTITY, r1=IDENTITY)
        )
        dev = max(dev, float(np.max(np.abs(plain.amplitudes - wrapped.amplitudes))))
    return dev, _TIGHT_TOL


def _check_measurement(rng):
    dev = 0.0
    for trial in range(20):
        scenario = random_extended_scenario(rng, int(rng.integers(1, 4)))
        state = machine.run(scenario)
        _, c0, p0 = measure_control(state, 0, force=0)
        _, c1, p1 = measure_control(state, 0, force=1)
        dev = max(dev, abs(p0 + p1 - 1.0))
        dev = max(dev, abs(np.vdot(c0.amplitudes, c1.amplitudes)))
        seed = int(rng.integers(0, 2**32))
        first = measure_control(state, seed)[0]
        second = measure_control(state, seed)[0]
        dev = max(dev, _bool_dev(first == second))
    return dev, _TOL


def _check_dilation_blocks(rng):
    """A canonical run's global unitary W is |0><0| (x) W_0 + |1><1| (x) W_1
    with unitary W_c, and that dilation gives the engine's run; an extended
    run, where P steers C, has nonzero off-diagonal C blocks."""
    dev = 0.0
    for trial in range(12):
        n = int(rng.integers(1, 5))  # at most 4 rounds: W has 4**(n + 3) entries
        extended = trial % 3 == 2
        draw = random_extended_scenario if extended else random_canonical_scenario
        scenario = draw(rng, n)
        layout = build_layout(n)
        w = np.eye(1 << layout.total_qubits, dtype=np.complex128)
        for k, spec in enumerate(scenario.iterations, start=1):
            w = iteration_matrix(layout, k, spec) @ w
        d = w.shape[0] // 2
        w0, w1 = w[:d, :d], w[d:, d:]
        off = max(np.max(np.abs(w[:d, d:])), np.max(np.abs(w[d:, :d])))
        if extended:
            dev = max(dev, _bool_dev(off > _TOL))
            continue
        dev = max(dev, _bool_dev(off == 0.0),
                  unitarity_deviation(w0), unitarity_deviation(w1))
        dilation = np.kron(_PROJ[0], w0) + np.kron(_PROJ[1], w1)
        engine = machine.run(scenario).amplitudes
        out = dilation @ initial_vector(scenario.init, n)
        dev = max(dev, float(np.max(np.abs(out - engine))))
    return dev, _TOL


def _check_canonical_branch_support(rng):
    dev = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        scenario = random_canonical_scenario(rng, n)
        probs = analysis.branch_decompose(machine.run(scenario)).probabilities()
        dev = max(dev, _bool_dev(set(probs) <= {"0" * n, "1" * n}))
        dev = max(dev, abs(probs.get("0" * n, 0.0) - abs(scenario.init.alpha) ** 2))
        dev = max(dev, abs(probs.get("1" * n, 0.0) - abs(scenario.init.beta) ** 2))
    return dev, _TOL


CHECKS: dict[str, Callable] = {
    "golden_pauli_flips": _check_golden_pauli_flips,
    "golden_reinforce_two_step": _check_golden_reinforce_two_step,
    "golden_rotations_feedback": _check_golden_rotations_feedback,
    "golden_rotations_nofeedback": _check_golden_rotations_nofeedback,
    "oracle_equivalence": _check_oracle_equivalence,
    "property_branch_conservation": _check_branch_conservation,
    "property_canonical_branch_support": _check_canonical_branch_support,
    "property_dilation_blocks": _check_dilation_blocks,
    "property_extended_identity": _check_extended_identity,
    "property_marginal_diagonality": _check_marginal_diagonality,
    "property_measurement": _check_measurement,
    "property_no_cloning": _check_no_cloning,
    "property_norm_preservation": _check_norm_preservation,
    "property_phase_blindness": _check_phase_blindness,
    "property_symbolic_expansion": _check_symbolic_expansion,
}

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
    results = []
    for name in selected:
        # fresh generator per check: draws are independent of suite filtering
        rng = seeded_generator(seed)
        deviation, tolerance = CHECKS[name](rng)
        results.append(
            CheckResult(name, passed=deviation <= tolerance,
                        deviation=float(deviation), tolerance=float(tolerance))
        )
    return results
