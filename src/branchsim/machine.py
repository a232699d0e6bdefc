"""Register layout, state vector, and the iterated update engine.

Basis convention: amplitude index ``i`` reads as a bit string with the
control register in the most significant bit, then one bit per memory
slot in iteration order, then system, then policy.  ``format(i, "0Nb")``
therefore prints a basis label in register order, so state dumps look
exactly like ket strings.

Every register is addressed one way: as an axis of the amplitude vector
viewed as a ``[2] * n`` tensor, axis ``layout.position(name)``.  Gate
application never materializes a global unitary: a controlled gate fixes
the control axis and updates the target axis's two slices of that view
in place.  The explicit Kronecker-built unitary exists only in the
verification oracle.

``run`` grows the state as the paper's machine does: it starts with no
memory slots, and before round k it appends a fresh M_k in |0> as a new
axis, so a round never touches amplitudes of slots that do not exist
yet.  The final state is exactly the one the full layout would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    CapacityError,
    LayoutError,
    ModeError,
    ProjectionError,
    ShapeError,
    ValidationError,
)
from .gates import IDENTITY, PAULI_X, GateSpec
from .linalg import DEFAULT_TOLERANCES, QUBIT_CAP, as_matrix, check_unitary

if TYPE_CHECKING:
    from .scenario import Scenario

MAX_ITERATIONS = QUBIT_CAP - 3  # control + system + policy occupy three qubits

# Forced outcomes below this Born weight cannot be renormalized meaningfully.
PROJECTION_FLOOR = 1e-12

INIT_MODES = ("uncorrelated", "correlated_c_to_p", "copy_c_to_p_from_zero")


@dataclass(frozen=True)
class RegisterLayout:
    """Bit positions (0 = most significant) for the named registers."""

    control: int
    memories: tuple[int, ...]
    system: int
    policy: int
    total_qubits: int

    def __post_init__(self):
        positions = (self.control, *self.memories, self.system, self.policy)
        if len(set(positions)) != len(positions):
            raise LayoutError("register positions must be distinct")
        if any(p < 0 or p >= self.total_qubits for p in positions):
            raise LayoutError("register position outside the layout")
        if self.total_qubits != 3 + len(self.memories):
            raise LayoutError("total_qubits must equal 3 + memory slots")
        if list(positions) != sorted(positions):
            raise LayoutError(
                "registers must run C, M1..Mn, S, P from the most significant bit"
            )

    @property
    def n_memories(self) -> int:
        return len(self.memories)

    def register_names(self) -> tuple[str, ...]:
        mems = tuple(f"M{k}" for k in range(1, self.n_memories + 1))
        return ("C", *mems, "S", "P")

    def position(self, name: str) -> int:
        if name == "C":
            return self.control
        if name == "S":
            return self.system
        if name == "P":
            return self.policy
        if name.startswith("M") and name[1:].isdigit():
            k = int(name[1:])
            if 1 <= k <= self.n_memories:
                return self.memories[k - 1]
        raise LayoutError(f"unknown register id {name!r}")


def build_layout(n_iterations: int) -> RegisterLayout:
    """Layout with one fresh memory slot per iteration, in ket order."""
    if n_iterations < 0 or n_iterations > MAX_ITERATIONS:
        raise CapacityError(
            f"{n_iterations} iterations needs {n_iterations + 3} qubits; "
            f"cap is {QUBIT_CAP}"
        )
    n = n_iterations
    return RegisterLayout(
        control=0,
        memories=tuple(range(1, n + 1)),
        system=n + 1,
        policy=n + 2,
        total_qubits=n + 3,
    )


@dataclass(frozen=True)
class StateVector:
    """Normalized global pure state over a register layout.

    ``consumed_slots`` records which memory slots have been used by
    iterations; the engine refuses to run an iteration against a slot
    that has already been consumed.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray
    consumed_slots: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        dim = 1 << self.layout.total_qubits
        if amps.shape != (dim,):
            raise ShapeError(f"expected {dim} amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValidationError("state contains non-finite amplitudes")
        dev = abs(self.norm() - 1.0)
        if dev > DEFAULT_TOLERANCES.norm:
            raise ValidationError(f"state norm deviates from 1 by {dev:.3e}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability(self, register: str, outcome: int) -> float:
        """Born weight of ``register`` reading ``outcome``."""
        if outcome not in (0, 1):
            raise ValidationError(f"outcome must be 0 or 1, got {outcome}")
        n = self.layout.total_qubits
        psi = self.amplitudes.reshape([2] * n)
        sel = _axis_slice(n, {self.layout.position(register): outcome})
        return float(np.sum(np.abs(psi[sel]) ** 2))


@dataclass(frozen=True)
class IterationSpec:
    """Per-iteration gate choices.

    ``u`` acts on the system under control of C; ``f`` is policy-controlled
    feedback on the system; ``v`` is the memory-controlled policy update.
    The optional ``r`` pair (policy-controlled steering of C) switches the
    iteration into extended mode; both entries must be given together.
    """

    u0: GateSpec = IDENTITY
    u1: GateSpec = IDENTITY
    f0: GateSpec = IDENTITY
    f1: GateSpec = IDENTITY
    v0: GateSpec = IDENTITY
    v1: GateSpec = IDENTITY
    r0: GateSpec | None = None
    r1: GateSpec | None = None

    def __post_init__(self):
        if (self.r0 is None) != (self.r1 is None):
            raise ValidationError("r0 and r1 must be both present or both absent")

    @property
    def extended(self) -> bool:
        return self.r0 is not None


def _norm_sq(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2, or inf where a finite amplitude's square overflows."""
    try:
        return abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class InitSpec:
    """Initial amplitudes for control and policy, plus the wiring mode.

    ``copy_c_to_p_from_zero`` is the special case of the C->P CNOT wiring
    where the policy starts in |0>, so P ends as a plain copy of the
    control's basis label; it therefore requires gamma = 1, delta = 0.
    """

    alpha: complex
    beta: complex
    gamma: complex = 1.0
    delta: complex = 0.0
    mode: str = "uncorrelated"
    system_init: GateSpec = IDENTITY

    def __post_init__(self):
        for label, value in (
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("gamma", self.gamma),
            ("delta", self.delta),
        ):
            z = complex(value)
            object.__setattr__(self, label, z)
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise ValidationError(f"{label} must be finite")
        tol = DEFAULT_TOLERANCES.norm
        c_norm = _norm_sq(self.alpha, self.beta)
        if abs(c_norm - 1.0) > tol:
            raise ValidationError(f"|alpha|^2 + |beta|^2 = {c_norm!r}, expected 1")
        p_norm = _norm_sq(self.gamma, self.delta)
        if abs(p_norm - 1.0) > tol:
            raise ValidationError(f"|gamma|^2 + |delta|^2 = {p_norm!r}, expected 1")
        if self.mode not in INIT_MODES:
            raise ValidationError(f"unknown init mode {self.mode!r}")
        if self.mode == "copy_c_to_p_from_zero":
            if abs(self.gamma - 1.0) > tol or abs(self.delta) > tol:
                raise ValidationError(
                    "copy_c_to_p_from_zero requires gamma = 1 and delta = 0"
                )


def _axis_slice(n_qubits: int, fixed: dict[int, int]) -> tuple:
    """Basic index of the ``[2] * n_qubits`` view fixing ``{axis: value}``."""
    return tuple(fixed.get(axis, slice(None)) for axis in range(n_qubits))


def _apply_gate(
    amps: np.ndarray,
    n_qubits: int,
    target_axis: int,
    gate: np.ndarray,
    control_axis: int,
    control_value: int,
) -> None:
    """In-place 2x2 update of the target axis where the control reads a value.

    Views ``amps`` as a ``[2] * n_qubits`` tensor; fixing the control axis
    to ``control_value`` and the target axis to 0 or 1 gives two basic
    slices that pair amplitudes differing only in the target bit.  Both
    slices are views, so the update writes straight into ``amps``, which
    must therefore be C-contiguous (a fresh copy or kron product is).
    """
    psi = amps.reshape([2] * n_qubits)
    lo = _axis_slice(n_qubits, {control_axis: control_value, target_axis: 0})
    hi = _axis_slice(n_qubits, {control_axis: control_value, target_axis: 1})
    a0, a1 = psi[lo], psi[hi]
    new0 = gate[0, 0] * a0 + gate[0, 1] * a1
    psi[hi] = gate[1, 0] * a0 + gate[1, 1] * a1
    psi[lo] = new0


def _controlled_update(
    amps: np.ndarray, layout: RegisterLayout, control: str, target: str,
    g0: GateSpec, g1: GateSpec,
) -> None:
    """Apply g0/g1 to ``target`` where ``control`` reads 0/1; skip identities."""
    for value, gate in ((0, g0), (1, g1)):
        if gate.is_identity:
            continue
        _apply_gate(
            amps, layout.total_qubits, layout.position(target), gate.matrix(),
            layout.position(control), value,
        )


def initialize(spec: InitSpec, layout: RegisterLayout) -> StateVector:
    """Product-state preparation followed by the optional C->P wiring."""
    vec_c = np.array([spec.alpha, spec.beta], dtype=np.complex128)
    vec_m = np.array([1, 0], dtype=np.complex128)
    vec_s = spec.system_init.matrix() @ np.array([1, 0], dtype=np.complex128)
    vec_p = np.array([spec.gamma, spec.delta], dtype=np.complex128)
    amps = vec_c
    for _ in range(layout.n_memories):
        amps = np.kron(amps, vec_m)
    amps = np.kron(np.kron(amps, vec_s), vec_p)
    if spec.mode in ("correlated_c_to_p", "copy_c_to_p_from_zero"):
        _controlled_update(amps, layout, "C", "P", IDENTITY, PAULI_X)
    return StateVector(layout, amps)


def apply_controlled(
    state: StateVector, control: str, target: str, g0: GateSpec, g1: GateSpec
) -> StateVector:
    """Apply g0/g1 to ``target`` on the control-bit-0/1 components."""
    if control == target:
        raise LayoutError(f"control and target are the same register {control!r}")
    state.layout.position(control)
    state.layout.position(target)
    amps = state.amplitudes.copy()
    _controlled_update(amps, state.layout, control, target, g0, g1)
    return StateVector(state.layout, amps, state.consumed_slots)


def write_memory(state: StateVector, k: int) -> StateVector:
    """CNOT from the control into memory slot k (the coherent branch record)."""
    layout = state.layout
    if k < 1 or k > layout.n_memories:
        raise LayoutError(f"memory slot M{k} not in layout (1..{layout.n_memories})")
    amps = state.amplitudes.copy()
    _controlled_update(amps, layout, "C", f"M{k}", IDENTITY, PAULI_X)
    return StateVector(layout, amps, state.consumed_slots)


def _iteration_core(state: StateVector, k: int, spec: IterationSpec) -> np.ndarray:
    layout = state.layout
    if k < 1 or k > layout.n_memories:
        raise LayoutError(f"memory slot M{k} not in layout (1..{layout.n_memories})")
    if k in state.consumed_slots:
        raise ValidationError(f"memory slot M{k} was already consumed by an iteration")
    amps = state.amplitudes.copy()
    # Order is load-bearing: feedback must see the policy state *before*
    # this round's policy update.
    _controlled_update(amps, layout, "C", "S", spec.u0, spec.u1)
    _controlled_update(amps, layout, "C", f"M{k}", IDENTITY, PAULI_X)
    _controlled_update(amps, layout, "P", "S", spec.f0, spec.f1)
    _controlled_update(amps, layout, f"M{k}", "P", spec.v0, spec.v1)
    return amps


def iterate(state: StateVector, k: int, spec: IterationSpec) -> StateVector:
    """One canonical round: controlled-U, memory write, feedback, update."""
    if spec.extended:
        raise ModeError("spec carries an r pair; use iterate_extended")
    amps = _iteration_core(state, k, spec)
    return StateVector(state.layout, amps, state.consumed_slots | {k})


def iterate_extended(state: StateVector, k: int, spec: IterationSpec) -> StateVector:
    """Canonical round followed by policy-controlled steering of the control."""
    if not spec.extended:
        raise ModeError("spec has no r pair; use iterate for canonical rounds")
    amps = _iteration_core(state, k, spec)
    _controlled_update(amps, state.layout, "P", "C", spec.r0, spec.r1)
    return StateVector(state.layout, amps, state.consumed_slots | {k})


def _append_slot(state: StateVector) -> StateVector:
    """The same state with one more memory slot, M_{n+1}, in |0>.

    The new axis sits just before S, so in the ``(2 << n, 2, 4)`` view of
    the grown amplitudes (C and M1..Mn, the new slot, then S and P) the
    old amplitudes fill the new-slot-0 plane and the rest stays zero.
    """
    n = state.layout.n_memories
    amps = np.zeros(2 << state.layout.total_qubits, dtype=np.complex128)
    amps.reshape(2 << n, 2, 4)[:, 0, :] = state.amplitudes.reshape(2 << n, 4)
    return StateVector(build_layout(n + 1), amps, state.consumed_slots)


def run(scenario: "Scenario") -> StateVector:
    """Initialize with no memory, then per round add slot M_k and run it.

    Growing the layout one slot per round gives exactly the amplitudes of
    folding every round over the full ``build_layout(n)`` state, whose
    untouched slots would still read |0>, at a fraction of the work.
    """
    state = initialize(scenario.init, build_layout(0))
    for k, spec in enumerate(scenario.iterations, start=1):
        step = iterate_extended if spec.extended else iterate
        state = _append_slot(state)
        state = step(state, k, spec)
    return state


def seeded_generator(seed: int) -> np.random.Generator:
    """Counter-based Philox generator keyed on a non-negative integer seed."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def measure_control(
    state: StateVector, rng_seed: int, force: int | None = None
) -> tuple[int, StateVector, float]:
    """Projective measurement of the control register.

    The outcome is drawn with Born probabilities from a counter-based
    Philox generator keyed on ``rng_seed`` (same seed, same outcome), or
    fixed via ``force``.  Returns (outcome, collapsed state, Born weight
    of the outcome before measurement).
    """
    p1 = state.probability("C", 1)
    p0 = state.probability("C", 0)
    if force is None:
        rng = seeded_generator(rng_seed)
        outcome = 1 if rng.random() < p1 else 0
    else:
        if force not in (0, 1):
            raise ValidationError(f"forced outcome must be 0 or 1, got {force}")
        outcome = force
    prob = (p0, p1)[outcome]
    if prob < PROJECTION_FLOOR:
        raise ProjectionError(
            f"outcome {outcome} has probability {prob:.3e}; cannot project"
        )
    n = state.layout.total_qubits
    amps = state.amplitudes.copy()
    other = _axis_slice(n, {state.layout.position("C"): 1 - outcome})
    amps.reshape([2] * n)[other] = 0.0
    amps /= np.sqrt(prob)
    return outcome, StateVector(state.layout, amps, state.consumed_slots), prob


def build_controlled_dilation(u0, u1, env_dims: Sequence[int]) -> np.ndarray:
    """Block-diagonal unitary |0><0| (x) u0 + |1><1| (x) u1.

    u0 and u1 act on system (x) environment, where the environment factor
    dimensions are ``env_dims``; the environment stays part of the global
    state rather than being traced out.
    """
    u0, u1 = as_matrix(u0), as_matrix(u1)
    env = 1
    for d in env_dims:
        if int(d) < 1:
            raise ShapeError(f"environment dimension must be >= 1, got {d}")
        env *= int(d)
    expected = 2 * env
    if u0.shape != u1.shape or u0.shape[0] != expected:
        raise ShapeError(
            f"dilation blocks must be {expected}x{expected} "
            f"(2 x prod{tuple(env_dims)}), got {u0.shape} and {u1.shape}"
        )
    if 2 * expected > (1 << QUBIT_CAP):
        raise CapacityError(f"dilation dimension {2 * expected} exceeds the cap")
    for name, u in (("u0", u0), ("u1", u1)):
        if not check_unitary(u):
            raise ValidationError(f"dilation block {name} is not unitary")
    out = np.zeros((2 * expected, 2 * expected), dtype=np.complex128)
    out[:expected, :expected] = u0
    out[expected:, expected:] = u1
    return out
