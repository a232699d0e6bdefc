"""Register layout, state vector, and the iterated update engine.

Basis convention: amplitude index ``i`` reads as a bit string with the
control register in the most significant bit, then one bit per memory
slot in iteration order, then system, then policy.  ``format(i, "0Nb")``
therefore prints a basis label in register order, so state dumps look
exactly like ket strings.

State layout (a branch table).  Memory registers are only ever CNOT
targets of the control or controls themselves, so a state is stored as
the sorted ``int64`` array ``rows`` of its populated memory strings (M1
the most significant bit of each label) and an ``(len(rows), 2, 2, 2)``
complex ``residual`` over (C, S, P): ``residual[i, c, s, p]`` is the
amplitude of ``|c, rows[i], s, p>``.  A memory string whose amplitudes
are all exactly zero has no row, so a canonical run holds two rows
(0^k and 1^k) however many rounds it has.  A gate pair (g0 where the
control reads 0, g1 where it reads 1) is one update of the residual,
never a global unitary (the explicit Kronecker-built unitary exists only
in the verification oracle).  There are two kinds:

- a pair onto C, S or P updates one residual axis: both halves at once,
  with the 2x2 gate of each amplitude's control bit, which a memory
  control reads from each row's label;
- the only gate onto a memory is its write, the CNOT from C into a slot
  that neither it nor any later slot has taken yet: it splits each row
  into the child with the bit clear, which keeps the row's C=0 half,
  and the child with the bit set, which keeps its C=1 half.

A round reads its gates only from ``IterationSpec.gates``, its row of
the scenario's read-only ``(rounds, 8, 2, 2)`` gate array: each pair is a
``(2, 2, 2)`` view of that row, and a step's broadcast coefficients are
a view of the pair where C, S or P controls (a memory control gathers
each row's gate).  Every pair is applied, identities included, so a
state depends only on the gate matrices, never on how a gate was
written.  A round is one ``_controlled_update`` call, which applies its
steps in order to one rows-last ``(C, S, P, row)`` copy of the residual,
so each pair's arithmetic runs along the rows, and drops the rows left
exactly zero; ``apply_controlled`` stacks its two ``GateSpec``s'
matrices into a pair for C, S or P and makes the same call, and
``write_memory`` makes it with the write alone.  A round appends M_k in
|0> by shifting every row label left by one bit, and its five gates
(controlled-U, memory write, feedback, policy update, steering) run on
no other slot, so no memory record is ever written twice.
``partial_trace`` groups the rows on the kept memories' bits, so a
marginal costs the populated rows, never 2**n.

``RegisterLayout`` holds the size rule: a layout of more memory slots
than ``MAX_ITERATIONS`` (17 slots, 20 qubits) raises ``CapacityError``
when it is made, so no state of this module can pass the 2**20 cap.
``StateVector.amplitudes`` is the dense ``2**total_qubits`` vector.  It
is built on first use and cached (16 bytes per basis state, 16 MiB at
the cap), for the verification oracle and the tests; ``run`` and the
report never build it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CapacityError,
    LayoutError,
    ProjectionError,
    ShapeError,
    ValidationError,
)
from .gates import IDENTITY, GateSpec
from .linalg import NORM_TOL, QUBIT_CAP, check_capacity

if TYPE_CHECKING:
    from .scenario import Scenario

MAX_ITERATIONS = QUBIT_CAP - 3  # control + system + policy occupy three qubits

# Forced outcomes below this Born weight cannot be renormalized meaningfully.
PROJECTION_FLOOR = 1e-12

INIT_MODES = ("uncorrelated", "correlated_c_to_p", "copy_c_to_p_from_zero")


_POSITIONS = tuple(  # {register id: position} of each slot count, in ket order
    {r: i for i, r in enumerate(("C", *(f"M{k}" for k in range(1, n + 1)), "S", "P"))}
    for n in range(MAX_ITERATIONS + 1))


@dataclass(frozen=True)
class RegisterLayout:
    """Registers C, M1..Mn, S, P at bit positions 0..n+2 (0 = most significant).

    A register id is a name that ``register_names()`` lists, and its
    position is its index there."""

    n_memories: int

    def __post_init__(self):
        if not 0 <= self.n_memories <= MAX_ITERATIONS:
            raise CapacityError(f"{self.n_memories} iterations needs "
                                f"{self.n_memories + 3} qubits; cap is {QUBIT_CAP}")

    @property
    def total_qubits(self) -> int:
        return self.n_memories + 3

    def register_names(self) -> tuple[str, ...]:
        return tuple(_POSITIONS[self.n_memories])

    def position(self, name: str) -> int:
        """The index of ``name`` in ``register_names()``; ``LayoutError`` if unlisted."""
        try:
            return _POSITIONS[self.n_memories][name]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise LayoutError(f"unknown register id {name!r}") from None


def build_layout(n_iterations: int) -> RegisterLayout:
    """Layout with one fresh memory slot per iteration, in ket order."""
    return RegisterLayout(n_iterations)


# Axis of each non-memory register in the (rows, C, S, P) residual.
_RESIDUAL_AXIS = {"C": 1, "S": 2, "P": 3}


def check_normalized(blocks: np.ndarray) -> None:
    """Raise unless every row of the 2-D complex ``blocks`` is finite with unit norm."""
    f = np.ascontiguousarray(blocks).view(np.float64)
    dev = np.abs(np.sqrt(np.einsum("ij,ij->i", f, f)) - 1.0)
    if dev.size and not dev.max() <= NORM_TOL:  # a nan or inf row fails this too
        if not np.isfinite(blocks).all():
            raise ValidationError("state contains non-finite amplitudes")
        raise ValidationError(f"state norm deviates from 1 by {dev.max():.3e}")


class StateVector:
    """Normalized global pure state over a register layout, as a branch table.

    Build it from a dense vector, ``StateVector(layout, amplitudes)``, or
    from ``rows=`` and ``residual=`` (see the module docstring); either
    way the state is checked once for finiteness and unit norm, and its
    arrays are read-only.
    """

    __slots__ = ("layout", "rows", "residual", "_dense")

    def __init__(
        self, layout: RegisterLayout, amplitudes=None, *, rows=None, residual=None
    ):
        if amplitudes is not None and rows is None and residual is None:
            rows, residual = _rows_of_dense(layout, amplitudes)
        elif amplitudes is not None or rows is None or residual is None:
            raise ValidationError("give either amplitudes, or rows and residual")
        rows = np.asarray(rows, dtype=np.int64).view()
        residual = np.asarray(residual, dtype=np.complex128).view()
        if rows.ndim != 1 or residual.shape != (rows.size, 2, 2, 2):
            raise ShapeError(
                f"expected rows (r,) and residual (r, 2, 2, 2), got "
                f"{rows.shape} and {residual.shape}"
            )
        if rows.size and (
            rows[0] < 0
            or rows[-1] >= 1 << layout.n_memories
            or (rows[1:] <= rows[:-1]).any()
        ):
            raise ShapeError("rows must be distinct sorted memory strings of the layout")
        check_normalized(residual.reshape(1, -1))
        rows.flags.writeable = False
        residual.flags.writeable = False
        self.layout = layout
        self.rows = rows
        self.residual = residual
        self._dense = None

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense, read-only amplitude vector, built on first use."""
        if self._dense is None:
            self._dense = _dense_view(self.layout, self.rows, self.residual)
        return self._dense

    def norm(self) -> float:
        return float(np.linalg.norm(self.residual))

    def probability(self, register: str, outcome: int) -> float:
        """Born weight of ``register`` reading ``outcome``."""
        if outcome not in (0, 1):
            raise ValidationError(f"outcome must be 0 or 1, got {outcome}")
        self.layout.position(register)
        if register in _RESIDUAL_AXIS:
            part = self.residual.take(outcome, axis=_RESIDUAL_AXIS[register])
        else:
            bit = _memory_bit(self.layout, register)
            part = self.residual[((self.rows & bit) != 0) == bool(outcome)]
        return float(np.sum(np.abs(part) ** 2))


def _rows_of_dense(layout: RegisterLayout, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Populated rows and their residuals of a dense amplitude vector."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    dim = 1 << layout.total_qubits
    if amps.shape != (dim,):
        raise ShapeError(f"expected {dim} amplitudes, got shape {amps.shape}")
    table = amps.reshape(2, -1, 4).transpose(1, 0, 2)  # (memory string, C, S and P)
    rows = np.flatnonzero(np.any(table != 0, axis=(1, 2)))
    return rows, table[rows].reshape(-1, 2, 2, 2)


def _dense_view(layout: RegisterLayout, rows: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Read-only dense vector of a branch table; zero off its rows."""
    dense = np.zeros((2, 1 << layout.n_memories, 4), dtype=np.complex128)
    dense[:, rows, :] = residual.reshape(-1, 2, 4).transpose(1, 0, 2)
    flat = dense.reshape(-1)
    flat.flags.writeable = False
    return flat


SLOTS = ("u0", "u1", "f0", "f1", "v0", "v1", "r0", "r1")
_RAW = (None,) * len(SLOTS)


def check_steering(r0, r1) -> None:
    """Raise unless the r pair is both present or both absent."""
    if (r0 is None) != (r1 is None):
        raise ValidationError("r0 and r1 must be both present or both absent")


class IterationSpec:
    """Per-iteration gate choices.

    ``u`` acts on the system under control of C; ``f`` is policy-controlled
    feedback on the system; ``v`` is the memory-controlled policy update.
    The optional ``r`` pair (policy-controlled steering of C) switches the
    iteration into extended mode; both entries must be given together.

    ``gates`` is the round's read-only ``(8, 2, 2)`` array of slots
    ``SLOTS``, the identity in an omitted slot; a parsed or drawn scenario's
    rounds are the rows of one ``(rounds, 8, 2, 2)`` array.  It is the only
    form the engine reads.  ``written`` holds each slot's ``GateSpec`` as
    written, or None for a raw gate, whose numbers are only in ``gates``,
    and for an absent r; it serves emission and equality.  The read-back
    ``spec.u0`` ... ``spec.r1`` gives a slot as a ``GateSpec`` (a raw one
    rebuilt and re-checked from ``gates`` on each read), or None for an
    absent r; it serves ``replace``, ``repr`` and the benchmark's tracer.
    """

    __slots__ = ("gates", "written", "extended")

    def __init__(self, u0=IDENTITY, u1=IDENTITY, f0=IDENTITY, f1=IDENTITY,
                 v0=IDENTITY, v1=IDENTITY, r0=None, r1=None):
        check_steering(r0, r1)
        given = (u0, u1, f0, f1, v0, v1, r0, r1)
        gates = np.array([(g or IDENTITY).matrix() for g in given])
        gates.flags.writeable = False
        self.gates, self.extended = gates, r0 is not None
        self.written = tuple(None if g and g.kind == "raw" else g for g in given)

    @classmethod
    def of_gates(cls, gates: np.ndarray, extended: bool, written=_RAW) -> "IterationSpec":
        """A round reading ``gates``, a read-only ``(8, 2, 2)`` array whose raw
        gates are already checked; every slot is raw unless ``written``."""
        spec = object.__new__(cls)
        spec.gates, spec.extended, spec.written = gates, extended, written
        return spec

    def _gate(self, j: int) -> GateSpec | None:
        if self.written[j] is not None or (j >= 6 and not self.extended):
            return self.written[j]
        (a, b), (c, d) = self.gates[j].tolist()
        return GateSpec("raw", raw=((a, b), (c, d)))

    u0, u1, f0, f1, v0, v1, r0, r1 = (property(lambda self, j=j: self._gate(j))
                                      for j in range(len(SLOTS)))

    def replace(self, **gates) -> "IterationSpec":
        """This round with the given slots' gates replaced."""
        return IterationSpec(**{**{name: getattr(self, name) for name in SLOTS}, **gates})

    def __eq__(self, other):
        if not isinstance(other, IterationSpec):
            return NotImplemented
        return (self.extended == other.extended and self.written == other.written
                and np.array_equal(self.gates, other.gates))

    def __repr__(self) -> str:
        slots = ", ".join(f"{name}={getattr(self, name)!r}" for name in SLOTS)
        return f"IterationSpec({slots})"


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
        c_norm = _norm_sq(self.alpha, self.beta)
        if abs(c_norm - 1.0) > NORM_TOL:
            raise ValidationError(f"|alpha|^2 + |beta|^2 = {c_norm!r}, expected 1")
        p_norm = _norm_sq(self.gamma, self.delta)
        if abs(p_norm - 1.0) > NORM_TOL:
            raise ValidationError(f"|gamma|^2 + |delta|^2 = {p_norm!r}, expected 1")
        if self.mode not in INIT_MODES:
            raise ValidationError(f"unknown init mode {self.mode!r}")
        if self.mode == "copy_c_to_p_from_zero":
            if abs(self.gamma - 1.0) > NORM_TOL or abs(self.delta) > NORM_TOL:
                raise ValidationError(
                    "copy_c_to_p_from_zero requires gamma = 1 and delta = 0"
                )


def _memory_bit(layout: RegisterLayout, memory: str) -> int:
    """The bit of memory register ``memory`` in a row label (M1 the highest)."""
    return 1 << (layout.n_memories - layout.position(memory))


def _controlled_update(
    rows: np.ndarray, residual: np.ndarray, layout: RegisterLayout, steps
) -> tuple[np.ndarray, np.ndarray]:
    """Apply each ``(control, target, pair)`` step in order.

    A step applies ``pair[0]``/``pair[1]`` to ``target`` where ``control``
    reads 0/1, on one rows-last ``(C, S, P, row)`` copy of the residual.
    The pair is one broadcast update, ``pair[control bit, out, 0] * lo +
    pair[..., 1] * hi`` with ``lo``/``hi`` the target bit's halves, written
    into two buffers that the steps reuse; an identity pair is applied like
    any other.  A memory takes only its write, the step ``("C", memory,
    None)``, before any write to it or to a later slot (else ``LayoutError``).
    Rows left exactly zero are dropped.  The inputs are not modified.
    """
    block = residual.transpose(1, 2, 3, 0).copy()  # a copy: never a view of the input
    out = tmp = None
    for control, target, pair in steps:
        if target in _RESIDUAL_AXIS:
            # (C, S, P, row, in): the gate of each element's control bit, at
            # its output row; a view of the pair where C, S or P controls
            t = _RESIDUAL_AXIS[target] - 1
            shape = [1, 1, 1, 1, 2]
            shape[t] = 2
            if control in _RESIDUAL_AXIS:
                c = _RESIDUAL_AXIS[control] - 1
                shape[c] = 2
                coef = (pair if c < t else pair.transpose(1, 0, 2)).reshape(shape)
            else:
                shape[3] = rows.size
                bit = ((rows & _memory_bit(layout, control)) != 0).view(np.uint8)
                coef = pair[bit].transpose(1, 0, 2).reshape(shape)
            if out is None:
                out, tmp = np.empty_like(block), np.empty_like(block)
            half = (slice(None),) * t
            np.multiply(coef[..., 0], block[half + (slice(0, 1),)], out=out)
            np.multiply(coef[..., 1], block[half + (slice(1, 2),)], out=tmp)
            block, out = np.add(out, tmp, out=out), block
            continue
        bit = _memory_bit(layout, target)
        if (rows & (2 * bit - 1)).any():
            raise LayoutError(f"memory {target} takes only its write: a CNOT from C "
                              f"before any write to it or to a later slot")
        out = tmp = None  # free the buffers before the split allocates
        split = np.zeros((2, 2, 2, rows.size, 2), dtype=np.complex128)
        split[0, ..., 0], split[1, ..., 1] = block[0], block[1]
        rows = (rows[:, None] | np.array([0, bit])).reshape(-1)
        block = split.reshape(2, 2, 2, -1)
    del out, tmp  # free the buffers before the transpose copies the block
    residual = block.transpose(3, 0, 1, 2)
    keep = (residual != 0).any(axis=(1, 2, 3))
    if not keep.all():
        rows, residual = rows[keep], residual[keep]
    return rows, np.ascontiguousarray(residual)


def initialize(spec: InitSpec, layout: RegisterLayout) -> StateVector:
    """Product-state preparation followed by the optional C->P wiring.

    Every memory slot starts in |0>, so the state is the single row 0.
    """
    vec_c = np.array([spec.alpha, spec.beta], dtype=np.complex128)
    vec_s = spec.system_init.matrix() @ np.array([1, 0], dtype=np.complex128)
    vec_p = np.array([spec.gamma, spec.delta], dtype=np.complex128)
    rows = np.zeros(1, dtype=np.int64)
    residual = np.multiply.outer(np.multiply.outer(vec_c, vec_s), vec_p)[None]
    if spec.mode in ("correlated_c_to_p", "copy_c_to_p_from_zero"):
        residual[0, 1] = residual[0, 1, :, ::-1].copy()  # CNOT C->P: flip P where C=1
    return StateVector(layout, rows=rows, residual=residual)


def apply_controlled(
    state: StateVector, control: str, target: str, g0: GateSpec, g1: GateSpec
) -> StateVector:
    """Apply g0/g1 to ``target`` on the control-bit-0/1 components.

    ``target`` is C, S or P: a memory takes only its write (``write_memory``
    or its round), so a listed memory target raises ``LayoutError``.
    """
    if control == target:
        raise LayoutError(f"control and target are the same register {control!r}")
    state.layout.position(control)
    state.layout.position(target)
    if target not in _RESIDUAL_AXIS:
        raise LayoutError(f"memory {target} takes only its write: use write_memory")
    pair = np.array((g0.matrix(), g1.matrix()))
    rows, residual = _controlled_update(state.rows, state.residual, state.layout,
                                        [(control, target, pair)])
    return StateVector(state.layout, rows=rows, residual=residual)


def write_memory(state: StateVector, k: int) -> StateVector:
    """CNOT from the control into memory slot k (the coherent branch record)."""
    rows, residual = _controlled_update(state.rows, state.residual, state.layout,
                                        [("C", f"M{k}", None)])
    return StateVector(state.layout, rows=rows, residual=residual)


def iterate(state: StateVector, k: int, spec: IterationSpec) -> StateVector:
    """Round k: append slot M_k to a layout ending at M_{k-1}, then use it.

    A canonical round is controlled-U, memory write, feedback and policy
    update; a spec with an r pair adds the steering of the control.  Its
    steps are one ``_controlled_update`` call: the write splits each row
    by C, and every other gate updates a residual axis.
    """
    n = state.layout.n_memories
    if k != n + 1:
        raise LayoutError(
            f"round {k} on {n} memory slots: only round {n + 1} appends the next slot"
        )
    layout, rows = build_layout(k), state.rows << 1  # M_k in |0>: a new lowest bit
    m, g = f"M{k}", spec.gates
    # Order is load-bearing: feedback must see the policy state *before*
    # this round's policy update.
    steps = [("C", "S", g[0:2]), ("C", m, None), ("P", "S", g[2:4]), (m, "P", g[4:6])]
    if spec.extended:
        steps.append(("P", "C", g[6:8]))
    rows, residual = _controlled_update(rows, state.residual, layout, steps)
    return StateVector(layout, rows=rows, residual=residual)


# The same function under a second name: ``run`` calls each round kind
# by its own name, so the benchmark's tracer can time the two apart.
iterate_extended = iterate


def run(scenario: "Scenario") -> StateVector:
    """Initialize with no memory, then let round k append and use slot M_k.

    Each round validates the state once.
    """
    state = initialize(scenario.init, build_layout(0))
    for k, spec in enumerate(scenario.iterations, start=1):
        step = iterate_extended if spec.extended else iterate
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
    keep = np.any(state.residual[:, outcome] != 0, axis=(1, 2))
    residual = state.residual[keep]  # rows the projection zeroes are dropped
    residual[:, 1 - outcome] = 0.0
    residual /= np.sqrt(prob)
    collapsed = StateVector(state.layout, rows=state.rows[keep], residual=residual)
    return outcome, collapsed, prob


def partial_trace(state: StateVector, keep) -> np.ndarray:
    """Reduced density matrix of a StateVector over ``keep`` registers.

    The registers are those of ``state.layout``, and the kept ones are
    ordered by their layout position regardless of the order of
    ``keep``; an id the layout does not list raises ``LayoutError``.
    Only the state's populated rows are read.  A result with more than
    2**QUBIT_CAP entries raises ``CapacityError`` before any allocation.
    """
    layout = state.layout
    names = layout.register_names()
    keep = {names[layout.position(r)] for r in keep}
    if not keep:
        raise LayoutError("keep set must be non-empty")
    check_capacity(4 ** len(keep), f"marginal over {len(keep)} registers")
    # rho = M M^dagger.  Grouping the rows on the kept memories' bits
    # leaves one label per traced memory string that occurs, in ascending
    # order, so with every row populated M is exactly the dense state's
    # kept-axes-first reshape.  The rows fill the block's axes ``axis``:
    # label, kept memories, C, S, P.  M's axes ``order`` are the kept
    # registers, then C if traced, the label, and S and P if traced: the
    # summation order of the matmul below, which the marginals' last bits
    # depend on.
    kept = [r for r in names if r in keep and r not in _RESIDUAL_AXIS]
    axis = {r: 1 + i for i, r in enumerate(kept)}
    axis.update((r, a + len(kept)) for r, a in _RESIDUAL_AXIS.items())
    order = [axis[r] for r in names if r in keep]
    order += ([] if "C" in keep else [axis["C"]]) + [0]
    order += [axis[r] for r in ("S", "P") if r not in keep]
    block = state.residual
    if kept:
        bits = [_memory_bit(layout, r) for r in kept]
        labels, group = np.unique(state.rows & ~sum(bits), return_inverse=True)
        shape = (labels.size,) + (2,) * (len(kept) + 3)
        # zero-filled in M's axis order, so that M is a view of it, not a copy
        block = np.zeros([shape[a] for a in order], dtype=np.complex128).transpose(
            sorted(range(len(order)), key=order.__getitem__))  # order's inverse
        index = [group] + [((state.rows & bit) != 0).astype(np.intp) for bit in bits]
        block[tuple(index)] = state.residual
    m = block.transpose(order).reshape(1 << len(keep), -1)
    return m @ m.conj().T
