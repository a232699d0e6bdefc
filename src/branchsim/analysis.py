"""Post-run analysis: branch decomposition, marginals, separability.

Branches are labeled by the concatenated memory bit string; projecting
onto a string and renormalizing yields the branch's pure substate over
the remaining (control, system, policy) registers.  A state stores one
row per populated memory string, so the decomposition hands its rows on
as arrays: row i, the memory string as an integer, with the i-th Born
weight and normalized substate.  No label is built; ``entries`` and the
report writer spell the rows out in binary when asked.

A marginal is the validated reduced density matrix itself.  For one
memory slot it is 2x2: its diagonal gives the branch weights, and its
off-diagonal entry shows whether the record kept the control's
coherence.

The no-cloning witness has one rule, for pure and mixed pairs alike: a
pair is correlated iff its fidelity with its marginals' product is below PURITY_ONE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, ValidationError
from .linalg import purity, validate_density_matrix
from .machine import StateVector, check_normalized, partial_trace

# Branch entries below this weight are floating-point dust and omitted.
PRUNE_THRESHOLD = 1e-12

# A purity or product fidelity at or above this counts as one (pure / product).
PURITY_ONE = 1.0 - 1e-9


@dataclass(frozen=True, eq=False)
class BranchTable:
    """Populated branches, one per row: ``rows`` holds each branch's memory
    string as an integer, and its label is that string in ``n_memories``
    binary digits (``entries``, built on demand)."""

    n_memories: int
    rows: np.ndarray  # (r,) int64, ascending
    weights: np.ndarray  # (r,) Born weights
    substates: np.ndarray  # (r, 8) normalized, over (C, S, P) in ket order

    @property
    def entries(self) -> tuple[str, ...]:
        label = f"0{self.n_memories}b"
        return tuple(format(row, label) for row in self.rows.tolist())

    def probabilities(self) -> dict[str, float]:
        return dict(zip(self.entries, self.weights.tolist()))

    def weight_sum(self) -> float:
        """The weights added left to right, as a plain loop does: ``sum()``
        compensates from Python 3.12, so its last digits vary by version."""
        return float(np.add.accumulate(self.weights)[-1])


def branch_decompose(state: StateVector) -> BranchTable:
    """Probability and normalized substate for every populated memory string."""
    layout = state.layout
    if layout.n_memories == 0:
        raise LayoutError("state has no memory slots to decompose over")
    # (S, P) sums within each C half first: the dense vector's summation order
    weights = np.sum(np.sum(np.abs(state.residual) ** 2, axis=(2, 3)), axis=1)
    keep = weights > PRUNE_THRESHOLD
    probs = weights[keep]
    subs = state.residual[keep].reshape(-1, 8)  # a copy: divided in place
    subs /= np.sqrt(probs)[:, None]
    check_normalized(subs)
    rows = state.rows[keep]  # sorted, as the state's rows are
    for a in (rows, probs, subs):
        a.flags.writeable = False
    return BranchTable(layout.n_memories, rows, probs, subs)


def memory_marginal(state: StateVector, k: int) -> np.ndarray:
    """Reduced 2x2 density matrix of memory slot k; ``LayoutError`` if absent."""
    return register_marginal(state, {f"M{k}"})


def register_marginal(state: StateVector, regs) -> np.ndarray:
    """Reduced density matrix over ``regs``, ordered by layout position."""
    return validate_density_matrix(partial_trace(state, regs))


def outcome_probability(state: StateVector, register: str, outcome: int) -> float:
    """Born probability of reading ``outcome`` on a single register."""
    return state.probability(register, outcome)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, through
    the matrix root of ``rho`` for pure and mixed arguments alike."""
    rho = np.asarray(rho, dtype=np.complex128)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if rho.shape != sigma.shape:
        raise ValidationError(f"fidelity shape mismatch: {rho.shape} vs {sigma.shape}")
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(_eigen_floor(w))) @ v.conj().T
    inner = np.linalg.eigvalsh(root @ sigma @ root)
    return float(np.sum(np.sqrt(_eigen_floor(inner))) ** 2)


def _eigen_floor(w: np.ndarray) -> np.ndarray:
    """Eigenvalues with rounding noise (<= dim * eps * max) set to zero.

    A rank-deficient matrix carries its zero eigenvalues as +-1e-17 noise;
    their square roots (~3e-9) would otherwise reach the fidelity.
    """
    floor = w.size * np.finfo(np.float64).eps * max(float(np.max(w)), 0.0)
    return np.where(w <= floor, 0.0, w)


def no_cloning_witness(state: StateVector, a: str, b: str) -> tuple[bool, float]:
    """Whether two registers are correlated rather than a product, for a pure
    or mixed pair alike: iff their fidelity with the product of their own
    marginals is below ``PURITY_ONE``.  Returns (entangled, that fidelity)."""
    if a == b:
        raise LayoutError(f"witness needs two distinct registers, got {a!r} twice")
    rho_pair = register_marginal(state, (a, b))
    r4 = rho_pair.reshape(2, 2, 2, 2)  # (ket_a, ket_b, bra_a, bra_b)
    product = np.kron(np.einsum("ijkj->ik", r4), np.einsum("ijik->jk", r4))
    product_fidelity = min(fidelity(rho_pair, product), 1.0)
    return product_fidelity < PURITY_ONE, product_fidelity


def separability_check(state: StateVector, register: str) -> tuple[bool, float]:
    """A register factors out of the global pure state iff its marginal is pure."""
    p = purity(register_marginal(state, (register,)))
    return p >= PURITY_ONE, p
