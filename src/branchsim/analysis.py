"""Post-run analysis: branch decomposition, marginals, separability.

Branches are labeled by the concatenated memory bit string; projecting
onto a string and renormalizing yields the branch's pure substate over
the remaining (control, system, policy) registers.  A state stores one
row per populated memory string, so the decomposition reads its rows
and hands them on as arrays: a label's row indexes the Born weights and
the normalized substates.

A marginal is the validated reduced density matrix itself.  For one
memory slot it is 2x2: its diagonal gives the branch weights, and its
off-diagonal entry shows whether the record kept the control's
coherence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, ValidationError
from .linalg import purity, validate_density_matrix
from .machine import StateVector, check_normalized, partial_trace

# Branch entries below this weight are floating-point dust and omitted.
PRUNE_THRESHOLD = 1e-12

# Marginal purity at or above this counts as pure / separable.
PURITY_ONE = 1.0 - 1e-9


@dataclass(frozen=True)
class BranchTable:
    """Populated branches as read-only arrays, one row per branch."""

    entries: dict[str, int]  # label -> row, labels ascending
    weights: np.ndarray  # (r,) Born weights
    substates: np.ndarray  # (r, 8) normalized, over (C, S, P) in ket order

    def probabilities(self) -> dict[str, float]:
        return dict(zip(self.entries, self.weights.tolist()))


def branch_decompose(state: StateVector) -> BranchTable:
    """Probability and normalized substate for every populated memory string."""
    layout = state.layout
    if layout.n_memories == 0:
        raise LayoutError("state has no memory slots to decompose over")
    # (S, P) sums within each C half first: the dense vector's summation order
    weights = np.sum(np.sum(np.abs(state.residual) ** 2, axis=(2, 3)), axis=1)
    keep = weights > PRUNE_THRESHOLD
    probs = weights[keep]
    subs = state.residual[keep].reshape(-1, 8) / np.sqrt(probs)[:, None]
    check_normalized(subs)
    probs.flags.writeable = False
    subs.flags.writeable = False
    # rows are sorted, so labels come out sorted.
    label = f"0{layout.n_memories}b"
    entries = {
        format(row, label): i for i, row in enumerate(state.rows[keep].tolist())
    }
    return BranchTable(entries, probs, subs)


def memory_marginal(state: StateVector, k: int) -> np.ndarray:
    """Reduced 2x2 density matrix of memory slot k."""
    if k < 1 or k > state.layout.n_memories:
        raise LayoutError(
            f"memory slot M{k} not in layout (1..{state.layout.n_memories})"
        )
    return register_marginal(state, {f"M{k}"})


def register_marginal(state: StateVector, regs) -> np.ndarray:
    """Reduced density matrix over ``regs``, ordered by layout position."""
    return validate_density_matrix(partial_trace(state, regs))


def outcome_probability(state: StateVector, register: str, outcome: int) -> float:
    """Born probability of reading ``outcome`` on a single register."""
    return state.probability(register, outcome)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    A pure argument reduces it to an overlap; a mixed pair needs the
    matrix root.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if rho.shape != sigma.shape:
        raise ValidationError(f"fidelity shape mismatch: {rho.shape} vs {sigma.shape}")
    if purity(rho) >= PURITY_ONE or purity(sigma) >= PURITY_ONE:
        return max(float(np.real(np.trace(rho @ sigma))), 0.0)
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


def _pair_marginals(rho_pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r4 = rho_pair.reshape(2, 2, 2, 2)  # (ket_a, ket_b, bra_a, bra_b)
    return np.einsum("ijkj->ik", r4), np.einsum("ijik->jk", r4)


def no_cloning_witness(
    state: StateVector, a: str, b: str
) -> tuple[bool, float]:
    """Detect whether two registers are correlated rather than a product.

    For a pure pair state, marginal purity is a complete entanglement
    witness; for a mixed pair, deviation from the product of its own
    marginals is used.  Returns (entangled, fidelity with that product).
    """
    if a == b:
        raise LayoutError(f"witness needs two distinct registers, got {a!r} twice")
    rho_pair = register_marginal(state, {a, b})
    rho_first, rho_second = _pair_marginals(rho_pair)
    product = np.kron(rho_first, rho_second)
    product_fidelity = min(fidelity(rho_pair, product), 1.0)
    if purity(rho_pair) >= PURITY_ONE:
        entangled = purity(rho_first) < PURITY_ONE
    else:
        entangled = product_fidelity < PURITY_ONE
    return entangled, product_fidelity


def separability_check(state: StateVector, register: str) -> tuple[bool, float]:
    """A register factors out of the global pure state iff its marginal is pure."""
    p = purity(register_marginal(state, {register}))
    return p >= PURITY_ONE, p
