"""Dense complex linear algebra primitives shared by the simulator.

Matrices are row-major ``complex128`` arrays.  Tensor ordering is
most-significant-first: the left Kronecker factor owns the high bits of
the composite index, so basis indices print as ket strings read left to
right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, LayoutError, ShapeError, ValidationError

if TYPE_CHECKING:
    from .machine import RegisterLayout

# Global cap on composite dimension: no object may exceed 2**QUBIT_CAP.
QUBIT_CAP = 20

# Density matrices may dip this far below zero before we call them invalid.
EIGENVALUE_FLOOR = -1e-9


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by validators and the verify suite."""

    unitarity: float = 1e-9
    norm: float = 1e-10
    hermiticity: float = 1e-10
    diagonality: float = 1e-12


DEFAULT_TOLERANCES = Tolerances()


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite entries")
    return a


def kron(a, b, cap_qubits: int = QUBIT_CAP) -> np.ndarray:
    """Kronecker product with ``a`` owning the most significant block."""
    a, b = as_matrix(a), as_matrix(b)
    dim = a.shape[0] * b.shape[0]
    if dim > (1 << cap_qubits):
        raise CapacityError(
            f"kron result dimension {dim} exceeds the 2**{cap_qubits} cap"
        )
    return np.kron(a, b)


def mat_mul(a, b) -> np.ndarray:
    """Matrix product of two equally sized square matrices."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def check_unitary(m, tol: float = DEFAULT_TOLERANCES.unitarity) -> bool:
    """True iff max |m†m - I| <= tol."""
    m = as_matrix(m)
    dev = unitarity_deviation(m)
    return bool(dev <= tol)


def unitarity_deviation(m) -> float:
    """max |m†m - I|, the number compared against the unitarity tolerance."""
    m = as_matrix(m)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def partial_trace(state_or_rho, keep, layout: "RegisterLayout") -> np.ndarray:
    """Reduced density matrix over ``keep`` registers, in layout order.

    Accepts a pure state (StateVector or amplitude vector) or a density
    matrix over the full layout.  The kept registers are ordered by their
    layout position regardless of the order of ``keep``.  A result with
    more than 2**QUBIT_CAP entries raises ``CapacityError`` before any
    allocation.
    """
    names = layout.register_names()
    keep = set(keep)
    if not keep:
        raise LayoutError("keep set must be non-empty")
    unknown = keep - set(names)
    if unknown:
        raise LayoutError(f"unknown register id(s): {sorted(unknown)}")
    if 4 ** len(keep) > (1 << QUBIT_CAP):
        raise CapacityError(
            f"marginal over {len(keep)} registers has {4 ** len(keep)} "
            f"entries; cap is 2**{QUBIT_CAP}"
        )
    n = layout.total_qubits
    keep_axes = sorted(layout.position(r) for r in keep)
    trace_axes = [ax for ax in range(n) if ax not in keep_axes]
    d_keep = 1 << len(keep_axes)

    amps = getattr(state_or_rho, "amplitudes", None)
    if amps is None:
        arr = np.asarray(state_or_rho, dtype=np.complex128)
        if arr.ndim == 1:
            amps = arr
    if amps is not None:
        if amps.size != (1 << n):
            raise ShapeError(f"state has {amps.size} amplitudes, layout wants {1 << n}")
        psi = np.asarray(amps, dtype=np.complex128).reshape([2] * n)
        # Kept axes first, then one matmul: rho = M M^dagger with
        # M[kept, traced].  Only M (and its conjugate) is ever copied.
        m = np.moveaxis(psi, keep_axes, range(len(keep_axes))).reshape(d_keep, -1)
        return m @ m.conj().T

    rho = as_matrix(state_or_rho)
    if rho.shape[0] != (1 << n):
        raise ShapeError(f"density matrix dim {rho.shape[0]}, layout wants {1 << n}")
    tensor = rho.reshape([2] * (2 * n))
    # Sublist einsum: traced ket/bra axes share a subscript, kept bra axes
    # get offset subscripts so they survive into the output.
    ket_subs = list(range(n))
    bra_subs = [ax if ax in trace_axes else ax + n for ax in range(n)]
    out_subs = keep_axes + [ax + n for ax in keep_axes]
    reduced = np.einsum(tensor, ket_subs + bra_subs, out_subs)
    return reduced.reshape(d_keep, d_keep)


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for maximally mixed."""
    rho = as_matrix(rho)
    return float(np.real(np.trace(rho @ rho)))


def min_eigenvalue_bound(rho) -> float:
    """Lower bound on the smallest eigenvalue of a Hermitian matrix.

    Exact closed form for 2x2; Gershgorin bound otherwise (may be loose,
    so a failing bound is not proof of negativity).
    """
    rho = as_matrix(rho)
    if rho.shape[0] == 2:
        t = float(np.real(rho[0, 0] + rho[1, 1]))
        det = float(np.real(rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]))
        disc = max(t * t - 4.0 * det, 0.0)
        return (t - disc**0.5) / 2.0
    diag = np.real(np.diag(rho))
    radii = np.sum(np.abs(rho), axis=1) - np.abs(np.diag(rho))
    return float(np.min(diag - radii))


def validate_density_matrix(rho, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Enforce Hermiticity, unit trace, and the eigenvalue floor."""
    rho = as_matrix(rho)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > tol.hermiticity:
        raise ValidationError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol.norm:
        raise ValidationError(f"trace {tr} deviates from 1 beyond {tol.norm}")
    if min_eigenvalue_bound(rho) < EIGENVALUE_FLOOR:
        # The Gershgorin bound is conservative; settle honestly before
        # rejecting (cheap at the <= 2**10 dims seen here).
        if float(np.min(np.linalg.eigvalsh(rho))) < EIGENVALUE_FLOOR:
            raise ValidationError("density matrix has an eigenvalue below the floor")
    return rho
