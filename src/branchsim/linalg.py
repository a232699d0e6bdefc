"""Small dense linear algebra shared by the simulator: the size cap's
check for matrices, the fixed tolerances, unitarity and density-matrix
checks, and purity.  ``unitarity_deviations`` is the one computation of
``max |m†m - I|``, for a stack of matrices of any size: every raw gate's
check (``gates.check_unitary``) and ``verify``'s dilation blocks W_c read
it.  A density matrix's eigenvalue floor is
checked on its exact spectrum (``eigvalsh``) at every size.  The partial
trace reads the branch table, so it lives with the table in ``machine``.

Matrices are row-major ``complex128`` arrays.  Tensor ordering is
most-significant-first: the left Kronecker factor owns the high bits of
the composite index, so basis indices print as ket strings read left to
right.  Matrix products are ``@``; the oracle in ``verify`` builds its
global Kronecker products in index form.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ShapeError, ValidationError

# Global cap on composite dimension: no object may exceed 2**QUBIT_CAP.
QUBIT_CAP = 20


def within_capacity(entries: int) -> bool:
    """Whether an object of ``entries`` entries fits the 2**QUBIT_CAP cap."""
    return entries <= 1 << QUBIT_CAP


def check_capacity(entries: int, what: str) -> None:
    """Raise ``CapacityError`` before allocating ``what`` past 2**QUBIT_CAP entries."""
    if not within_capacity(entries):
        raise CapacityError(f"{what} has {entries} entries; cap is 2**{QUBIT_CAP}")


# Density matrices may dip this far below zero before we call them invalid.
EIGENVALUE_FLOOR = -1e-9


# Fixed bounds on max |m†m - I| of a unitary, on the deviation of a norm
# or trace from 1, and on max |rho - rho†| of a density matrix; no command
# takes another value.
UNITARITY_TOL = 1e-9
NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite entries")
    return a


def unitarity_deviations(stack: np.ndarray) -> np.ndarray:
    """max |m†m - I| of each matrix of an ``(n, d, d)`` complex stack, the
    number compared against ``UNITARITY_TOL``: inf, never nan, where an
    entry is not finite or a product overflows, so such a matrix fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.einsum("nji,njk->nik", stack.conj(), stack)
        dev = np.abs(gram - np.eye(stack.shape[-1])).max(axis=(1, 2))
    dev[~np.isfinite(dev)] = np.inf  # a nan too: max propagates it
    return dev


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for maximally mixed."""
    rho = as_matrix(rho)
    return float(np.real(np.trace(rho @ rho)))


def validate_density_matrix(rho) -> np.ndarray:
    """Enforce Hermiticity, unit trace, and the eigenvalue floor."""
    rho = as_matrix(rho)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITICITY_TOL:
        raise ValidationError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > NORM_TOL:
        raise ValidationError(f"trace {tr} deviates from 1 beyond {NORM_TOL}")
    if np.linalg.eigvalsh(rho)[0] < EIGENVALUE_FLOOR:
        raise ValidationError("density matrix has an eigenvalue below the floor")
    return rho
