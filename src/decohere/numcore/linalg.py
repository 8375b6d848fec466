"""Dense complex matrix helpers: validation, Hermitian eigenproblems,
matrix exponential.

All matrices are dense and complex, from 2 x 2 states to 144 x 144
superoperators (d = 12); robustness is preferred over speed throughout.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..errors import (
    DimensionMismatchError,
    MatrixOverflowError,
    NoConvergenceError,
    NotHermitianError,
    ValidationError,
)

HERMITIAN_ATOL = 1e-10


def as_square_complex(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, square, C-contiguous complex128 array."""
    a = np.array(m, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        return a
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def hermiticity_defect(m) -> float:
    """Max entrywise deviation from the conjugate transpose."""
    a = np.asarray(m)
    if a.size == 0:
        return 0.0
    return float(np.abs(a - a.conj().T).max())


def require_hermitian(m, atol: float = HERMITIAN_ATOL, name: str = "matrix") -> np.ndarray:
    a = as_square_complex(m, name)
    defect = hermiticity_defect(a)
    if defect > atol:
        raise NotHermitianError(
            f"{name} is not Hermitian: max |m - m^†| = {defect:.3e} > {atol:.1e}"
        )
    return a


def hermitian_eigenvalues(m, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    a = require_hermitian(m, atol)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NoConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def hermitian_eigensystem(m, atol: float = HERMITIAN_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and the unitary of column eigenvectors."""
    a = require_hermitian(m, atol)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return w, v


def matrix_exp(m) -> np.ndarray:
    """exp(m) by scaling-and-squaring with Pade approximants.

    Raises MatrixOverflowError when the result is not finite.  A large
    input norm alone is no error: the exponential of a GKSL generator is a
    contraction however large its norm.
    """
    a = as_square_complex(m)
    if a.shape[0] == 0:
        return a
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        norm1 = float(np.abs(a).sum(axis=0).max())
        raise MatrixOverflowError(
            f"exp() of a matrix with 1-norm {norm1:.3e} overflows double precision"
        )
    return out
