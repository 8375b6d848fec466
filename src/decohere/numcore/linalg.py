"""Dense complex matrix helpers: validation, Hermitian eigenproblems, a
positivity certificate, matrix exponential.

All matrices are dense and complex, from 2 x 2 states to 144 x 144
superoperators (d = 12).  Every routine is numpy alone (``@``,
``numpy.linalg``), so all dense work runs in numpy's one BLAS thread pool.
Inputs are validated (square, finite), and a LAPACK failure or a
non-finite result raises a typed ``decohere`` error.

``negative_eigenvalue`` decides ``lambda_min(h) >= -atol`` for a Hermitian
``h`` by a Cholesky factorization of ``h + atol I``, about a quarter of the
cost of ``eigvalsh`` at n = 32.  The factorization is backward stable to
about ``n eps ||h||`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, SIAM 2002, ch. 10), the rounding level of ``eigvalsh`` itself;
only when it fails is the smallest eigenvalue computed, so every rejection
and the eigenvalue it reports are ``eigvalsh``'s.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import (
    DimensionMismatchError,
    MatrixOverflowError,
    NoConvergenceError,
    NotHermitianError,
    NumericsError,
    ValidationError,
)

HERMITIAN_ATOL = 1e-10


def as_square_complex(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, square, C-contiguous complex128 array."""
    a = np.array(m, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
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


def hermitian_spectrum(a: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of an array already checked to be
    Hermitian (LAPACK reads its lower triangle)."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NoConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def hermitian_eigenvalues(m, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    return hermitian_spectrum(require_hermitian(m, atol))


def negative_eigenvalue(h: np.ndarray, atol: float) -> float | None:
    """The smallest eigenvalue of the Hermitian array ``h`` when it is below
    ``-atol``, else None.

    ``h + atol I`` having a Cholesky factor certifies the bound without an
    eigensolver; only when the factorization fails is the eigenvalue
    computed, and that decides.  ``h`` is not modified.
    """
    shifted = h.copy()
    shifted.flat[:: h.shape[0] + 1] += atol
    try:
        np.linalg.cholesky(shifted)
        return None
    except np.linalg.LinAlgError:
        min_eig = float(hermitian_spectrum(h)[0])
    return min_eig if min_eig < -atol else None


def hermitian_eigensystem(m, atol: float = HERMITIAN_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and the unitary of column eigenvectors."""
    a = require_hermitian(m, atol)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return w, v


# Pade degree m -> (theta_m, b_0..b_m): the largest 1-norm at which the
# unscaled [m/m] approximant is accurate to double precision (Higham, SIAM
# J. Matrix Anal. Appl. 26 (2005) 1179, Table 2.3), and the coefficients of
# its numerator p_m(x) = sum_j b_j x^j; the denominator is p_m(-x)
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


def _pade_terms(a: np.ndarray, norm1: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Odd and even parts (U, V) of p_m(a / 2^s) and the number s of
    squarings: exp(a) ~ ((V - U)^-1 (V + U))^(2^s), with the smallest degree
    m whose theta_m bounds the 1-norm, or m = 13 and a scaled into range."""
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    for m in (3, 5, 7, 9):
        theta, b = _PADE[m]
        if norm1 <= theta:
            powers = [eye, a2]  # a^0, a^2, ..., a^(m-1)
            while len(powers) <= m // 2:
                powers.append(powers[-1] @ a2)
            u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
            v = sum(b[2 * k] * p for k, p in enumerate(powers))
            return u, v, 0
    theta, b = _PADE[13]
    s = max(0, math.ceil(math.log2(norm1 / theta)))
    if s:
        a = a * 2.0**-s
        a2 = a2 * 4.0**-s
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    return u, v, s


def matrix_exp(m) -> np.ndarray:
    """exp(m) by scaling and squaring with Pade approximants of degree 3, 5,
    7, 9 or 13 (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179,
    Algorithm 2.3).

    For an input A, the smallest degree in {3, 5, 7, 9} with
    ``||A||_1 <= theta_m`` is used unscaled; otherwise degree 13 on
    ``A / 2^s`` with ``s = max(0, ceil(log2(||A||_1 / theta_13)))``, and the
    result is squared s times.  The work is ``@`` and one
    ``numpy.linalg.solve``, so it runs in numpy's BLAS thread pool alone;
    ``scipy.linalg.expm`` mixes scipy's OpenBLAS (Pade step) with numpy's
    (squarings), and on a small machine the threads of one pool spin while
    the other works.

    Raises MatrixOverflowError when the result (or the 1-norm) is not
    finite, and NumericsError when the Pade denominator is singular.  A
    large input norm alone is no error: the exponential of a GKSL generator
    is a contraction however large its norm.
    """
    a = as_square_complex(m)
    if a.shape[0] == 0:
        return a
    with np.errstate(over="ignore", invalid="ignore"):
        norm1 = float(np.abs(a).sum(axis=0).max())
        if not math.isfinite(norm1):
            raise MatrixOverflowError("the 1-norm of the matrix overflows double precision")
        u, v, s = _pade_terms(a, norm1)
        try:
            out = np.linalg.solve(v - u, v + u)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"exp(): singular Pade denominator: {exc}") from exc
        for _ in range(s):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise MatrixOverflowError(
            f"exp() of a matrix with 1-norm {norm1:.3e} overflows double precision"
        )
    return out
