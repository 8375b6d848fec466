import math

import numpy as np
import pytest
import scipy.linalg

from decohere.errors import (
    DimensionMismatchError,
    MatrixOverflowError,
    NotHermitianError,
    NumericsError,
    ValidationError,
)
from decohere.gksl import DensityMatrix, GkslGenerator, to_superoperator, vec
from decohere.numcore import (
    as_square_complex,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    matrix_exp,
)

from helpers import random_generator

SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def test_eigenvalues_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])


def test_eigenvalues_sigma_z():
    w = hermitian_eigenvalues(np.diag([1.0, -1.0]))
    assert np.allclose(w, [-1.0, 1.0])  # ascending


def test_eigenvalues_2x2_hand_computed():
    # trace 5, det 4 -> (5 +- 3)/2 = {1, 4}
    m = np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]])
    w = hermitian_eigenvalues(m)
    assert np.allclose(w, [1.0, 4.0], atol=1e-12)
    assert abs(w.sum() - 5.0) < 1e-12
    assert abs(w.prod() - 4.0) < 1e-12


def test_eigensystem_reconstruction_residual():
    rng = np.random.default_rng(7)
    for d in (2, 4, 8):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a + a.conj().T
        w, v = hermitian_eigensystem(m)
        residual = np.abs(m - v @ np.diag(w) @ v.conj().T).max()
        assert residual <= 1e-9 * np.abs(m).max()


def test_eigenvalues_unitary_invariance():
    rng = np.random.default_rng(11)
    for d in (2, 3, 8):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a + a.conj().T
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        w1 = hermitian_eigenvalues(m)
        w2 = hermitian_eigenvalues(q @ m @ q.conj().T)
        assert np.abs(w1 - w2).max() < 1e-9


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_square_complex_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValidationError):
        as_square_complex(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(DimensionMismatchError):
        as_square_complex(np.zeros((2, 3)))


def _boundary_draws():
    """(d, atol, factor, h): a Hermitian h with a random eigenbasis,
    smallest eigenvalue -factor * atol and, for d > 1, the others positive
    with trace 1; d from 1 to 32."""
    rng = np.random.default_rng(2022)
    for d in range(1, 33):
        for atol in (1e-10, 1e-8, 1e-6):
            for factor in (0.5, 0.999, 1.001, 2.0):
                q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                lam = rng.uniform(0.1, 1.0, d)
                lam[0] = -factor * atol
                lam[1:] *= (1.0 - lam[0]) / max(lam[1:].sum(), 1e-300)
                h = (q * lam) @ q.conj().T
                yield d, atol, factor, 0.5 * (h + h.conj().T)


def test_positivity_certificate_decides_as_eigvalsh():
    """DensityMatrix (at each atol) and the Kossakowski check (at its fixed
    1e-10) accept or reject exactly as the smallest eigvalsh eigenvalue does,
    with eigvalsh's value in the message, on either side of the boundary."""
    for d, atol, factor, h in _boundary_draws():
        ref = float(np.linalg.eigvalsh(h)[0])
        # the construction puts the eigenvalue on the intended side
        assert (ref < -atol) == (factor > 1.0), (d, atol, factor, ref)
        if d > 1:  # at d = 1 unit trace leaves no room for a negative eigenvalue
            if ref < -atol:
                with pytest.raises(ValidationError) as excinfo:
                    DensityMatrix(h, atol=atol)
                assert str(excinfo.value) == f"density matrix has negative eigenvalue {ref:.3e}"
            else:
                DensityMatrix(h, atol=atol)

        ops = (np.eye(2, dtype=complex),) * d
        if ref < -1e-10:
            with pytest.raises(ValidationError) as excinfo:
                GkslGenerator(np.zeros((2, 2)), ops, h)
            assert str(excinfo.value) == ("kossakowski matrix is not positive semidefinite "
                                          f"(min eigenvalue {ref:.3e})")
        else:
            GkslGenerator(np.zeros((2, 2)), ops, h)


def test_accepted_state_computes_no_eigenvalue(monkeypatch):
    # the Cholesky certificate alone accepts a state inside the bound
    def refuse(a):
        raise AssertionError("eigvalsh called on an accepted state")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    rho = a @ a.conj().T
    DensityMatrix(rho / np.trace(rho).real)
    GkslGenerator(np.zeros((2, 2)), (np.eye(2),) * 3, np.diag([0.0, 1.0, 2.0]))


def test_matrix_exp_zero_is_identity():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_diagonal():
    out = matrix_exp(np.diag([1.5, -0.3 + 0.2j]))
    assert np.allclose(np.diag(out), [np.exp(1.5), np.exp(-0.3 + 0.2j)], atol=1e-12)


def test_matrix_exp_rotation():
    # exp(i theta sigma_y) = cos(theta) I + i sin(theta) sigma_y
    out = matrix_exp(1j * (math.pi / 2) * SIGMA_Y)
    assert np.abs(out - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-10


def test_matrix_exp_inverse_identity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 10.0 / np.linalg.norm(m, 2)
        check = matrix_exp(m) @ matrix_exp(-m)
        assert np.abs(check - np.eye(4)).max() <= 1e-9


def test_matrix_exp_block_diagonal():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    n = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    block = np.zeros((5, 5), dtype=complex)
    block[:2, :2] = m
    block[2:, 2:] = n
    out = matrix_exp(block)
    assert np.abs(out[:2, :2] - matrix_exp(m)).max() < 1e-10
    assert np.abs(out[2:, 2:] - matrix_exp(n)).max() < 1e-10
    assert np.abs(out[:2, 2:]).max() < 1e-10


def test_matrix_exp_overflow_guard():
    with pytest.raises(MatrixOverflowError):
        matrix_exp(np.diag([800.0, 0.0]))


# Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179, Table 2.3: the largest
# 1-norm at which the degree-m Pade approximant is used unscaled
PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
              9: 2.097847961257068e0, 13: 5.371920351148152e0}


def _expm_error(a) -> float:
    """Largest deviation from scipy.linalg.expm, relative to max(1, max|e|)."""
    e = scipy.linalg.expm(a)
    return float(np.abs(matrix_exp(a) - e).max() / max(1.0, np.abs(e).max()))


def _gksl_draws():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 6, 12):
        for _ in range(2):
            yield d, to_superoperator(random_generator(rng, d, min(d, 3))).matrix


GKSL_TIMES = (1e-3, 0.1, 1.0, 10.0, 60.0)


def test_matrix_exp_matches_scipy_on_gksl_superoperators():
    for d, superop in _gksl_draws():
        for t in GKSL_TIMES:
            assert _expm_error(t * superop) <= 1e-11, (d, t)


def test_matrix_exp_preserves_trace_of_gksl_semigroups():
    for d, superop in _gksl_draws():
        ident = vec(np.eye(d, dtype=complex)).conj()
        for t in GKSL_TIMES:
            assert np.abs(ident @ matrix_exp(t * superop) - ident).max() <= 1e-12, (d, t)


@pytest.mark.parametrize("degree, factor", [
    (3, 1 - 1e-9), (5, 1 - 1e-9), (7, 1 - 1e-9), (9, 1 - 1e-9), (13, 1 - 1e-9), (13, 1 + 1e-9),
])
def test_matrix_exp_at_each_pade_threshold(degree, factor):
    # just below theta_m the degree-m approximant runs unscaled; just above
    # theta_13 one squaring starts
    rng = np.random.default_rng(degree)
    superop = to_superoperator(random_generator(rng, 3, 2)).matrix
    ginibre = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    for m in (superop, ginibre):
        a = m * (factor * PADE_THETA[degree] / np.abs(m).sum(axis=0).max())
        assert _expm_error(a) <= 1e-14


def _damped_qubit_channel(rate: float, omega: float, t: float) -> np.ndarray:
    """exp(t L) for H = diag(omega, -omega) and amplitude damping |1> -> |0>
    at ``rate``, acting on vec(rho) = (rho00, rho10, rho01, rho11)."""
    decay = math.exp(-rate * t)
    coherence = math.exp(-rate * t / 2)
    return np.array([
        [1.0, 0.0, 0.0, 1.0 - decay],
        [0.0, coherence * np.exp(2j * omega * t), 0.0, 0.0],
        [0.0, 0.0, coherence * np.exp(-2j * omega * t), 0.0],
        [0.0, 0.0, 0.0, decay],
    ])


def test_matrix_exp_strongly_damped_qubit_closed_form():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    superop = to_superoperator(GkslGenerator(np.diag([0.7, -0.7]), (lower,), [[50.0]])).matrix
    assert np.abs(10.0 * superop).sum(axis=0).max() > 700.0
    for t in (0.01, 0.1, 10.0):
        out = matrix_exp(t * superop)
        assert np.abs(out - _damped_qubit_channel(50.0, 0.7, t)).max() <= 1e-12, t


def test_matrix_exp_overflowing_norm():
    with pytest.raises(MatrixOverflowError):
        matrix_exp(np.full((2, 2), 1e308))


def test_matrix_exp_singular_pade_denominator_is_a_numerics_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericsError, match="singular Pade denominator"):
        matrix_exp(np.eye(2))
