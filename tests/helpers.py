"""Shared test utilities: seeded random states and generators, sigma_x, and an
independent superoperator assembly."""

import numpy as np

from decohere import DensityMatrix, GkslGenerator

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, d, norm=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = a + a.conj().T
    return norm * h / max(np.linalg.norm(h, 2), 1e-12)


def random_density_matrix(rng, d) -> DensityMatrix:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_generator(rng, d, m) -> GkslGenerator:
    """Random valid generator: Hermitian H, m bounded Lindblad operators,
    and a PSD Kossakowski matrix with spectral norm ~1."""
    h = random_hermitian(rng, d)
    ops = []
    for _ in range(m):
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ops.append(op / max(np.linalg.norm(op, 2), 1e-12))
    b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    a = b @ b.conj().T
    a = a / max(np.linalg.norm(a, 2), 1e-12)
    return GkslGenerator(h, tuple(ops), a)


def reference_superoperator(gen: GkslGenerator) -> np.ndarray:
    """The generator's column-stacking superoperator, assembled term by term
    from L(rho) = -i[H, rho] + sum_jk a_jk (L_j rho L_k^dag
    - 1/2 {L_k^dag L_j, rho}): three Kronecker products per nonzero a_jk."""
    d = gen.dim
    eye = np.eye(d, dtype=complex)
    h = gen.hamiltonian
    s = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    a = gen.kossakowski
    ops = gen.lindblad_ops
    for j in range(a.shape[0]):
        for k in range(a.shape[0]):
            ajk = a[j, k]
            if ajk == 0:
                continue
            lk_lj = ops[k].conj().T @ ops[j]
            s += ajk * (
                np.kron(ops[k].conj(), ops[j])
                - 0.5 * (np.kron(eye, lk_lj) + np.kron(lk_lj.T, eye))
            )
    return s
