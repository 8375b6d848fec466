"""Shared test utilities: seeded random states and generators, and sigma_x."""

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
