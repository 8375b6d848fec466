"""Shared test utilities: seeded random states and generators, sigma_x, an
independent superoperator assembly and scipy's RK45 as the reference of
``numcore.ode_solve``."""

import numpy as np
import scipy.integrate

from decohere import DensityMatrix, GkslGenerator
from decohere.errors import OdeError, StepUnderflowError
from decohere.numcore.ode import DEFAULT_ODE

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


def reference_ode_solve(rhs, y0, t_grid, spec=None):
    """The states at t_grid of scipy's ``solve_ivp(method="RK45",
    t_eval=t_grid, first_step=min(initial_step, span))``, the route that
    ``numcore.ode_solve`` ports, without its step budget; the one-point grid
    and the error mapping are ``ode_solve``'s."""
    spec = spec or DEFAULT_ODE
    t = np.asarray(t_grid, dtype=float)
    y0 = np.atleast_1d(np.asarray(y0))
    dtype = np.complex128 if np.iscomplexobj(y0) else np.float64
    y0 = y0.astype(dtype)
    if t.size == 1:
        return y0[None, :]
    sol = scipy.integrate.solve_ivp(
        lambda tt, y: np.asarray(rhs(tt, y), dtype=dtype),
        (t[0], t[-1]),
        y0,
        method="RK45",
        t_eval=t,
        rtol=spec.rel_tol,
        atol=spec.abs_tol,
        first_step=min(spec.initial_step, t[-1] - t[0]),
    )
    if not sol.success:
        message = sol.message or "ODE integration failed"
        if "step size" in message.lower():
            raise StepUnderflowError(message)
        raise OdeError(message)
    return sol.y.T
