"""GKSL generators and completely positive semigroup dynamics.

A generator acts on density matrices as

    L(rho) = -i [H, rho] + sum_jk a_jk (L_j rho L_k^dag
                                        - 1/2 {L_k^dag L_j, rho})

with Hermitian H and a positive semidefinite coefficient matrix ``a``
(rejected at construction otherwise).  Superoperator matrices use the
column-stacking convention, vec(A X B) = (B^T kron A) vec(X); the Choi
matrix is the unnormalized C = sum_ij E_ij kron Map(E_ij), positive
semidefinite exactly when the map is completely positive.

A generator whose Hamiltonian and Lindblad operators are all diagonal acts
entrywise, L(rho) = K o rho with a d x d kernel K, so its superoperator is
diagonal too; ``integrate_constant`` and ``integrate_time_dependent``
(whose generator L_fixed + r(t) L_varying has both parts assembled once)
integrate such generators through K instead of building the d^2 x d^2 matrix.

``semigroup_trajectory`` gives the semigroup states on a uniform grid as
powers of one step propagator exp(dt L), one ``expm`` for the whole grid;
``run`` measures the ODE trajectory's ``ode_vs_semigroup`` residual against
it.  ``semigroup_channel`` builds L's matrix once and returns t -> exp(t L).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import numcore
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotHermitianError,
    ValidationError,
)
from .numcore import OdeSpec
from .schema import REQUIRED, complex_matrix, obj

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Hard error threshold: an ODE state whose trace, Hermiticity or positivity
# drifts past it, or a run's drift or cross-check residual past it, is a
# violation; silent positivity loss would poison decoherence measurements.
DRIFT_ERROR_THRESHOLD = 1e-6


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite state: the one check that
    accepts or rejects a state.  Input states meet the default ``atol``;
    computed ones may drift, 1e-8 from the semigroup and
    ``DRIFT_ERROR_THRESHOLD`` from the ODE.

    The matrix is copied once and ``m^H`` formed once: ``m - m^H`` gives the
    Hermiticity defect, and positivity (smallest eigenvalue >= -atol) is
    certified on the Hermitian part ``(m + m^H) / 2`` by a Cholesky factor
    of that part plus ``atol I``, with the eigenvalue computed only when the
    factorization fails (:func:`numcore.negative_eigenvalue`).  The defect
    ``max |m - m^H|`` is kept as ``hermiticity_defect`` for the run report."""

    matrix: np.ndarray
    atol: InitVar[float] = 1e-10
    hermiticity_defect: float = field(init=False)

    def __post_init__(self, atol):
        m = numcore.as_square_complex(self.matrix, "density matrix")
        mh = m.conj().T
        defect = float(np.abs(m - mh).max(initial=0.0))
        if defect > atol:
            raise NotHermitianError(
                f"density matrix Hermiticity defect {defect:.3e} > {atol:.1e}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > atol:
            raise ValidationError(f"density matrix trace {tr!r} differs from 1")
        min_eig = numcore.negative_eigenvalue(0.5 * (m + mh), atol)
        if min_eig is not None:
            raise ValidationError(
                f"density matrix has negative eigenvalue {min_eig:.3e}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "hermiticity_defect", defect)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, amplitudes: Sequence[complex]) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class GkslGenerator:
    """Hamiltonian, Lindblad operators and Kossakowski matrix of a generator.

    ``validate_psd=False`` admits an indefinite coefficient matrix; this is
    only used for time-dependent rates that may transiently go negative, in
    which case complete positivity of the propagated map is not certified.
    """

    hamiltonian: np.ndarray
    lindblad_ops: tuple[np.ndarray, ...] = ()
    kossakowski: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), complex))
    validate_psd: InitVar[bool] = True

    def __post_init__(self, validate_psd):
        h = numcore.require_hermitian(self.hamiltonian, name="hamiltonian")
        ops = tuple(
            numcore.as_square_complex(op, f"lindblad_ops[{i}]")
            for i, op in enumerate(self.lindblad_ops)
        )
        for i, op in enumerate(ops):
            if op.shape != h.shape:
                raise DimensionMismatchError(
                    f"lindblad_ops[{i}] shape {op.shape} != hamiltonian {h.shape}"
                )
        a = numcore.require_hermitian(self.kossakowski, name="kossakowski")
        if a.shape[0] != len(ops):
            raise DimensionMismatchError(
                f"kossakowski is {a.shape[0]}x{a.shape[0]} but there are "
                f"{len(ops)} Lindblad operators"
            )
        if validate_psd:
            min_eig = numcore.negative_eigenvalue(a, 1e-10)
            if min_eig is not None:
                raise ValidationError(
                    "kossakowski matrix is not positive semidefinite "
                    f"(min eigenvalue {min_eig:.3e})"
                )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblad_ops", ops)
        object.__setattr__(self, "kossakowski", a)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _map_matrix(m, name: str) -> np.ndarray:
    """Finite complex d^2 x d^2 matrix of a map on d-dimensional states."""
    a = numcore.as_square_complex(m, name)
    if math.isqrt(a.shape[0]) ** 2 != a.shape[0]:
        raise DimensionMismatchError(f"{name} size {a.shape[0]} is not a perfect square")
    return a


@dataclass(frozen=True)
class Superoperator:
    """d^2 x d^2 matrix acting on column-stacked density matrices."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _map_matrix(self.matrix, "superoperator"))

    @property
    def dim(self) -> int:
        return int(round(self.matrix.shape[0] ** 0.5))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a map on d-dimensional states (unnormalized)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _map_matrix(self.matrix, "Choi matrix"))

    @property
    def dim(self) -> int:
        return int(round(self.matrix.shape[0] ** 0.5))


@dataclass(frozen=True)
class CpCheckResult:
    """Outcome of a complete-positivity check with the Choi spectrum and the
    Choi matrix's Hermiticity defect."""

    passed: bool
    min_eigenvalue: float
    spectrum: np.ndarray
    tol: float
    hermiticity_defect: float

    def __bool__(self) -> bool:
        return self.passed


def _as_state(rho) -> np.ndarray:
    matrix = getattr(rho, "matrix", rho)
    return numcore.as_square_complex(matrix, "state")


def apply_generator(gen: GkslGenerator, rho) -> np.ndarray:
    """Evaluate the generator on a state, returning d rho / dt."""
    r = _as_state(rho)
    if r.shape[0] != gen.dim:
        raise DimensionMismatchError(
            f"state dimension {r.shape[0]} != generator dimension {gen.dim}"
        )
    h = gen.hamiltonian
    out = -1j * (h @ r - r @ h)
    a = gen.kossakowski
    ops = gen.lindblad_ops
    for j in range(a.shape[0]):
        for k in range(a.shape[0]):
            ajk = a[j, k]
            if ajk == 0:
                continue
            lk_lj = ops[k].conj().T @ ops[j]
            out += ajk * (
                ops[j] @ r @ ops[k].conj().T - 0.5 * (lk_lj @ r + r @ lk_lj)
            )
    return out


def to_superoperator(gen: GkslGenerator) -> Superoperator:
    """Matrix of the generator in the column-stacking convention.

    The Kossakowski matrix is contracted before any Kronecker product:
    with M_j = sum_k conj(a_jk) L_k and G = sum_j M_j^dag L_j,

        S = I kron (-iH - G/2) + (iH - G/2)^T kron I + sum_j conj(M_j) kron L_j,

    n + 2 products for n operators.  The n jump products are one
    contraction, and G is read off the jump term as its partial trace, so it
    holds the same products and the trace row vec(I)^dag S cancels to
    rounding.  The two products with I are added to the blocks they fill.
    The right-hand factor is built from H^T and G^T, so a Hamiltonian with a
    small anti-Hermitian part enters exactly as in L(rho).
    """
    d, n = gen.dim, len(gen.lindblad_ops)
    ops = np.array(gen.lindblad_ops, dtype=complex).reshape(n, d * d)  # row j: L_j
    m = gen.kossakowski.conj() @ ops  # row j: M_j
    # s[p, q, r, t] = S[p d + q, r d + t], where A kron B holds A[p, r] B[q, t]
    s = (m.conj().T @ ops).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    g = np.einsum("aart->rt", s)
    h, diag = gen.hamiltonian, np.arange(d)
    s[diag, :, diag, :] += -1j * h - 0.5 * g  # I kron (-iH - G/2): s[p, q, p, t]
    s[:, diag, :, diag] += 1j * h.T - 0.5 * g.T  # (iH - G/2)^T kron I: s[p, q, r, q]
    return Superoperator(s.reshape(d * d, d * d))


def semigroup_channel(gen: GkslGenerator) -> Callable[[float], Superoperator]:
    """t -> exp(t L) as a superoperator matrix, with L's matrix built once."""
    s = to_superoperator(gen).matrix

    def propagator(t: float) -> Superoperator:
        if t < 0:
            raise ValidationError("propagation time must be >= 0")
        return Superoperator(numcore.matrix_exp(t * s))

    return propagator


def semigroup_propagator(gen: GkslGenerator, t: float) -> Superoperator:
    """exp(t L) as a superoperator matrix."""
    return semigroup_channel(gen)(t)


def semigroup_trajectory(gen: GkslGenerator, rho0: DensityMatrix, dt: float,
                         n: int) -> list[DensityMatrix]:
    """The states exp(k dt L) rho0 for k = 0 .. n-1: one step propagator
    exp(dt L), applied k times to vec(rho0)."""
    step = semigroup_propagator(gen, dt).matrix
    states, v = [rho0], vec(rho0.matrix)
    for _ in range(n - 1):
        v = step @ v
        states.append(DensityMatrix(unvec(v, rho0.dim), atol=1e-8))
    return states


def propagate_semigroup(gen: GkslGenerator, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Propagate a state by the time-independent semigroup exp(t L)."""
    if t == 0:
        return rho0
    prop = semigroup_propagator(gen, t)
    return DensityMatrix(prop.apply(rho0.matrix), atol=1e-8)


def _entrywise_kernel(gen: GkslGenerator) -> np.ndarray | None:
    """The d x d kernel K with L(rho) = K o rho (entrywise product), or None
    unless the Hamiltonian and every Lindblad operator are exactly diagonal.

    With L_j = diag(l_j), M = l^T a l^* gives M_xy = sum_jk a_jk l_j[x]
    l_k[y]^*, and K_xy = -i (h_x - h_y) + M_xy - (M_xx + M_yy) / 2.  Taking
    the anticommutator term from diag(M) makes K_xx exactly 0, so
    populations are left bit-for-bit unchanged.
    """
    d = gen.dim
    stack = np.array([gen.hamiltonian, *gen.lindblad_ops])
    flat = stack.reshape(len(stack), -1)  # row 0: H, then one row per L_j
    diagonals = flat[:, :: d + 1].copy()
    flat[:, :: d + 1] = 0
    if flat.any():  # a nonzero off-diagonal entry
        return None
    h, l = diagonals[0], diagonals[1:]
    m = l.T @ gen.kossakowski @ l.conj()
    m_diag = np.diag(m)
    return (-1j * (h[:, None] - h[None, :]) + m
            - 0.5 * (m_diag[:, None] + m_diag[None, :]))


def _actions(gens: Sequence[GkslGenerator], dim: int) -> tuple[list[np.ndarray], Callable]:
    """(arrays, product) acting on vec(rho): the d x d kernels and np.multiply
    when every generator has one, else the superoperators and np.matmul."""
    if any(gen.dim != dim for gen in gens):
        raise DimensionMismatchError(f"state dimension {dim} != generator dimensions "
                                     f"{[gen.dim for gen in gens]}")
    kernels = [_entrywise_kernel(gen) for gen in gens]
    if all(k is not None for k in kernels):
        return [vec(k) for k in kernels], np.multiply
    return [to_superoperator(gen).matrix for gen in gens], np.matmul


def integrate_constant(
    gen: GkslGenerator,
    rho0: DensityMatrix,
    t_grid,
    spec: OdeSpec | None = None,
) -> list[DensityMatrix]:
    """ODE-integrate a time-independent generator along the grid.

    A generator with diagonal Hamiltonian and Lindblad operators is
    integrated entrywise through its d x d kernel, any other through its
    d^2 x d^2 superoperator.
    """
    (a,), apply = _actions([gen], rho0.dim)
    return _integrate(lambda t, v: apply(a, v), rho0, t_grid, spec)


def integrate_time_dependent(
    fixed: GkslGenerator,
    varying: GkslGenerator,
    rate: Callable[[float], float],
    rho0: DensityMatrix,
    t_grid,
    spec: OdeSpec | None = None,
) -> list[DensityMatrix]:
    """Integrate d rho/dt = (L_fixed + rate(t) L_varying) rho, with both parts
    assembled once as :func:`integrate_constant` does and ``rate`` evaluated
    at every internal Runge-Kutta stage time (no interpolation of rates)."""
    (a0, a1), apply = _actions([fixed, varying], rho0.dim)
    return _integrate(lambda t, v: apply(a0 + rate(t) * a1, v), rho0, t_grid, spec)


def _integrate(rhs, rho0, t_grid, spec) -> list[DensityMatrix]:
    """Integrate d vec(rho)/dt = rhs(t, vec(rho)) and check the invariants."""
    states = numcore.ode_solve(rhs, vec(rho0.matrix), t_grid, spec)
    try:
        return [DensityMatrix(unvec(row, rho0.dim), atol=DRIFT_ERROR_THRESHOLD)
                for row in states]
    except ValidationError as exc:  # a NaN state fails as non-finite
        raise InvariantViolationError(
            f"invariant drift exceeded {DRIFT_ERROR_THRESHOLD:.0e}: {exc}") from exc


def choi_of_propagator(prop: Superoperator) -> ChoiMatrix:
    """Choi matrix C = sum_ij E_ij kron Map(E_ij) of the map ``prop``: a
    reshuffle of its superoperator S, C[i d + a, j d + b] = Map(E_ij)[a, b]
    = S[a + d b, i + d j].
    """
    d = prop.dim
    c = prop.matrix.reshape((d, d, d, d), order="F").transpose(2, 0, 3, 1)
    return ChoiMatrix(c.reshape(d * d, d * d))


def is_completely_positive(choi: ChoiMatrix, tol: float = 1e-9) -> CpCheckResult:
    """PSD test on the Choi spectrum: CP iff min eigenvalue >= -tol."""
    defect = numcore.hermiticity_defect(choi.matrix)
    if defect > 1e-9:
        raise NotHermitianError(
            f"Choi matrix Hermiticity defect {defect:.3e} > 1e-09; "
            "the map is not Hermiticity-preserving"
        )
    spectrum = numcore.hermitian_spectrum(choi.matrix)
    min_eig = float(spectrum[0])
    return CpCheckResult(min_eig >= -tol, min_eig, spectrum, tol, defect)


def canonical_form(gen: GkslGenerator) -> GkslGenerator:
    """Equivalent generator with diagonal Kossakowski matrix.

    Diagonalizing a = U diag(rates) U^dag rotates the Lindblad operators to
    L'_m = sum_j U[j, m] L_j; rates are clamped at zero within tolerance.
    """
    a = gen.kossakowski
    if a.shape[0] == 0:
        return gen
    rates, u = numcore.hermitian_eigensystem(a)
    rates = np.where((rates < 0) & (rates > -1e-10), 0.0, rates)
    new_ops = tuple(
        sum(u[j, m] * gen.lindblad_ops[j] for j in range(a.shape[0]))
        for m in range(a.shape[0])
    )
    return GkslGenerator(
        gen.hamiltonian,
        new_ops,
        np.diag(rates).astype(complex),
        validate_psd=bool(np.all(rates >= 0)),
    )


def _complex_matrices(value, path):
    if not isinstance(value, list):
        raise ValidationError(f"{path} must be a list of matrices")
    return tuple(complex_matrix(m, f"{path}[{i}]") for i, m in enumerate(value))


def _kossakowski(value, path):
    """A complex matrix, or [] for the empty one of a generator without operators."""
    return np.zeros((0, 0), dtype=complex) if value == [] else complex_matrix(value, path)


# A scenario's parameters block
PARAMETERS = obj({
    "hamiltonian": (complex_matrix, REQUIRED),
    "lindblad_ops": (_complex_matrices, REQUIRED),
    "kossakowski": (_kossakowski, REQUIRED),
    "rho0": (complex_matrix, REQUIRED),
}, name="parameters")


def build(p, _quadrature) -> GkslGenerator:
    # GkslGenerator checks the operator and Kossakowski dimensions and PSD-ness
    gen = GkslGenerator(p["hamiltonian"], p["lindblad_ops"], p["kossakowski"])
    if len(p["rho0"]) != gen.dim:
        raise ValidationError(f"rho0 must have {gen.dim} rows, got {len(p['rho0'])}")
    return gen


def initial_state(p) -> DensityMatrix:
    return DensityMatrix(p["rho0"])


# check-cp's map: t -> exp(t L)
channel = semigroup_channel


# CSV columns of a gksl run, between "t" and "trace_drift"
COLUMNS = ("trace_re", "purity", "coherence_abs")


def run(gen: GkslGenerator, rho0: DensityMatrix, t_grid, ode: OdeSpec | None):
    """Integrate the generator along the uniform t_grid; yield per time the
    state, the :data:`COLUMNS` values and the residual against the semigroup."""
    # the reference route: powers of exp(dt L) on the uniform grid
    references = semigroup_trajectory(gen, rho0, t_grid[1] - t_grid[0], len(t_grid))
    for state, reference in zip(integrate_constant(gen, rho0, t_grid, ode), references):
        m = state.matrix
        values = (complex(np.trace(m)).real, float(np.trace(m @ m).real), abs(m[0, 1]))
        yield state, values, {"ode_vs_semigroup": float(np.abs(m - reference.matrix).max())}
