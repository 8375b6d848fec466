"""Collisional decoherence in the position representation (1D).

A test particle in a gas undergoes momentum kicks q drawn from a
probability law with characteristic function Phi at collision rate
``rate``; the position matrix elements then evolve in closed form,

    rho(x, y, t) = exp(-rate * (1 - Phi(x - y)) * t) * rho(x, y, 0),

so diagonals are untouched while spatial coherences decay, saturating at
the bare collision rate for widely separated points.  ``evolve_exact``
evaluates this along a whole time grid, with Phi computed once per
separation of the position grid.  The same dynamics
discretized on a position grid is a genuine GKSL generator whose Lindblad
operators are the momentum-kick unitaries diag(exp(i q x)), giving a
machine-checkable equivalence between the generator and the closed form.

The gas itself is summarized by its dynamic structure factor; for an ideal
Maxwell-Boltzmann gas (1D, hbar = 1)

    S(q, E) = sqrt(beta M / (2 pi q^2))
              * exp(-beta M (E + q^2/(2M))^2 / (2 q^2)),

a Gaussian in the energy transfer, normalized to 1 in E at fixed q and
obeying detailed balance S(q, E) = exp(-beta E) S(q, -E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Union

import numpy as np

from .errors import (
    QuadratureSupportError,
    ValidationError,
    ZeroMomentumTransferError,
)
from .gksl import DensityMatrix, GkslGenerator, integrate_constant
from .numcore import OdeSpec
from .schema import REQUIRED, integer, number, obj, positive, string


@lru_cache(maxsize=16)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights of order n, computed once per n and
    shared read-only."""
    h, v = np.polynomial.hermite.hermgauss(n)
    h.flags.writeable = v.flags.writeable = False
    return h, v


@dataclass(frozen=True)
class GaussianMomentumLaw:
    """Gaussian momentum transfers, Phi(x) = exp(-sigma_q^2 x^2 / 2)."""

    rate: float
    sigma_q: float

    def __post_init__(self):
        if not (self.rate > 0):
            raise ValidationError("rate must be > 0")
        if not (self.sigma_q > 0):
            raise ValidationError("sigma_q must be > 0")

    def phi(self, x: float) -> float:
        return math.exp(-0.5 * self.sigma_q**2 * x * x)

    def nodes(self, n_q: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Hermite nodes and weights for the kick distribution;
        weights sum to the collision rate."""
        if n_q < 16:
            raise QuadratureSupportError(
                f"gaussian law needs n_q >= 16 quadrature nodes, got {n_q}"
            )
        h, v = _hermgauss(n_q)
        q = math.sqrt(2.0) * self.sigma_q * h
        w = self.rate * v / math.sqrt(math.pi)
        if np.abs(q).max() < 4.0 * self.sigma_q:
            raise QuadratureSupportError(
                "quadrature nodes do not cover the law's effective support"
            )
        return q, w


@dataclass(frozen=True)
class TwoPointMomentumLaw:
    """Symmetric two-point kicks +-q0, Phi(x) = cos(q0 x); exactly
    representable by its two atoms, so the discretized generator is exact."""

    rate: float
    q0: float

    def __post_init__(self):
        if not (self.rate > 0):
            raise ValidationError("rate must be > 0")
        if not (self.q0 > 0):
            raise ValidationError("q0 must be > 0")

    def phi(self, x: float) -> float:
        return math.cos(self.q0 * x)

    def nodes(self, n_q: int) -> tuple[np.ndarray, np.ndarray]:
        if n_q < 2:
            raise QuadratureSupportError(
                f"two-point law needs n_q >= 2 nodes, got {n_q}"
            )
        q = np.array([-self.q0, self.q0])
        w = np.array([0.5 * self.rate, 0.5 * self.rate])
        return q, w


MomentumTransferLaw = Union[GaussianMomentumLaw, TwoPointMomentumLaw]


@dataclass(frozen=True)
class PositionDensityMatrix:
    """State on a 1D position grid; trace convention is the plain sum of
    diagonal entries (uniform unit weight per grid point); the matrix is
    checked as a :class:`DensityMatrix`, whose Hermiticity defect it keeps."""

    grid: np.ndarray
    matrix: np.ndarray
    hermiticity_defect: float = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ValidationError("grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(g)):
            raise ValidationError("grid must be finite")
        if g.size > 1 and not np.all(np.diff(g) > 0):
            raise ValidationError("grid must be strictly ascending")
        object.__setattr__(self, "grid", g)
        self._set_matrix(self.matrix)

    def _set_matrix(self, matrix) -> None:
        state = DensityMatrix(matrix)
        if state.dim != self.grid.size:
            raise ValidationError(
                f"matrix is {state.dim}x{state.dim} but grid has {self.grid.size} points"
            )
        object.__setattr__(self, "matrix", state.matrix)
        object.__setattr__(self, "hermiticity_defect", state.hermiticity_defect)

    def with_matrix(self, matrix) -> "PositionDensityMatrix":
        """The state ``matrix`` on this state's grid, which was checked when
        this state was built; ``matrix`` is checked as a :class:`DensityMatrix`."""
        state = object.__new__(PositionDensityMatrix)
        object.__setattr__(state, "grid", self.grid)
        state._set_matrix(matrix)
        return state

    @property
    def dim(self) -> int:
        return self.grid.size

    @classmethod
    def superposition(cls, grid) -> "PositionDensityMatrix":
        """Equal-amplitude coherent superposition over all grid points."""
        g = np.asarray(grid, dtype=float)
        n = g.size
        return cls(g, np.full((n, n), 1.0 / n, dtype=complex))


def decoherence_factor(law: MomentumTransferLaw, dx: float, t: float) -> float:
    """exp(-rate * (1 - Phi(dx)) * t): the closed-form suppression of a
    position coherence at separation dx after time t."""
    if t < 0:
        raise ValidationError("t must be >= 0")
    return math.exp(-law.rate * (1.0 - law.phi(dx)) * t)


def evolve_exact(
    rho0: PositionDensityMatrix, law: MomentumTransferLaw, t_grid
) -> list[PositionDensityMatrix]:
    """Entrywise closed-form evolution at each t of t_grid, with Phi
    evaluated once per separation; diagonals are exactly invariant.  The
    states share ``rho0``'s grid, which is not checked again."""
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 for t in t_grid):
        raise ValidationError("t must be >= 0")
    dx = rho0.grid[:, None] - rho0.grid[None, :]
    decay = -law.rate * (1.0 - np.vectorize(law.phi, otypes=[float])(dx))
    return [rho0.with_matrix(np.exp(decay * t) * rho0.matrix) for t in t_grid]


def build_discretized_generator(
    law: MomentumTransferLaw, grid, n_q: int
) -> GkslGenerator:
    """GKSL generator whose position-representation action is
    -rate * (1 - Phi_n(x_i - x_j)) * rho_ij: one unitary kick operator
    diag(exp(i q_m x)) per quadrature node, with the node weights on the
    diagonal of the Kossakowski matrix."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValidationError("grid must be a non-empty 1-D array")
    q, w = law.nodes(n_q)
    kicks = np.zeros((q.size, g.size, g.size), dtype=complex)
    kicks[:, np.arange(g.size), np.arange(g.size)] = np.exp(1j * np.outer(q, g))
    return GkslGenerator(
        np.zeros((g.size, g.size), dtype=complex),
        tuple(kicks),
        np.diag(w).astype(complex),
    )


@dataclass(frozen=True)
class GasSpec:
    """Ideal-gas environment: particle mass, number density, inverse
    temperature, and a Gaussian Fourier-transformed interaction
    v_tilde(q) = v0 * exp(-q^2 / (2 sigma_v^2))."""

    mass: float
    density: float
    beta: float
    v0: float = 1.0
    sigma_v: float = 1.0

    def __post_init__(self):
        for name in ("mass", "density", "beta", "sigma_v"):
            if not (getattr(self, name) > 0):
                raise ValidationError(f"{name} must be > 0")

    def interaction_ft(self, q: float) -> float:
        return self.v0 * math.exp(-q * q / (2.0 * self.sigma_v**2))

    def mu(self, q: float) -> float:
        """Collision kernel prefactor (2 pi)^4 n |v_tilde(q)|^2 (hbar = 1);
        sets the overall scale of the momentum-transfer density."""
        return (2.0 * math.pi) ** 4 * self.density * self.interaction_ft(q) ** 2


def log_mb_structure_factor(gas: GasSpec, q: float, e: float) -> float:
    """log S(q, E) for the Maxwell-Boltzmann gas; kept in log space so
    ratios of exponentially small values stay exact."""
    if q == 0:
        raise ZeroMomentumTransferError("structure factor needs q != 0")
    bm = gas.beta * gas.mass
    recoil = q * q / (2.0 * gas.mass)
    return 0.5 * math.log(bm / (2.0 * math.pi * q * q)) - bm * (e + recoil) ** 2 / (
        2.0 * q * q
    )


def mb_structure_factor(gas: GasSpec, q: float, e: float) -> float:
    """Dynamic structure factor of the ideal Maxwell-Boltzmann gas: a
    Gaussian in E peaked at -q^2/(2M), unit-normalized in E."""
    return math.exp(log_mb_structure_factor(gas, q, e))


def detailed_balance_ratio(gas: GasSpec, q: float, e: float) -> float:
    """S(q, E) / S(q, -E), computed in log space; equals exp(-beta E)."""
    return math.exp(
        log_mb_structure_factor(gas, q, e) - log_mb_structure_factor(gas, q, -e)
    )


def fdt_response(gas: GasSpec, q: float, e: float) -> float:
    """Dissipative response chi''(q, E) = pi (1 - exp(beta E)) S(q, E),
    antisymmetric in E; the E = 0 limit is 0.  Computed in log space once
    beta E is large enough for exp(beta E) to dominate."""
    if e == 0.0:
        if q == 0:
            raise ZeroMomentumTransferError("structure factor needs q != 0")
        return 0.0
    be = gas.beta * e
    log_s = log_mb_structure_factor(gas, q, e)
    if be > 30.0:
        return -math.pi * math.exp(be + log_s)
    return -math.pi * math.expm1(be) * math.exp(log_s)


def _grid(value, path):
    if not isinstance(value, list) or len(value) < 2:
        raise ValidationError(f"{path} must be a list of at least 2 positions")
    grid = [number(x, f"{path}[{i}]") for i, x in enumerate(value)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"{path} must be strictly ascending")
    return grid


# law kind -> (law table, default number of kick-quadrature nodes, law class)
_LAWS = {
    "gaussian": (obj({"kind": (string, REQUIRED), "sigma_q": (positive, REQUIRED)}),
                 64, GaussianMomentumLaw),
    "two_point": (obj({"kind": (string, REQUIRED), "q0": (positive, REQUIRED)}),
                  2, TwoPointMomentumLaw),
}


def _law(value, path):
    if not isinstance(value, dict) or "kind" not in value:
        raise ValidationError(f'{path} must be an object with a "kind" key')
    kind = string(value["kind"], f"{path}.kind", choices=tuple(_LAWS))
    return _LAWS[kind][0](value, path)


# A scenario's parameters block
PARAMETERS = obj({
    "law": (_law, REQUIRED),
    "grid": (_grid, REQUIRED),
    "rate": (positive, REQUIRED),
    "n_q": (partial(integer, minimum=2), lambda out: _LAWS[out["law"]["kind"]][1]),
    "initial_state": (partial(string, choices=("superposition",)), "superposition"),
}, name="parameters")


def build(p, _quadrature) -> tuple:
    """(law, discretized generator): the system that :func:`run` takes."""
    law_fields = {k: v for k, v in p["law"].items() if k != "kind"}
    law = _LAWS[p["law"]["kind"]][2](rate=p["rate"], **law_fields)
    return law, build_discretized_generator(law, p["grid"], p["n_q"])


def initial_state(p) -> PositionDensityMatrix:
    return PositionDensityMatrix.superposition(p["grid"])


# check-cp has no channel to certify for a collisional scenario
channel = None


# CSV columns of a collisional run, between "t" and "trace_drift"
COLUMNS = ("offdiag_abs", "offdiag_abs_numeric", "decoherence_factor")


def run(system, rho0: PositionDensityMatrix, t_grid, ode: OdeSpec | None):
    """Integrate ``system = (law, generator)`` along t_grid; yield per time the
    state, the :data:`COLUMNS` values and the residuals against the closed form."""
    law, gen = system
    extreme_dx = float(rho0.grid[-1] - rho0.grid[0])
    trajectory = integrate_constant(gen, rho0, t_grid, ode)
    for t, closed, state in zip(t_grid, evolve_exact(rho0, law, t_grid), trajectory):
        exact, m = closed.matrix, state.matrix
        offdiag = abs(exact[0, -1])
        factor = decoherence_factor(law, extreme_dx, float(t))
        yield state, (offdiag, abs(m[0, -1]), factor), {
            "exact_vs_discretized_generator": float(np.abs(m - exact).max()),
            "diagonal_drift": float(np.abs(np.diag(m) - np.diag(rho0.matrix)).max()),
            "decoherence_factor_vs_exact":
                float(abs(factor - offdiag / abs(rho0.matrix[0, -1]))),
        }
