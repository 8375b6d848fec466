"""Numerical core: dense complex linear algebra, Gauss panel and adaptive
quadrature for damped-oscillatory integrands, and an embedded Runge-Kutta
integrator.

Everything here is a pure function of its inputs; specs and matrices are
immutable values, safe to share between threads.
"""

from .linalg import (
    as_square_complex,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    hermitian_spectrum,
    hermiticity_defect,
    matrix_exp,
    negative_eigenvalue,
    require_hermitian,
)
from .ode import DEFAULT_ODE, OdeSpec, ode_solve
from .quadrature import (
    DEFAULT_QUADRATURE,
    PanelRule,
    QuadratureSpec,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_panels,
    panel_layout,
)

__all__ = [
    "DEFAULT_ODE",
    "DEFAULT_QUADRATURE",
    "OdeSpec",
    "PanelRule",
    "QuadratureSpec",
    "as_square_complex",
    "hermitian_eigensystem",
    "hermitian_eigenvalues",
    "hermitian_spectrum",
    "hermiticity_defect",
    "integrate_adaptive",
    "integrate_oscillatory",
    "integrate_panels",
    "matrix_exp",
    "negative_eigenvalue",
    "panel_layout",
    "ode_solve",
    "require_hermitian",
]
