"""Adaptive ODE integration on a fixed output grid.

Embedded Runge-Kutta 4(5) (Dormand-Prince) with adaptive step control.
The state is integrated in its own dtype: complex128 for a complex
initial state, float64 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.integrate

from ..errors import MaxStepsError, OdeError, StepUnderflowError, ValidationError


@dataclass(frozen=True)
class OdeSpec:
    """Tolerance and budget knobs for ode_solve."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    initial_step: float = 1e-3
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (self.abs_tol >= 1e-13):
            raise ValidationError("abs_tol must be >= 1e-13")
        if not (self.rel_tol >= 1e-13):
            raise ValidationError("rel_tol must be >= 1e-13")
        if not (self.initial_step > 0):
            raise ValidationError("initial_step must be > 0")
        if not (isinstance(self.max_steps, int) and self.max_steps >= 1):
            raise ValidationError("max_steps must be a positive integer")


DEFAULT_ODE = OdeSpec()

# RK45 performs 6 rhs evaluations per accepted or rejected step.
_EVALS_PER_STEP = 6


def ode_solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[complex] | np.ndarray,
    t_grid: Sequence[float] | np.ndarray,
    spec: OdeSpec | None = None,
) -> np.ndarray:
    """Integrate y' = rhs(t, y) from t_grid[0], returning the state at every
    grid time as rows of the result (shape ``(len(t_grid), len(y0))``)."""
    spec = spec or DEFAULT_ODE
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValidationError("t_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)):
        raise ValidationError("t_grid must be finite")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValidationError("t_grid must be strictly ascending")

    y0 = np.atleast_1d(np.asarray(y0))
    dtype = np.complex128 if np.iscomplexobj(y0) else np.float64
    y0 = y0.astype(dtype)
    if t.size == 1:
        return y0[None, :]

    budget = spec.max_steps * _EVALS_PER_STEP + 10
    nfev = 0

    def fun(tt, y):
        nonlocal nfev
        nfev += 1
        if nfev > budget:
            raise MaxStepsError(f"exceeded {spec.max_steps} steps")
        return np.asarray(rhs(tt, y), dtype=dtype)

    span = t[-1] - t[0]
    sol = scipy.integrate.solve_ivp(
        fun,
        (t[0], t[-1]),
        y0,
        method="RK45",
        t_eval=t,
        rtol=spec.rel_tol,
        atol=spec.abs_tol,
        first_step=min(spec.initial_step, span),
    )
    if not sol.success:
        message = sol.message or "ODE integration failed"
        if "step size" in message.lower():
            raise StepUnderflowError(message)
        raise OdeError(message)
    return sol.y.T
