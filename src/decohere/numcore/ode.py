"""Adaptive ODE integration on a fixed output grid.

An explicit Runge-Kutta 5(4) pair, Dormand-Prince (J. R. Dormand and
P. J. Prince, "A family of embedded Runge-Kutta formulae", J. Comput.
Appl. Math. 6 (1980) 19-26), with local extrapolation (steps advance with
the fifth-order solution), the first-same-as-last property (a step's last
stage is the next step's first) and a quartic dense output (L. F. Shampine,
"Some practical Runge-Kutta formulas", Math. Comp. 46 (1986) 135-150), as
in E. Hairer, S. P. Norsett and G. Wanner, *Solving Ordinary Differential
Equations I*, 2nd ed., Springer 1993, sec. II.4-II.6.

Step control is the standard one: the error estimate is the RMS norm over
the components of the embedded difference scaled by ``abs_tol + rel_tol
max(|y|, |y_new|)``; a step is accepted when that norm is below 1, and the
next step is the current one times ``0.9 norm^(-1/5)``, clipped to [0.2,
10] (and at most 1 right after a rejection).  No step is shorter than 10
ulp of the current time.  The grid times a step covers are evaluated on its
dense output.  The arithmetic is the same, operation for operation, as
scipy 1.17's ``solve_ivp(method="RK45", t_eval=t_grid,
first_step=min(initial_step, span))``, so both produce the same floats;
the order of operations follows scipy's ``scipy/integrate/_ivp/rk.py``
(BSD-3-Clause).

The state is integrated in its own dtype: complex128 for a complex initial
state, float64 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import MaxStepsError, StepUnderflowError, ValidationError


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

# The Dormand-Prince tableau: stage nodes C, stage weights A, fifth-order
# weights B, the embedded difference E (its last entry weighs the
# first-same-as-last stage) and the dense-output polynomial P.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (order of the error estimate + 1)
# stage s >= 1 of a step: (s, its weights on stages 0 .. s-1, its node)
_STAGES = [(s, _A[s, :s], _C[s]) for s in range(1, len(_C))]


def ode_solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[complex] | np.ndarray,
    t_grid: Sequence[float] | np.ndarray,
    spec: OdeSpec | None = None,
    *,
    before_step: Callable[[np.ndarray], None] | None = None,
) -> np.ndarray:
    """Integrate y' = rhs(t, y) from t_grid[0], returning the state at every
    grid time as rows of the result (shape ``(len(t_grid), len(y0))``).

    ``before_step(times)``, if given, is called before rhs is evaluated at
    any time of the array ``times``: once with ``[t_grid[0]]``, then once
    per attempted step from t with step h, with its five distinct stage
    times ``t + c h``, c = 1/5, 3/10, 4/5, 8/9, 1.  rhs is evaluated once
    at each of these, and twice at the last, t + h: as the step's sixth
    stage and as the derivative at its end."""
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
    if y0.ndim != 1 or y0.size == 0 or not np.all(np.isfinite(y0)):
        raise ValidationError("y0 must be a finite, non-empty 1-D array")

    budget = spec.max_steps * _EVALS_PER_STEP + 10
    nfev = 0

    def fun(tt, y):
        nonlocal nfev
        nfev += 1
        if nfev > budget:
            raise MaxStepsError(f"exceeded {spec.max_steps} steps")
        return np.asarray(rhs(tt, y), dtype=dtype)

    # the tableau in the state's dtype: np.dot would cast it at every call
    stages = [(s, a.astype(dtype), c) for s, a, c in _STAGES]
    b, e, p = _B.astype(dtype), _E.astype(dtype), _P.astype(dtype)
    t_now, t_end = float(t[0]), float(t[-1])
    y = y0
    if before_step is not None:
        before_step(np.array([t_now]))
    f = fun(t_now, y)
    h_abs = min(spec.initial_step, t_end - t_now)
    k = np.empty((len(_C) + 1, y.size), dtype=dtype)
    out, done = [], 0
    while done < t.size:
        min_step = 10 * abs(math.nextafter(t_now, math.inf) - t_now)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflowError(
                    "Required step size is less than spacing between numbers.")
            t_new = min(t_now + h_abs, t_end)
            h = t_new - t_now
            h_abs = abs(h)
            if before_step is not None:
                before_step(t_now + _C[1:] * h)
            k[0] = f
            for s, a, c in stages:
                dy = np.dot(k[:s].T, a) * h
                k[s] = fun(t_now + c * h, y + dy)
            y_new = y + h * np.dot(k[:-1].T, b)
            f_new = fun(t_now + h, y_new)
            k[-1] = f_new
            scale = spec.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * spec.rel_tol
            error = np.dot(k.T, e) * h / scale
            # the RMS norm, as np.linalg.norm(error) / sqrt(size) computes it
            squares = error.real.dot(error.real) + error.imag.dot(error.imag)
            error_norm = np.sqrt(squares) / error.size ** 0.5
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0
                          else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        # the grid times in (t_now, t_new], and t_grid[0] on the first step,
        # on the quartic interpolant of this step
        covered = np.searchsorted(t, t_new, side="right")
        if covered > done:
            q = k.T.dot(p)
            x = (t[done:covered] - t_now) / h
            powers = np.cumprod(np.tile(x, (p.shape[1], 1)), axis=0)
            out.append(h * np.dot(q, powers) + y[:, None])
            done = covered
        t_now, y, f = t_new, y_new, f_new
    return np.hstack(out).T
