"""Quadrature for the damped-oscillatory spectral integrands.

Every routine integrates over a finite range; the caller decides where a
decaying integrand is cut off.

:func:`integrate_panels` is the fast rule.  It integrates w^p g(w) over
(0, upper), for a power law w^p times a smooth g, by Gauss panels that
:func:`panel_layout` lays out once: a Gauss-Jacobi head panel carries the
weight w^p exactly, the panels after it double in width until they reach
the caller's maximum width (at most pi/t for an integrand oscillating as
sin/cos(w t)), and Gauss-Legendre panels of at most that width cover the
rest.  A layout holds the nodes of an n- and a 2n-point rule on every
panel and their weights, w^p included, and depends on no integrand, so a
caller can keep it for every integral over the same panels.  g is
evaluated once per integral, as one numpy array over the layout's nodes;
the sum of the per-panel differences of the two rules, plus a roundoff
floor, is the error estimate.  When that estimate misses max(abs_tol,
rel_tol * |value|), the values are not finite, or there is no layout
because the panels would outnumber ``max_subdivisions``, the caller's
fallback computes the integral instead.

:func:`integrate_adaptive` hands the integrand to adaptive Gauss-Kronrod
bisection (QUADPACK).  :func:`integrate_oscillatory`, the fallback of the
spectral integrals, takes an envelope times sin(t w), cos(t w) or
1 - cos(t w) over (0, upper): the product on the first stretch up to 1/t,
split at the caller's breakpoints, then the trigonometric weight handed to
an adaptive Clenshaw-Curtis rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg

from ..errors import (
    MaxSubdivisionsError,
    NonFiniteIntegrandError,
    QuadratureError,
    ValidationError,
)

# The oscillating factors integrate_oscillatory takes.
_TRIG = ("sin", "cos", "1-cos")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget knobs for the quadrature routines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2048
    tail_cutoff_multiplier: float = 40.0

    def __post_init__(self):
        if not (self.abs_tol >= 1e-14):
            raise ValidationError("abs_tol must be >= 1e-14")
        if not (self.rel_tol >= 1e-14):
            raise ValidationError("rel_tol must be >= 1e-14")
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions >= 1):
            raise ValidationError("max_subdivisions must be a positive integer")
        if not (self.tail_cutoff_multiplier >= 10):
            raise ValidationError("tail_cutoff_multiplier must be >= 10")


DEFAULT_QUADRATURE = QuadratureSpec()


def _checked(f: Callable[[float], float]) -> Callable[[float], float]:
    def wrapped(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise NonFiniteIntegrandError(f"integrand returned {y!r} at x = {x!r}")
        return y

    return wrapped


def _invoke_quad(f, a, b, spec, *, points=None, weight=None, wvar=None):
    kwargs = {
        "limit": spec.max_subdivisions,
        "epsabs": spec.abs_tol,
        "epsrel": spec.rel_tol,
        "full_output": True,
    }
    if points:
        kwargs["points"] = points
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
        kwargs["maxp1"] = 100
    try:
        result = scipy.integrate.quad(_checked(f), a, b, **kwargs)
    except NonFiniteIntegrandError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise QuadratureError(f"quadrature failed: {exc}") from exc
    value, err = result[0], result[1]
    if len(result) > 3:  # QUADPACK warning message appended
        message = result[3]
        if "subdivisions" in message or "cycles" in message:
            raise MaxSubdivisionsError(message.strip())
        raise QuadratureError(message.strip())
    return float(value), float(err)


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
    *,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate f over the finite range (a, b) to (value, error_estimate);
    ``breakpoints`` inside (a, b) become subdivision points."""
    spec = spec or DEFAULT_QUADRATURE
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValidationError("integration limits must be finite and ascending")
    if b == a:
        return 0.0, 0.0

    pts = sorted({p for p in breakpoints if a < p < b})
    return _invoke_quad(f, a, b, spec, points=pts or None)


def integrate_oscillatory(
    envelope: Callable[[float], float],
    kind: str,
    t: float,
    upper: float,
    spec: QuadratureSpec | None = None,
    *,
    head: Callable[[float], float],
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate envelope(w) times sin(t w) (kind="sin"), cos(t w)
    (kind="cos") or 1 - cos(t w) (kind="1-cos") over the finite range
    (0, upper), for t >= 0.

    ``head``, that product written without the envelope's singularity at 0
    (the weighted rule evaluates at interval endpoints), is integrated over
    (0, min(1/t, upper)) by :func:`integrate_adaptive` with the
    ``breakpoints`` inside; a weighted Clenshaw-Curtis rule takes the rest
    (for "1-cos", the plain integral of envelope minus the cosine-weighted
    one)."""
    spec = spec or DEFAULT_QUADRATURE
    if kind not in _TRIG:
        raise ValidationError('kind must be "sin", "cos" or "1-cos"')
    if not (t >= 0):
        raise ValidationError("oscillation parameter t must be >= 0")
    if not (0.0 <= upper < math.inf):
        raise ValidationError("upper limit must be finite and >= 0")

    split = min(1.0 / t, upper) if t > 0 else upper
    head_value, head_err = integrate_adaptive(head, 0.0, split, spec, breakpoints=breakpoints)
    if split == upper:
        return head_value, head_err
    if kind == "1-cos":
        smooth, smooth_err = _invoke_quad(envelope, split, upper, spec)
        osc, osc_err = _invoke_quad(envelope, split, upper, spec, weight="cos", wvar=t)
        return head_value + smooth - osc, head_err + smooth_err + osc_err
    bulk_value, bulk_err = _invoke_quad(envelope, split, upper, spec, weight=kind, wvar=t)
    return head_value + bulk_value, head_err + bulk_err


# Nodes per panel of the lower rule of the panel pair; the upper has twice
# as many.  On the panels panel_layout lays out the lower rule is
# already near roundoff, so the pair's difference bounds the upper's error
# with a wide margin.
PANEL_NODES = 12


def _gauss_rule(n: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the integral of
    u^power f(u) over (0, 1), power > -1 (Golub-Welsch on the Jacobi
    recurrence; more accurate than ``scipy.special.roots_jacobi`` as power
    approaches -1)."""
    p = power
    k = np.arange(1, n, dtype=float)
    diag = np.empty(n)
    diag[0] = p / (p + 2.0)
    diag[1:] = p * p / ((2 * k + p) * (2 * k + p + 2))
    off = 2 * k * (k + p) / ((2 * k + p) * np.sqrt((2 * k + p) ** 2 - 1.0))
    x, vectors = scipy.linalg.eigh_tridiagonal(diag, off)
    return 0.5 * (1.0 + x), vectors[0] ** 2 / (p + 1.0)


@dataclass(frozen=True)
class PanelRule:
    """Gauss-Jacobi (weight u^power) and Gauss-Legendre nodes and weights
    on (0, 1): everything :func:`panel_layout` needs that does not
    depend on the panels.  Each is the PANEL_NODES-point rule followed by
    the rule with twice as many nodes.

    Building one costs four small eigenproblems, so callers build it once
    per power law and pass it to every layout."""

    power: float
    jacobi: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    legendre: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.power > -1.0):
            raise ValidationError("panel rule power must be > -1")
        for name, power in (("jacobi", self.power), ("legendre", 0.0)):
            lo, hi = _gauss_rule(PANEL_NODES, power), _gauss_rule(2 * PANEL_NODES, power)
            object.__setattr__(
                self, name, (np.concatenate([lo[0], hi[0]]), np.concatenate([lo[1], hi[1]]))
            )


def _panel_edges(upper: float, max_width: float, head_width: float,
                 max_panels: int) -> np.ndarray | None:
    """0, a head panel no wider than head_width or max_width, panels that
    double in width (so each stays at least its own width away from 0)
    until they reach max_width, then equal panels no wider than it; None
    when that makes more than max_panels panels."""
    edges = [0.0, min(head_width, max_width, upper)]
    while edges[-1] < max_width and 2 * edges[-1] < upper:
        edges.append(2 * edges[-1])
    n = math.ceil((upper - edges[-1]) / max_width)
    if len(edges) - 1 + n > max_panels:
        return None
    step = (upper - edges[-1]) / max(n, 1)
    return np.concatenate([edges, edges[-1] + step * np.arange(1, n + 1)])


@dataclass(frozen=True)
class PanelLayout:
    """The nodes and weights of :func:`panel_layout` on (0, upper).

    Row 0 is the head panel, row k the k-th panel after it; the first
    PANEL_NODES columns hold the lower rule, the rest the upper.  The
    weights include the power law w^p, so the integral of w^p g(w) is the
    sum of ``weights * g(nodes)``."""

    upper: float
    nodes: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)


def panel_layout(rule: PanelRule, upper: float, max_width: float, max_panels: int, *,
                 head_width: float = math.inf) -> PanelLayout | None:
    """Gauss panels on (0, upper) with ``rule``'s nodes and weights: a head
    panel no wider than ``head_width`` or ``max_width``, panels that double
    in width until they reach ``max_width``, then equal panels no wider
    than it; None when that makes more than ``max_panels`` panels.

    A layout depends on no integrand, so one built once serves every
    integral over the same panels."""
    if not (upper > 0 and max_width > 0 and head_width > 0):
        raise ValidationError("upper, max_width and head_width must be > 0")
    edges = _panel_edges(upper, max_width, head_width, max_panels)
    if edges is None:
        return None
    p = rule.power
    head = edges[1]
    x_jac, w_jac = rule.jacobi
    x_leg, w_leg = rule.legendre
    width = np.diff(edges[1:])[:, None]
    tail = edges[1:-1, None] + width * x_leg
    nodes = np.concatenate([head * x_jac[None], tail])
    weights = np.concatenate([head ** (p + 1) * w_jac[None], width * w_leg * tail**p])
    return PanelLayout(upper, nodes, weights)


def integrate_panels(
    g: Callable[[np.ndarray], np.ndarray],
    layout: PanelLayout | None,
    spec: QuadratureSpec | None = None,
    *,
    fallback: Callable[[], tuple[float, float]],
) -> tuple[float, float]:
    """Integrate w^p * g(w) over the layout's (0, upper) to (value,
    error_estimate), for the power p of the rule it was built with.

    ``g`` maps the array of nodes (all > 0) to an array of values, entry
    by entry, and must be smooth on [0, upper]: its complex singularities
    at least the head width from 0 and, beyond the head panel, further
    from each panel than the panel's own width.  When the layout is None
    (too many panels), the estimate exceeds max(abs_tol, rel_tol *
    |value|), or the values are not finite, the result of ``fallback()``
    is returned instead.
    """
    spec = spec or DEFAULT_QUADRATURE
    if layout is None:
        return fallback()
    terms = layout.weights * g(layout.nodes)
    lo = terms[:, :PANEL_NODES].sum(axis=1)
    hi = terms[:, PANEL_NODES:].sum(axis=1)
    value = float(hi.sum())
    # QUADPACK's roundoff floor: no rule resolves below 50 eps of the
    # integral of |w^p g|.
    err = float(np.abs(hi - lo).sum() + 50 * np.finfo(float).eps * np.abs(terms).sum())
    if err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
        return value, err
    return fallback()
