"""Quadrature for the damped-oscillatory spectral integrands.

Every routine integrates over a finite range; the caller decides where a
decaying integrand is cut off.

:func:`integrate_panels` is the fast rule.  It integrates w^p g(w) over
(0, upper), for a power law w^p times a smooth g, by Gauss panels that
:func:`panel_layout` lays out once: a Gauss-Jacobi head panel carries the
weight w^p exactly, the panels after it double in width until they reach
the caller's maximum width (for an integrand oscillating as sin/cos(w t),
at most one period 2 pi/t), and Gauss-Legendre panels of at most that
width cover the rest.  A layout holds the nodes of an n- and a 2n-point
rule on every panel and their weights, w^p included, and depends on no
integrand, so a caller can keep it for every integral over the same
panels.  A caller whose g is a fixed factor f times a varying one folds f
into the weights once (:meth:`PanelLayout.folded`), so that each integral
evaluates only the varying factor, as one numpy array over the layout's
nodes; one matrix product gives each panel's two rule sums.  g may also
return a stack of integrands, one per leading index (say, one per t), and
all of them are summed in the same numpy pass.  The sum of the per-panel
differences of the two rules, plus a roundoff floor, is each integral's
error estimate.  When that estimate misses max(abs_tol, rel_tol *
|value|), the values are not finite, or there is no layout because the
panels would outnumber ``max_subdivisions``, the caller's fallback
computes that integral instead.

:func:`integrate_gauss_kronrod` is adaptive Gauss-Kronrod 10/21 bisection
with QUADPACK's ``qk21`` nodes, weights and error estimate, for an
integrand that maps an array of abscissae to an array of values: it hands
the integrand all 42 abscissae of an interval's two halves at once.  It
has no extrapolation, so its values can differ from QUADPACK's within the
tolerance.

:func:`integrate_adaptive` hands a scalar integrand to QUADPACK's adaptive
Gauss-Kronrod bisection.  :func:`integrate_oscillatory`, the fallback of
the spectral integrals, takes an envelope times sin(t w), cos(t w) or
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

    def __post_init__(self):
        if not (self.abs_tol >= 1e-14):
            raise ValidationError("abs_tol must be >= 1e-14")
        if not (self.rel_tol >= 1e-14):
            raise ValidationError("rel_tol must be >= 1e-14")
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions >= 1):
            raise ValidationError("max_subdivisions must be a positive integer")


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

# Row terms @ _RULE_SUMS of a panel's terms: (upper rule's sum, upper's
# minus lower's), every panel in one matrix product.
_RULE_SUMS = np.concatenate([np.tile([0.0, -1.0], (PANEL_NODES, 1)),
                             np.ones((2 * PANEL_NODES, 2))])

# QUADPACK's roundoff floor: no rule resolves below 50 eps of the
# integral of |w^p g|.
_ROUNDOFF_FLOOR = 50 * np.finfo(float).eps


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

    def folded(self, factor: np.ndarray) -> PanelLayout:
        """The layout with ``factor``, an array of values at its nodes,
        multiplied into its weights: :func:`integrate_panels` then
        integrates w^p factor(w) g(w)."""
        return PanelLayout(self.upper, self.nodes, self.weights * factor)


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
    fallback: Callable[..., tuple],
) -> tuple:
    """Integrate w^p * g(w) over the layout's (0, upper) to (value,
    error_estimate), for the power p of the rule it was built with (times
    any factor folded into its weights).

    ``g`` maps the array of nodes (all > 0) to an array of values, entry
    by entry, and must be smooth on [0, upper]: its complex singularities
    at least the head width from 0 and, beyond the head panel, further
    from each panel than the panel's own width.  When the layout is None
    (too many panels), the estimate exceeds max(abs_tol, rel_tol *
    |value|), or the values are not finite, the result of ``fallback()``
    is returned instead.

    ``g`` may instead return a stack of n integrands, shape ``(n,
    *nodes.shape)``.  value and error_estimate are then arrays of n, and
    the integrands ``rows`` (an index array) that miss their estimate take
    ``fallback(rows)``, a pair of arrays over ``rows``; ``fallback()``
    still answers for every integrand when there is no layout.
    """
    spec = spec or DEFAULT_QUADRATURE
    if layout is None:
        return fallback()
    terms = layout.weights * g(layout.nodes)
    sums = terms @ _RULE_SUMS
    value = sums[..., 0].sum(axis=-1)
    err = np.abs(sums[..., 1]).sum(axis=-1) + _ROUNDOFF_FLOOR * np.abs(terms).sum(axis=(-2, -1))
    met = err <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
    if value.ndim == 0:
        return (float(value), float(err)) if met else fallback()
    if not met.all():
        missed = np.flatnonzero(~met)
        value[missed], err[missed] = fallback(missed)
    return value, err


# QUADPACK's qk21 (dqk21.f): the 21-point Kronrod abscissae on (-1, 1),
# from the largest to the centre, and their weights; the 2nd, 4th, ... of
# them are the abscissae of the 10-point Gauss rule, with weights _WG10.
_XK21 = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WK21 = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980074700, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG10 = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# The same on the 21 abscissae in ascending order, -x_1 .. 0 .. x_1: the
# Kronrod weights and the Gauss weights (0 off the Gauss abscissae).
_K21_X = np.concatenate([-_XK21[:-1], _XK21[::-1]])
_K21_W = np.concatenate([_WK21[:-1], _WK21[::-1]])
_G10_W = np.zeros(21)
_G10_W[1:10:2] = _WG10
_G10_W[19:10:-2] = _WG10
# qk21's floor on an error estimate: 50 eps of the integral of |f|, for
# integrals of |f| above the smallest normal float / (50 eps).
_EPS = np.finfo(float).eps
_ABS_FLOOR_FROM = np.finfo(float).tiny / (50 * _EPS)


def _kronrod21(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qk21 on each interval (lo[i], hi[i]), with f evaluated once on all
    of their abscissae: (values, error estimates)."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = centre[:, None] + half[:, None] * _K21_X
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        i = np.flatnonzero(~np.isfinite(fx))[0]
        raise NonFiniteIntegrandError(
            f"integrand returned {float(fx.flat[i])!r} at x = {float(x.flat[i])!r}")
    resk, resg = fx @ _K21_W, fx @ _G10_W
    resabs = np.abs(fx) @ _K21_W * np.abs(half)
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _K21_W * np.abs(half)
    err = np.abs((resk - resg) * half)
    scaled = (resasc != 0) & (err != 0)
    err[scaled] = resasc[scaled] * np.minimum(1.0, (200 * err[scaled] / resasc[scaled]) ** 1.5)
    err = np.where(resabs > _ABS_FLOOR_FROM, np.maximum(50 * _EPS * resabs, err), err)
    return resk * half, err


def integrate_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """Integrate f over the finite range (a, b) to (value, error_estimate)
    by adaptive Gauss-Kronrod 10/21 bisection (QUADPACK's qk21 rule and
    error estimate, without its extrapolation): the interval with the
    largest estimate is halved until the estimates sum to at most
    max(abs_tol, rel_tol |value|), over at most ``max_subdivisions``
    intervals.

    ``f`` maps a 1-D array of abscissae to the array of its values, entry
    by entry; it gets the 21 abscissae of (a, b), then those of both halves
    of each bisected interval, in one call."""
    spec = spec or DEFAULT_QUADRATURE
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValidationError("integration limits must be finite and ascending")
    if b == a:
        return 0.0, 0.0
    lo, hi = np.array([float(a)]), np.array([float(b)])
    values, errs = _kronrod21(f, lo, hi)
    while (err := float(errs.sum())) > max(spec.abs_tol, spec.rel_tol * abs(values.sum())):
        if values.size >= spec.max_subdivisions:
            raise MaxSubdivisionsError(
                f"the maximum number of subdivisions ({spec.max_subdivisions}) has been "
                f"achieved with error estimate {err:.3g}")
        i = int(np.argmax(errs))
        mid = 0.5 * (lo[i] + hi[i])
        halves = _kronrod21(f, np.array([lo[i], mid]), np.array([mid, hi[i]]))
        lo = np.concatenate([np.delete(lo, i), [lo[i], mid]])
        hi = np.concatenate([np.delete(hi, i), [mid, hi[i]]])
        values = np.concatenate([np.delete(values, i), halves[0]])
        errs = np.concatenate([np.delete(errs, i), halves[1]])
    return float(values.sum()), err
