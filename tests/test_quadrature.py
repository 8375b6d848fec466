import math

import numpy as np
import pytest

from decohere.errors import (
    MaxSubdivisionsError,
    NonFiniteIntegrandError,
    ValidationError,
)
from decohere.numcore import (
    PanelRule,
    QuadratureSpec,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_panels,
    panel_layout,
)
from decohere.numcore.quadrature import PANEL_NODES, _panel_edges


# The closed forms below are integrals over (0, inf); the integrands decay as
# exp(-w), so (0, UPPER) reproduces them far below the tolerances.
UPPER = 40.0


def test_exponential_tail():
    value, err = integrate_adaptive(lambda w: math.exp(-w), 0.0, UPPER)
    assert abs(value - 1.0) < 1e-10
    assert err < 1e-8


def test_damped_sine():
    # closed form b/(a^2 + b^2) with a = b = 1
    value, _ = integrate_adaptive(lambda w: math.exp(-w) * math.sin(w), 0.0, UPPER)
    assert abs(value - 0.5) < 1e-10


def test_frullani_type():
    # (1/2) ln(1 + t^2) at t = 1
    value, _ = integrate_adaptive(
        lambda w: math.exp(-w) * (1.0 - math.cos(w)) / w, 0.0, UPPER
    )
    assert abs(value - 0.5 * math.log(2.0)) < 1e-10


def test_additivity():
    f = lambda x: math.exp(-x) * math.cos(3 * x)  # noqa: E731
    whole, err_whole = integrate_adaptive(f, 0.0, 7.0)
    left, err_left = integrate_adaptive(f, 0.0, 2.3)
    right, err_right = integrate_adaptive(f, 2.3, 7.0)
    assert abs(whole - left - right) <= err_whole + err_left + err_right + 1e-13


def _damped(kind, t):
    """integrate_oscillatory of exp(-w) times the kind's factor over (0, UPPER)."""
    trig = {"sin": math.sin, "cos": math.cos, "1-cos": lambda x: 1.0 - math.cos(x)}[kind]
    return integrate_oscillatory(lambda w: math.exp(-w), kind, t, UPPER,
                                 head=lambda w: math.exp(-w) * trig(t * w))[0]


def test_integrate_oscillatory_against_closed_forms():
    # the head alone covers (0, UPPER) at t = 0.02, and the split at 1/t
    # leaves a QAWO bulk for every other t.
    for t in (0.02, 0.1, 0.5, 3.0, 47.0):
        assert abs(_damped("sin", t) - t / (1 + t * t)) < 1e-10
        assert abs(_damped("cos", t) - 1.0 / (1 + t * t)) < 1e-10
        assert abs(_damped("1-cos", t) - t * t / (1 + t * t)) < 1e-10
    # t = 0: no oscillation, the plain integral of the envelope
    assert abs(_damped("cos", 0.0) - 1.0) < 1e-10


def test_integrate_oscillatory_singular_envelope_uses_head():
    # integral of sin(t w)/sqrt(w) * exp(-w): envelope w^(-1/2) is singular
    # at 0 but the product is integrable; head covers the first stretch.
    t = 40.0
    value, _ = integrate_oscillatory(
        lambda w: math.exp(-w) / math.sqrt(w),
        "sin",
        t,
        UPPER,
        head=lambda w: math.exp(-w) * math.sin(t * w) / math.sqrt(w),
    )
    # Im integral of w^(-1/2) e^{-(1 - i t) w} = Im[ Gamma(1/2) (1 - i t)^(-1/2) ]
    expected = (math.sqrt(math.pi) * (1.0 - 1j * t) ** -0.5).imag
    assert abs(value - expected) < 1e-9


def test_zero_width_interval():
    assert integrate_adaptive(lambda x: 1.0, 2.0, 2.0) == (0.0, 0.0)


def test_nonfinite_integrand_raises():
    with pytest.raises(NonFiniteIntegrandError):
        integrate_adaptive(lambda x: float("nan"), 0.0, 1.0)


def test_max_subdivisions_exhausted():
    tight = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
    with pytest.raises(MaxSubdivisionsError):
        integrate_adaptive(
            lambda x: math.sin(50.0 / (x + 0.01)), 0.0, 1.0, tight
        )


def test_infinite_limits_are_rejected():
    f = lambda x: math.exp(-x)  # noqa: E731
    for a, b in ((0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValidationError):
            integrate_adaptive(f, a, b)
    with pytest.raises(ValidationError):
        integrate_oscillatory(f, "sin", 1.0, math.inf, head=lambda x: f(x) * math.sin(x))


def test_spec_invariants():
    with pytest.raises(ValidationError):
        QuadratureSpec(abs_tol=1e-15)
    with pytest.raises(ValidationError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValidationError):
        QuadratureSpec(tail_cutoff_multiplier=5.0)
    with pytest.raises(ValidationError):
        QuadratureSpec(max_subdivisions=0)


def _no_fallback():
    raise AssertionError("the panel rule fell back")


@pytest.mark.parametrize("power", [-0.97, -0.5, 0.0, 1.0, 3.5])
def test_panel_rule_is_exact_on_polynomials(power):
    # integral over (0, 1) of u^power u^k = 1 / (power + k + 1), exact for
    # k < 2n on the n-point Gauss rule
    rule = PanelRule(power)
    for (x, w), p in ((rule.jacobi, power), (rule.legendre, 0.0)):
        for lo, n in ((0, PANEL_NODES), (PANEL_NODES, 2 * PANEL_NODES)):
            xs, ws = x[lo:lo + n], w[lo:lo + n]
            assert np.all((xs > 0) & (xs < 1))
            for k in range(2 * n):
                assert (ws * xs**k).sum() == pytest.approx(1 / (p + k + 1), rel=1e-13)


def test_panel_rule_rejects_non_integrable_power():
    with pytest.raises(ValidationError):
        PanelRule(-1.0)


@pytest.mark.parametrize("t", [0.0, 0.3, 7.0, 60.0])
@pytest.mark.parametrize("head_width", [math.inf, 0.01])
def test_panel_edges_respect_the_widths(t, head_width):
    upper, scale = 40.0, 1.0
    max_width = min(math.pi / t, scale) if t else scale
    edges = _panel_edges(upper, max_width, head_width, 2048)
    widths = np.diff(edges)
    assert edges[0] == 0.0 and edges[-1] == pytest.approx(upper, rel=1e-14)
    assert widths[0] <= min(head_width, max_width)
    assert np.all(widths <= max_width * (1 + 1e-12))
    # beyond the head, each panel is at least its own width away from 0
    assert np.all(widths[1:] <= edges[1:-1] * (1 + 1e-12))
    assert _panel_edges(upper, max_width, head_width, widths.size - 1) is None


@pytest.mark.parametrize("power", [-0.5, 0.0, 1.5])
@pytest.mark.parametrize("t", [0.5, 3.0, 47.0])
def test_integrate_panels_against_closed_forms(power, t):
    # integral of w^p e^(-w) e^(i t w) = Gamma(p + 1) (1 - i t)^(-(p + 1))
    rule = PanelRule(power)
    exact = math.gamma(power + 1) * (1.0 - 1j * t) ** -(power + 1)
    layout = panel_layout(rule, 40.0, min(math.pi / t, 1.0), 2048)
    v_sin, err = integrate_panels(lambda w: np.exp(-w) * np.sin(t * w), layout,
                                  fallback=_no_fallback)
    v_cos, _ = integrate_panels(lambda w: np.exp(-w) * np.cos(t * w), layout,
                                fallback=_no_fallback)
    assert abs(v_sin - exact.imag) < 1e-12
    assert abs(v_cos - exact.real) < 1e-12
    assert err < 1e-10


def test_integrate_panels_falls_back():
    rule = PanelRule(0.5)
    layout = panel_layout(rule, 40.0, 1.0, 2048)
    sentinel = (123.0, 0.0)
    smooth = lambda w: 50.0 * np.exp(-w)  # noqa: E731
    assert integrate_panels(smooth, layout, fallback=_no_fallback)[0] == (
        pytest.approx(50.0 * math.gamma(1.5), rel=1e-13))
    # tolerance below the rule's roundoff floor
    tight = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14)
    fallback = lambda: sentinel  # noqa: E731
    assert integrate_panels(smooth, layout, tight, fallback=fallback) == sentinel
    # more panels than the subdivision budget: no layout
    few = QuadratureSpec(max_subdivisions=8)
    assert panel_layout(rule, 40.0, 1.0, few.max_subdivisions) is None
    assert integrate_panels(smooth, None, few, fallback=fallback) == sentinel
    # non-finite integrand values
    nan = lambda w: np.where(w > 3.0, np.nan, 1.0)  # noqa: E731
    assert integrate_panels(nan, layout, fallback=fallback) == sentinel


def test_integrate_panels_validates_its_ranges():
    with pytest.raises(ValidationError):
        panel_layout(PanelRule(0.0), 0.0, 1.0, 2048)
    with pytest.raises(ValidationError):
        panel_layout(PanelRule(0.0), 1.0, 0.0, 2048)
