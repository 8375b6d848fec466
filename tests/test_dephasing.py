import contextlib
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decohere.dephasing
from decohere import (
    BathSpec,
    DensityMatrix,
    DephasingModel,
    SpectralDensity,
    apply_generator,
    choi_of_propagator,
    integrate_time_dependent,
)
from decohere.dephasing import _KERNELS
from decohere.errors import (
    NegativeFrequencyError,
    NegativeRateWarning,
    ValidationError,
)
from decohere.gksl import _entrywise_kernel
from decohere.numcore import QuadratureSpec, integrate_panels, panel_layout

PLUS = DensityMatrix.pure([1.0, 1.0])


def ohmic_zero_t(omega0=0.0, coupling=1.0, s=1.0, omega_c=1.0):
    return DephasingModel(
        omega0, SpectralDensity(coupling, s, omega_c), BathSpec(math.inf)
    )


# ----------------------------------------------------------------------
# spectral density
# ----------------------------------------------------------------------


def test_spectral_vanishes_at_zero():
    assert SpectralDensity(1.0, 1.0, 1.0)(0.0) == 0.0
    assert SpectralDensity(1.0, 0.5, 2.0)(0.0) == 0.0


def test_spectral_ohmic_value():
    assert abs(SpectralDensity(1.0, 1.0, 1.0)(1.0) - math.exp(-1.0)) < 1e-15


def test_spectral_linear_in_coupling():
    j1 = SpectralDensity(1.0, 1.0, 1.0)
    j2 = SpectralDensity(2.0, 1.0, 1.0)
    for w in (0.1, 1.0, 7.3):
        assert abs(j2(w) - 2.0 * j1(w)) < 1e-15


def test_spectral_rejects_negative_frequency():
    with pytest.raises(NegativeFrequencyError):
        SpectralDensity(1.0, 1.0, 1.0)(-0.5)


def test_spectral_parameter_validation():
    with pytest.raises(ValidationError):
        SpectralDensity(-1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        SpectralDensity(1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        SpectralDensity(1.0, 1.0, -2.0)


def test_bath_validation_and_thermal_factor():
    with pytest.raises(ValidationError):
        BathSpec(0.0)
    assert BathSpec(math.inf).thermal_factor(3.0) == 1.0
    assert abs(BathSpec(2.0).thermal_factor(1.0) - 1.0 / math.tanh(1.0)) < 1e-15


def test_thermal_factor_pole_and_thermal_weight_limit():
    bath = BathSpec(2.0)
    assert bath.thermal_factor(0.0) == math.inf
    w = np.array([0.0, 1e-300, 1e-8, 0.3, 40.0])
    weight = bath.thermal_weight(w)
    assert np.all(np.isfinite(weight))
    assert weight[0] == 1.0  # the limit 2 / beta
    assert weight[1:] == pytest.approx(w[1:] / np.tanh(w[1:]), rel=1e-15, abs=0)
    assert np.array_equal(BathSpec(math.inf).thermal_weight(w), w)


# ----------------------------------------------------------------------
# bath correlation function
# ----------------------------------------------------------------------


def test_correlation_at_zero_time_zero_temperature():
    # integral of w e^{-w} = Gamma(2) = 1
    alpha = ohmic_zero_t().bath_correlation(0.0)
    assert abs(alpha - 1.0) < 1e-10


def test_correlation_imaginary_part_closed_form():
    # -integral of w e^{-w} sin(w) dw = -2ab/(a^2+b^2)^2 at a = b = 1
    alpha = ohmic_zero_t().bath_correlation(1.0)
    assert abs(alpha.imag + 0.5) < 1e-10


def test_correlation_zero_temperature_is_large_beta_limit():
    cold = DephasingModel(0.0, SpectralDensity(1.0, 1.0, 1.0), BathSpec(1e6))
    frozen = ohmic_zero_t()
    for t in (0.0, 0.7, 2.5):
        assert abs(cold.bath_correlation(t) - frozen.bath_correlation(t)) < 1e-6


def test_correlation_parity():
    model = DephasingModel(0.0, SpectralDensity(0.7, 1.5, 2.0), BathSpec(1.3))
    for t in (0.4, 1.9):
        plus = model.bath_correlation(t)
        minus = model.bath_correlation(-t)
        assert abs(plus.real - minus.real) < 1e-10
        assert abs(plus.imag + minus.imag) < 1e-10


# ----------------------------------------------------------------------
# dephasing rate
# ----------------------------------------------------------------------


def test_rate_zero_at_t0():
    assert ohmic_zero_t().dephasing_rate(0.0) == 0.0


def test_rate_ohmic_closed_form():
    # lambda wc^2 t / (1 + wc^2 t^2)
    model = ohmic_zero_t()
    assert abs(model.dephasing_rate(1.0) - 0.5) < 1e-10
    for t in (0.3, 2.0, 9.0):
        assert abs(model.dephasing_rate(t) - t / (1 + t * t)) < 1e-10


def test_rate_long_time_decay():
    value = ohmic_zero_t().dephasing_rate(100.0)
    assert abs(value) < 1e-2
    assert abs(value - 100.0 / (1 + 100.0**2)) < 1e-10


def test_rate_sign_is_recorded_not_asserted():
    # super-Ohmic s = 3 at zero temperature goes negative past t ~ sqrt(3)
    model = DephasingModel(0.0, SpectralDensity(1.0, 3.0, 1.0), BathSpec(math.inf))
    signs = {t: math.copysign(1.0, model.dephasing_rate(t)) for t in (1.0, 4.0)}
    assert signs[1.0] > 0 and signs[4.0] < 0


def test_rate_two_forms_agree_on_sample():
    for lam, s, wc, beta in [
        (1.0, 1.0, 1.0, math.inf),
        (0.1, 0.5, 5.0, 1.0),
        (1.0, 2.0, 1.0, 0.1),
    ]:
        model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))
        for t in (0.5, 3.0):
            a = model.dephasing_rate(t)
            b = model.dephasing_rate_from_correlation(t)
            assert abs(a - b) < 1e-7


# ----------------------------------------------------------------------
# decoherence function
# ----------------------------------------------------------------------


def test_decoherence_zero_at_t0():
    assert ohmic_zero_t().decoherence_function(0.0) == 0.0


def test_decoherence_ohmic_closed_form():
    # (lambda/2) ln(1 + wc^2 t^2)
    model = ohmic_zero_t()
    assert abs(model.decoherence_function(1.0) - 0.5 * math.log(2.0)) < 1e-10
    for t in (0.4, 3.0):
        assert abs(
            model.decoherence_function(t) - 0.5 * math.log(1 + t * t)
        ) < 1e-10


def test_decoherence_high_temperature_expansion():
    beta = 0.01
    model = DephasingModel(0.0, SpectralDensity(1.0, 1.0, 1.0), BathSpec(beta))
    value = model.decoherence_function(1.0)
    leading = (2.0 / beta) * (math.atan(1.0) - 0.5 * math.log(2.0))
    assert abs(value - leading) / leading < 0.02


def test_decoherence_nonnegative_and_monotone_in_beta():
    grid = itertools.product([0.1, 1.0], [0.5, 1.0, 2.0], [1.0, 5.0])
    for lam, s, wc in grid:
        j = SpectralDensity(lam, s, wc)
        previous = None
        for beta in (0.1, 1.0, math.inf):  # increasing beta = cooling
            model = DephasingModel(0.0, j, BathSpec(beta))
            value = model.decoherence_function(1.3)
            assert value >= 0.0
            assert model.decoherence_function(0.0) == 0.0
            if previous is not None:
                assert value <= previous + 1e-9
            previous = value


def test_decoherence_two_forms_agree_on_sample():
    for lam, s, wc, beta in [
        (1.0, 1.0, 1.0, math.inf),
        (0.1, 0.5, 5.0, 1.0),
        (1.0, 2.0, 1.0, 0.1),
    ]:
        model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))
        for t in (0.5, 3.0):
            a = model.decoherence_function(t)
            b = model.decoherence_function_from_rate(t)
            assert abs(a - b) < 1e-7


# ----------------------------------------------------------------------
# coherence (exact solution)
# ----------------------------------------------------------------------


def test_coherence_diagonal_state_stays_zero():
    model = ohmic_zero_t(omega0=2.0)
    rho0 = DensityMatrix(np.diag([0.25, 0.75]))
    for t in (0.0, 1.0, 4.0):
        assert model.coherence(rho0, t) == 0.0


def test_coherence_no_bath_pure_phase():
    omega0 = 0.9
    model = ohmic_zero_t(omega0=omega0, coupling=0.0)
    for t in (0.0, 1.0, 2.7):
        c = model.coherence(PLUS, t)
        assert abs(c - 0.5 * np.exp(-2j * omega0 * t)) < 1e-12
        assert abs(abs(c) - 0.5) < 1e-12


def test_coherence_ohmic_value():
    c = ohmic_zero_t().coherence(PLUS, 1.0)
    assert abs(abs(c) - 0.5 / math.sqrt(2.0)) < 1e-10


@pytest.mark.parametrize("beta", [math.inf, 2.0])
def test_coherence_given_gamma_is_bit_identical(beta):
    model = DephasingModel(0.8, SpectralDensity(0.7, 1.5, 2.0), BathSpec(beta))
    rho0 = DensityMatrix(np.array([[0.3, 0.2 - 0.35j], [0.2 + 0.35j, 0.7]]))
    for t in (0.0, 0.05, 0.7, 3.0):
        given = model.coherence(rho0, t, big_gamma=model.decoherence_function(t))
        computed = model.coherence(rho0, t)
        assert repr(given) == repr(computed)  # the same bits, signed zeros too


def test_zero_coupling_integrals_vanish_at_large_s():
    # J = 0, so no quadrature runs: w^400 would overflow in it
    model = ohmic_zero_t(coupling=0.0, s=400.0)
    for t in (0.0, 1.25, 5.0):
        assert model.dephasing_rate(t) == 0.0
        assert model.decoherence_function(t) == 0.0
        assert model.bath_correlation(t) == 0.0
    assert model.decoherence_function_from_rate(5.0) == 0.0


def test_coherence_never_grows():
    model = DephasingModel(1.0, SpectralDensity(0.5, 1.0, 1.0), BathSpec(2.0))
    magnitudes = [abs(model.coherence(PLUS, t)) for t in (0.0, 0.5, 1.0, 3.0)]
    assert all(m <= magnitudes[0] + 1e-12 for m in magnitudes)


@pytest.mark.parametrize("beta", [math.inf, 5.0, 0.3])
@pytest.mark.parametrize("omega0", [0.0, 0.8, -2.5])
def test_channel_is_the_exact_solution(omega0, beta):
    model = DephasingModel(omega0, SpectralDensity(0.7, 1.5, 2.0), BathSpec(beta))
    rho0 = DensityMatrix(np.array([[0.3, 0.2 - 0.35j], [0.2 + 0.35j, 0.7]]))
    for t in (0.0, 0.05, 0.7, 3.0, 12.0):
        channel = model.channel(t)
        out = channel.apply(rho0.matrix)
        assert np.array_equal(np.diag(out), np.diag(rho0.matrix))
        assert abs(out[0, 1] - model.coherence(rho0, t)) <= 1e-15
        assert out[1, 0] == np.conj(out[0, 1])
        # Choi matrix [[1, f], [f*, 1]] on span{|00>, |11>}, zero elsewhere
        f = np.exp(-model.decoherence_function(t) - 2j * omega0 * t)
        spectrum = np.linalg.eigvalsh(choi_of_propagator(channel).matrix)
        closed_form = np.sort([0.0, 0.0, 1.0 - abs(f), 1.0 + abs(f)])
        assert np.abs(spectrum - closed_form).max() <= 1e-12


# ----------------------------------------------------------------------
# generator construction / end-to-end
# ----------------------------------------------------------------------


def test_generator_no_coupling_is_hamiltonian_only():
    gen = ohmic_zero_t(omega0=1.5, coupling=0.0).generator_at(2.0)
    assert np.abs(gen.hamiltonian - 1.5 * np.diag([1.0, -1.0])).max() < 1e-12
    assert np.abs(gen.kossakowski).max() == 0.0


def test_generator_preserves_populations():
    gen = ohmic_zero_t().generator_at(0.7)
    out = apply_generator(gen, DensityMatrix(np.diag([0.2, 0.8])))
    assert np.abs(out).max() < 1e-15


def test_generator_negative_rate_warns_but_constructs():
    model = DephasingModel(0.0, SpectralDensity(1.0, 3.0, 1.0), BathSpec(math.inf))
    with pytest.warns(NegativeRateWarning):
        gen = model.generator_at(4.0)
    assert gen.kossakowski[0, 0].real < 0.0


def test_generator_at_is_built_from_the_parts():
    # K0 + gamma K1 is the kernel of generator_at(t) bit for bit, at
    # positive and negative rates (s = 3 at T = 0 turns negative after
    # t = sqrt(3))
    model = DephasingModel(0.8, SpectralDensity(1.0, 3.0, 1.0), BathSpec(math.inf))
    k0, k1 = (_entrywise_kernel(part) for part in model.generator_parts)
    for t in (0.0, 0.3, 1.0, 2.5, 4.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRateWarning)
            kernel = _entrywise_kernel(model.generator_at(t))
        assert np.array_equal(kernel, k0 + model.dephasing_rate(t) * k1)


def test_trajectory_matches_exact_solution():
    # the [DERIVED] oracle: integrated master equation vs closed form
    model = DephasingModel(
        1.0, SpectralDensity(0.5, 1.0, 1.0), BathSpec(2.0)
    )
    t_grid = np.linspace(0.0, 5.0, 50)
    trajectory = integrate_time_dependent(*model.generator_parts, model.dephasing_rate,
                                          PLUS, t_grid)
    for t, state in zip(t_grid, trajectory):
        predicted = model.coherence(PLUS, float(t))
        assert abs(state.matrix[0, 1] - predicted) < 1e-6
        assert np.abs(np.diag(state.matrix) - 0.5).max() < 1e-8


# ----------------------------------------------------------------------
# spectral-integral engine: oracles and the QUADPACK fallback
# ----------------------------------------------------------------------


def _t0_rate(lam, s, wc, t):
    return (lam * wc * math.gamma(s) * (1 + (wc * t) ** 2) ** (-s / 2)
            * math.sin(s * math.atan(wc * t)))


def _t0_decoherence(lam, s, wc, t):
    x = 1 + (wc * t) ** 2
    if s == 1.0:
        return 0.5 * lam * math.log(x)
    return lam * math.gamma(s - 1) * (
        1 - x ** ((1 - s) / 2) * math.cos((1 - s) * math.atan(wc * t)))


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize("wc", [1.0, 5.0])
def test_zero_temperature_closed_forms(s, wc):
    model = DephasingModel(0.0, SpectralDensity(0.7, s, wc), BathSpec(math.inf))
    for t in np.geomspace(0.01, 50.0, 13):
        for got, want in ((model.dephasing_rate(t), _t0_rate(0.7, s, wc, t)),
                          (model.decoherence_function(t), _t0_decoherence(0.7, s, wc, t))):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (t, got, want)


def test_finite_temperature_against_mpmath():
    # Reference by mpmath.quad over the same truncated range, broken at
    # every half period k pi / t of the oscillating factor.
    lam, s, wc, beta, t = 1.0, 0.5, 1.0, 0.5, 10.0
    model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))
    upper = 40.0 * wc
    with mpmath.workdps(20):
        half_periods = range(1, int(upper * t / math.pi) + 1)
        points = [0, *(k * mpmath.pi / t for k in half_periods), upper]

        def dressed(w):
            return lam * w**s * wc ** (1 - s) * mpmath.exp(-w / wc) * mpmath.coth(beta * w / 2)

        rate = mpmath.quad(lambda w: dressed(w) * mpmath.sin(w * t) / w, points)
        decoherence = mpmath.quad(lambda w: dressed(w) * 2 * (mpmath.sin(w * t / 2) / w) ** 2,
                                  points)
    assert model.dephasing_rate(t) == pytest.approx(float(rate), rel=1e-9)
    assert model.decoherence_function(t) == pytest.approx(float(decoherence), rel=1e-9)


def _alpha_t0(lam, s, wc, t):
    # integral of lam wc^(1-s) w^s e^(-w/wc) e^(-i w t) dw
    return lam * wc**2 * math.gamma(s + 1) * (1 + 1j * wc * t) ** -(s + 1)


@contextlib.contextmanager
def _quadpack_route():
    """Send every spectral integral to its QUADPACK fallback."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decohere.dephasing, "integrate_panels",
                   lambda *args, fallback, **kwargs: fallback())
        yield


@pytest.mark.parametrize("route", ["panels", "quadpack"])
@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize("wc", [1.0, 5.0])
def test_zero_temperature_correlation_closed_form(s, wc, route):
    model = DephasingModel(0.0, SpectralDensity(0.7, s, wc), BathSpec(math.inf))
    times = [0.0, -0.02, -1.3, -9.0, *np.geomspace(0.01, 50.0, 9)]
    with _quadpack_route() if route == "quadpack" else contextlib.nullcontext():
        for t in times:
            got, want = model.bath_correlation(t), _alpha_t0(0.7, s, wc, t)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (t, got, want)


def test_fallback_splits_slow_oscillation_at_one_over_t():
    # A slowly oscillating draw (t * upper = 13.6): the fallback splits at
    # 1/t as for every t > 0, and meets the panel rule to near roundoff.
    model = DephasingModel(0.0, SpectralDensity(2.218, 3.282, 8.408), BathSpec(11.72))
    t = 0.0405

    def values():
        alpha = model.bath_correlation(t)
        return (model.dephasing_rate(t), model.decoherence_function(t), alpha.real, alpha.imag)

    got = values()
    with _quadpack_route():
        want = values()
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a)), (a, b)


def test_fallback_head_breaks_at_the_thermal_pole_scale():
    # A cold bath (2 pi / beta = 0.17) against a head reaching 1/t = 28.7:
    # without a breakpoint at the pole scale QUADPACK's head misses Re
    # alpha by 2.3e-10 relative while reporting success.
    model = DephasingModel(0.0, SpectralDensity(0.4908, 2.9967, 6.898), BathSpec(36.62))
    t = 0.03487

    def values():
        alpha = model.bath_correlation(t)
        return (model.dephasing_rate(t), model.decoherence_function(t), alpha.real, alpha.imag)

    got = values()
    with _quadpack_route():
        want = values()
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (a, b)


@pytest.mark.parametrize("quad", [None, QuadratureSpec(tail_cutoff_multiplier=12.5)])
def test_panel_rule_and_fallback_integrate_the_same_range(monkeypatch, quad):
    wc = 0.37
    model = DephasingModel(0.0, SpectralDensity(0.7, 1.5, wc), BathSpec(3.0),
                           **({} if quad is None else {"quadrature": quad}))
    uppers = []

    def panels(g, layout, spec=None, *, fallback):
        uppers.append(("panels", layout.upper))
        return fallback()

    def oscillatory(envelope, kind, t, upper, spec=None, *, head, breakpoints=()):
        uppers.append(("fallback", upper))
        return 0.0, 0.0

    monkeypatch.setattr(decohere.dephasing, "integrate_panels", panels)
    monkeypatch.setattr(decohere.dephasing, "integrate_oscillatory", oscillatory)
    model.bath_correlation(0.8)
    model.dephasing_rate(0.8)
    model.decoherence_function(0.8)
    upper = (quad or QuadratureSpec()).tail_cutoff_multiplier * wc
    assert uppers == [(route, upper) for _ in range(4) for route in ("panels", "fallback")]


def _by_width(model, kind, t, width):
    """The panel rule for the integral ``kind`` at t on panels no wider than
    ``width``, laid out for this call alone: (value, integral of |w^p g|),
    or None where the rule would fall back."""
    thermal, kernel, _ = _KERNELS[kind]
    spec, wc = model.quadrature, model.spectral.omega_c
    pole_scale = math.inf if model.bath.zero_temperature else 2 * math.pi / model.bath.beta
    layout = panel_layout(model._panel_rule, spec.tail_cutoff_multiplier * wc, width,
                          spec.max_subdivisions, head_width=pole_scale)
    terms = []

    def g(w):
        values = kernel(model._panel_weight(w, thermal), w, t)
        terms.append(np.abs(layout.weights * values).sum())
        return values

    value, _ = integrate_panels(g, layout, spec, fallback=lambda: (None, None))
    return None if value is None else (value, float(terms[0]))


@pytest.mark.parametrize("beta", [math.inf, 0.7, 20.0])
@pytest.mark.parametrize("s, wc", [(0.3, 1.0), (1.0, 5.0), (3.5, 0.4)])
def test_cached_layouts_keep_the_per_call_values_up_to_pi_over_wc(s, wc, beta):
    # for t <= pi/wc the cached layout is the per-call one (width wc), so
    # every value is the same float
    model = DephasingModel(0.0, SpectralDensity(0.7, s, wc), BathSpec(beta))
    times = [*np.geomspace(1e-3, math.pi / wc, 12), math.pi / wc]
    for kind in _KERNELS:
        for t in ([0.0] if "alpha" in kind else []) + times:
            want = _by_width(model, kind, t, min(math.pi / t, wc) if t > 0 else wc)
            assert want is not None and model._spectral_integral(kind, t) == want[0], (kind, t)


def test_quantized_layouts_match_the_exact_width():
    # Draws over the ranges of the fallback parity sample, at t > pi/wc.
    # Layouts of width wc / 2^k and min(pi/t, wc) sum different nodes, so
    # their values differ by roundoff, which scales with the integral of
    # |w^p g| (up to 1e4 here) rather than with the value.
    rng = np.random.default_rng(7)
    compared = total = 0
    while total < 400:
        lam, s, wc = rng.uniform(0.01, 3.0), rng.uniform(0.05, 4.0), rng.uniform(0.2, 10.0)
        beta = math.inf if rng.random() < 0.25 else math.exp(rng.uniform(-3.5, 4.6))
        t = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        if t <= math.pi / wc:
            continue
        model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))
        for kind in _KERNELS:
            total += 1
            exact = _by_width(model, kind, t, math.pi / t)
            if exact is None:
                continue
            compared += 1
            got, (want, scale) = model._spectral_integral(kind, t), exact
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want), scale), (kind, lam, s, wc,
                                                                          beta, t)
    assert compared >= total // 2


def test_zero_temperature_sweep_falls_back_no_more_than_per_call_layouts(monkeypatch):
    # 40 of these 1000 integrals fall back with a layout per call (wc = 5,
    # t >= 35, where 40 wc t / pi exceeds the 2048-panel budget)
    fallbacks = []
    oscillatory = decohere.dephasing.integrate_oscillatory

    def counted(*args, **kwargs):
        fallbacks.append(True)
        return oscillatory(*args, **kwargs)

    monkeypatch.setattr(decohere.dephasing, "integrate_oscillatory", counted)
    for s in (0.3, 0.5, 1.0, 2.0, 3.5):
        for wc in (1.0, 5.0):
            model = DephasingModel(0.0, SpectralDensity(0.7, s, wc), BathSpec(math.inf))
            for t in np.geomspace(0.01, 50.0, 25):
                for kind in _KERNELS:
                    model._spectral_integral(kind, float(t))
    assert len(fallbacks) <= 40


def test_spectral_prefactor_overflow_is_rejected():
    # wc^(1 - s) = 1e1197 overflows a float; at coupling 1e300 the product does
    with pytest.raises(ValidationError, match="prefactor"):
        SpectralDensity(1.0, 400.0, 1e-3)
    with pytest.raises(ValidationError, match="prefactor"):
        SpectralDensity(1e300, 3.0, 1e-5)
    # a prefactor that underflows to 0, or a total weight
    # coupling * wc^2 * Gamma(s + 1) that overflows, cannot be integrated
    with pytest.raises(ValidationError, match="underflows to 0"):
        SpectralDensity(1.0, 400.0, 1e3)
    with pytest.raises(ValidationError, match="spectral weight"):
        SpectralDensity(1.0, 400.0, 1.0)
    assert SpectralDensity(0.0, 400.0, 1e3)(1.0) == 0.0


def test_cross_check_integrates_only_re_alpha(monkeypatch):
    model = DephasingModel(0.0, SpectralDensity(0.7, 1.0, 1.0), BathSpec(2.0))
    t = 1.3
    by_correlation = model._tau_integral(lambda tau: model.bath_correlation(tau).real, t)
    kinds = []
    spectral_integral = DephasingModel._spectral_integral

    def spy(self, kind, tau):
        kinds.append(kind)
        return spectral_integral(self, kind, tau)

    monkeypatch.setattr(DephasingModel, "_spectral_integral", spy)
    assert model.dephasing_rate_from_correlation(t) == by_correlation
    assert kinds and set(kinds) == {"Re alpha"}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    lam=st.floats(0.01, 3.0),
    s=st.floats(0.05, 4.0),
    wc=st.floats(0.2, 5.0),
    beta=st.one_of(st.just(math.inf), st.floats(0.03, 50.0)),
    t=st.floats(0.01, 20.0),
)
def test_engine_matches_quadpack_route(lam, s, wc, beta, t):
    model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))

    def values():
        alpha = model.bath_correlation(t)
        return (model.dephasing_rate(t), model.decoherence_function(t), alpha.real, alpha.imag)

    got = values()
    with _quadpack_route():
        want = values()
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_tight_tolerance_falls_back_to_quadpack(monkeypatch):
    fallbacks = []
    panels = decohere.dephasing.integrate_panels

    def spy(*args, fallback, **kwargs):
        def counted():
            fallbacks.append(True)
            return fallback()

        return panels(*args, fallback=counted, **kwargs)

    model = DephasingModel(0.0, SpectralDensity(0.7, 2.0, 1.0), BathSpec(0.5))
    tight = DephasingModel(model.omega0, model.spectral, model.bath,
                           quadrature=QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14))
    with _quadpack_route():
        want = (tight.dephasing_rate(1.0), tight.decoherence_function(1.0))
    monkeypatch.setattr(decohere.dephasing, "integrate_panels", spy)
    assert tight.dephasing_rate(1.0) == want[0]
    assert tight.decoherence_function(1.0) == want[1]
    assert len(fallbacks) == 2
    model.dephasing_rate(1.0)
    model.decoherence_function(1.0)
    assert len(fallbacks) == 2
