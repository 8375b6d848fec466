import contextlib
import importlib.util
import itertools
import json
import math
import sys
import timeit
import warnings
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from helpers import key_bounds, reference_layout_keys
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
from decohere.cli import main, parse_scenario
from decohere.dephasing import _CROSS_CHECK_SPEC, _KERNELS
from decohere.errors import NegativeRateWarning, ValidationError
from decohere.gksl import _entrywise_kernel
from decohere.numcore import (
    QuadratureSpec,
    integrate_adaptive,
    integrate_panels,
    panel_layout,
)

REPO = Path(__file__).resolve().parents[1]

PLUS = DensityMatrix.pure([1.0, 1.0])


def ohmic_zero_t(omega0=0.0, coupling=1.0, s=1.0, omega_c=1.0):
    return DephasingModel(
        omega0, SpectralDensity(coupling, s, omega_c), BathSpec(math.inf)
    )


# ----------------------------------------------------------------------
# spectral density
# ----------------------------------------------------------------------


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
    # the fallback's weight J(w) coth(beta w/2): coth is 1 exactly at T = 0
    j = SpectralDensity(1.0, 1.0, 1.0)
    assert DephasingModel(0.0, j, BathSpec(math.inf))._thermal(1.0) == math.exp(-1.0)
    hot = DephasingModel(0.0, j, BathSpec(2.0))._thermal(1.0)
    assert abs(hot - math.exp(-1.0) / math.tanh(1.0)) < 1e-15


def test_thermal_factor_pole_and_thermal_weight_limit():
    bath = BathSpec(2.0)
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


@pytest.mark.parametrize("beta", [math.inf, 0.7])
def test_correlation_imaginary_part_against_mpmath(monkeypatch, beta):
    # Im alpha(t) = coupling wc^2 Gamma(s+1) Im (1 + i wc t)^-(s+1), the
    # same at every temperature, in 40 digits, within 1e-12 of its envelope
    # coupling wc^2 Gamma(s+1) (1 + (wc t)^2)^(-(s+1)/2)
    # (the real part is not under test: at s = 20 its integral is of order
    # 1e18, and at coupling 1e-300 and s = 250 its quadrature overflows)
    monkeypatch.setattr(DephasingModel, "_spectral_integral", lambda model, kind, t: 0.0)
    cases = [(0.8, s, wc) for s in (0.05, 0.5, 1.0, 2.5, 7.0, 20.0) for wc in (0.3, 4.0)]
    for lam, s, wc in [*cases, (1e-300, 250.0, 1.0)]:
        model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))
        for t in (0.0, 0.01, -0.3, 1.7, -12.0, 300.0):
            with mpmath.workdps(40):
                x = mpmath.mpf(wc) * mpmath.mpf(t)
                scale = mpmath.mpf(lam) * mpmath.mpf(wc) ** 2 * mpmath.gamma(mpmath.mpf(s) + 1)
                want = scale * (mpmath.mpc(1, x) ** -(mpmath.mpf(s) + 1)).imag
                envelope = scale * (1 + x**2) ** (-(mpmath.mpf(s) + 1) / 2)
                error = abs(model.bath_correlation(t).imag - want)
            # plus two subnormal spacings: at coupling 1e-300, s = 250 and
            # t = 300 the value, 4e-430, underflows to 0
            assert error <= 1e-12 * envelope + 2 * 2.0**-1074, (lam, s, wc, t)


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


@pytest.mark.parametrize("s", [5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
@pytest.mark.parametrize("wc", [0.2, 1.0, 5.0])
def test_zero_temperature_closed_forms_at_large_s(s, wc):
    # coupling 0.5/Gamma(s) keeps gamma of order wc; from s = 10 on, J's
    # tail beyond 40 wc exceeds the tolerance, and the cutoff reaches past it
    lam = 0.5 / math.gamma(s)
    model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(math.inf))
    for t in np.geomspace(0.01, 20.0, 13):
        for got, want in ((model.dephasing_rate(t), _t0_rate(lam, s, wc, t)),
                          (model.decoherence_function(t), _t0_decoherence(lam, s, wc, t))):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (t, got, want)


def test_rate_beyond_forty_omega_c_integrates():
    # at s = 10 and t = 3 the panel rule misses its tolerance and falls back;
    # on (0, 40 wc), where J is still 0.045, QUADPACK failed with a roundoff error
    model = DephasingModel(0.0, SpectralDensity(1.0, 10.0, 1.0), BathSpec(math.inf))
    got, want = model.dephasing_rate(3.0), _t0_rate(1.0, 10.0, 1.0, 3.0)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _dephasing_bath_documents(workdir, monkeypatch):
    """The dephasing documents of benchmark seeds 1-3, sweep variants included."""
    spec = importlib.util.spec_from_file_location("bench_scenarios",
                                                  REPO / "perfbench" / "scenarios.py")
    scenarios = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, scenarios)  # its dataclasses look it up
    spec.loader.exec_module(scenarios)
    documents = {}
    for seed in (1, 2, 3):
        for command in scenarios.generate("dephasing_bath", seed, workdir / str(seed), REPO):
            documents[seed, command.scenario.name] = json.loads(command.scenario.path.read_text())
            documents.update(((seed, path), doc) for path, doc in command.sweep_variants.items())
    return list(documents.values())


def test_cutoff_is_forty_omega_c_where_the_tail_is_negligible(tmp_path, monkeypatch):
    shipped = [json.loads((REPO / "scenarios" / f"{name}.json").read_text())
               for name in ("dephasing_ohmic_zero_temperature", "dephasing_zero_coupling")]
    documents = [*shipped, *_dephasing_bath_documents(tmp_path, monkeypatch)]
    assert len(documents) == 2 + 3 * 6  # three scenarios and three sweep variants a seed
    for raw in documents:
        model = parse_scenario(json.dumps(raw)).system
        assert model.cutoff == 40 * model.spectral.omega_c, raw["parameters"]


def test_cutoff_grows_with_the_tail():
    raw = json.loads((REPO / "scenarios" / "dephasing_superohmic_s20.json").read_text())
    model = parse_scenario(json.dumps(raw)).system
    assert model.spectral.s == 20.0 and model.cutoff > 40 * model.spectral.omega_c
    # at a tiny coupling and s = 250 the cutoff is found in bounded time
    far = (0.0, SpectralDensity(1e-300, 250.0, 1.0), BathSpec(math.inf))
    assert min(timeit.repeat(lambda: DephasingModel(*far), number=1, repeat=5)) < 0.01
    assert 1000 < DephasingModel(*far).cutoff < 1100


def test_superohmic_s20_scenario_matches_the_closed_forms(tmp_path, monkeypatch):
    # scenarios/dephasing_superohmic_s20.json: on (0, 40 wc) the report
    # passed while 39 of these 42 values were off by more than 1e-6
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRateWarning)
        assert main(["run", str(REPO / "scenarios" / "dephasing_superohmic_s20.json")]) == 0
    lines = (tmp_path / "out" / "dephasing_superohmic_s20.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 21
    for row in rows:
        t = row[0]
        for name, want in (("gamma", _t0_rate(1e-17, 20.0, 1.0, t)),
                           ("Gamma", _t0_decoherence(1e-17, 20.0, 1.0, t))):
            got = row[header.index(name)]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (t, name, got, want)


def test_finite_temperature_against_mpmath():
    # Reference by mpmath.quad over the same truncated range, broken at
    # every half period k pi / t of the oscillating factor.
    lam, s, wc, beta, t = 1.0, 0.5, 1.0, 0.5, 10.0
    model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))
    upper = model.cutoff
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


@pytest.mark.parametrize("s", [1.5, 12.0], ids=["cutoff-40-wc", "cutoff-beyond-40-wc"])
def test_panel_rule_and_fallback_integrate_the_same_range(monkeypatch, s):
    wc = 0.37
    model = DephasingModel(0.0, SpectralDensity(0.7, s, wc), BathSpec(3.0))
    assert (model.cutoff > 40 * wc) == (s > 1.5)
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
    assert uppers == [(route, model.cutoff) for _ in range(3) for route in ("panels", "fallback")]


def test_layout_keys_match_the_tabulated_search():
    # on random t, and on every bound T_k of the table and its two float
    # neighbours, where the float comparison 4 wc / 2^k <= 2 pi/t flips
    rng = np.random.default_rng(11)
    for wc in (1e-3, 0.37, 1.0, 1.3, 5.0, 1e3, *rng.uniform(0.05, 20.0, 4)):
        model = DephasingModel(0.0, SpectralDensity(0.7, 1.0, wc), BathSpec(math.inf))
        bounds = key_bounds(wc)
        bounds = bounds[bounds < np.finfo(float).max]
        tiny = [0.0, 5e-324, 1e-310, 3e-308, 4e-308]  # 2 pi/t overflows below 3.5e-308
        t = np.concatenate([tiny, np.exp(rng.uniform(-30.0, 30.0, 2000)), bounds,
                            np.nextafter(bounds, 0.0), np.nextafter(bounds, math.inf)])
        assert np.array_equal(model._layout_keys(t), reference_layout_keys(wc, t)), wc


def _by_width(model, kind, t, width):
    """The panel rule for the integral ``kind`` at t on panels no wider than
    ``width``, laid out and folded for this call alone: (value, integral of
    |w^p g|), or None where the rule would fall back."""
    oscillation = _KERNELS[kind][1]
    folded = model._folded_layouts([kind], width)
    if folded is None:  # too many panels
        return None
    layout, terms = folded[kind], []

    def g(w):
        values = oscillation(w, t)
        terms.append(np.abs(layout.weights * values).sum())
        return values

    value, _ = integrate_panels(g, layout, model.quadrature, fallback=lambda: (None, None))
    return None if value is None else (value, float(terms[0]))


@pytest.mark.parametrize("beta", [math.inf, 0.7, 20.0])
@pytest.mark.parametrize("s, wc", [(0.3, 1.0), (1.0, 5.0), (3.5, 0.4)])
def test_cached_layouts_keep_the_per_call_values_up_to_pi_over_wc(s, wc, beta):
    # for t <= pi/(2 wc) the cached layout is the per-call one (width
    # 4 wc = min(2 pi/t, 4 wc)), so every value is the same float
    model = DephasingModel(0.0, SpectralDensity(0.7, s, wc), BathSpec(beta))
    cap = math.pi / (2 * wc)
    times = [*np.geomspace(1e-3, cap, 12), cap]
    for kind in _KERNELS:
        for t in ([0.0] if "alpha" in kind else []) + times:
            width = min(2 * math.pi / t, 4 * wc) if t > 0 else 4 * wc
            want = _by_width(model, kind, t, width)
            assert want is not None and model._spectral_integral(kind, t) == want[0], (kind, t)


def test_quantized_layouts_match_the_exact_width():
    # Draws over the ranges of the fallback parity sample, at t > pi/(2 wc).
    # Layouts of width 4 wc / 2^k and min(2 pi/t, 4 wc) sum different
    # nodes, so their values differ by roundoff, which scales with the
    # integral of |w^p g| (up to 1e4 here) rather than with the value.
    rng = np.random.default_rng(7)
    compared = total = 0
    while total < 400:
        lam, s, wc = rng.uniform(0.01, 3.0), rng.uniform(0.05, 4.0), rng.uniform(0.2, 10.0)
        beta = math.inf if rng.random() < 0.25 else math.exp(rng.uniform(-3.5, 4.6))
        t = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        if t <= math.pi / (2 * wc):
            continue
        model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))
        for kind in _KERNELS:
            total += 1
            exact = _by_width(model, kind, t, 2 * math.pi / t)
            if exact is None:
                continue
            compared += 1
            got, (want, scale) = model._spectral_integral(kind, t), exact
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want), scale), (kind, lam, s, wc,
                                                                          beta, t)
    assert compared >= total // 2


def _count_fallbacks(monkeypatch):
    """A list that gains one entry per QUADPACK fallback of the spectral
    integrals."""
    fallbacks = []
    oscillatory = decohere.dephasing.integrate_oscillatory

    def counted(*args, **kwargs):
        fallbacks.append(True)
        return oscillatory(*args, **kwargs)

    monkeypatch.setattr(decohere.dephasing, "integrate_oscillatory", counted)
    return fallbacks


def test_zero_temperature_sweep_falls_back_no_more_than_per_call_layouts(monkeypatch):
    # none of these 1000 integrals falls back: at wc = 5 and t = 50 a
    # layout of width 2 pi/t needs 40 wc t / (2 pi) = 1592 of the 2048 panels
    fallbacks = _count_fallbacks(monkeypatch)
    for s in (0.3, 0.5, 1.0, 2.0, 3.5):
        for wc in (1.0, 5.0):
            model = DephasingModel(0.0, SpectralDensity(0.7, s, wc), BathSpec(math.inf))
            for t in np.geomspace(0.01, 50.0, 25):
                for kind in _KERNELS:
                    model._spectral_integral(kind, float(t))
    assert len(fallbacks) == 0


def test_finite_temperature_scan_falls_back_only_without_a_layout(monkeypatch):
    # 7 s x 3 wc x 4 beta x 15 t x 3 kinds; coupling 0.5 / Gamma(s) keeps the
    # integral of J, 0.5 s wc^2, moderate.  Only where even panels 2 pi/t
    # wide outnumber max_subdivisions does the rule fall back: at s = 20 and
    # wc = 5 the derived cutoff is 72 wc, 2869 such panels at t = 50, so at
    # most 4 beta x 3 kinds = 12 integrals.  Every 7th integral is checked
    # against the QUADPACK route.
    fallbacks, sampled = _count_fallbacks(monkeypatch), []
    for s in (0.3, 0.5, 1.0, 2.0, 3.0, 6.0, 20.0):
        for wc in (0.2, 1.0, 5.0):
            for beta in (0.05, 0.5, 2.0, 20.0):
                model = DephasingModel(0.0, SpectralDensity(0.5 / math.gamma(s), s, wc),
                                       BathSpec(beta))
                for t in np.geomspace(0.01, 50.0, 15):
                    t, before = float(t), len(fallbacks)
                    for kind in _KERNELS:
                        sampled.append((model, kind, t, model._spectral_integral(kind, t)))
                    if len(fallbacks) > before:
                        assert panel_layout(model._panel_rule, model.cutoff, 2 * math.pi / t,
                                            model.quadrature.max_subdivisions,
                                            head_width=2 * math.pi / beta) is None
    assert len(sampled) == 3780 and len(fallbacks) <= 12
    with _quadpack_route():
        for model, kind, t, value in sampled[::7]:
            want = model._spectral_integral(kind, t)
            assert abs(value - want) <= 1e-9 * max(1.0, abs(want)), (model, kind, t)


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
    zero = DephasingModel(0.0, SpectralDensity(0.0, 400.0, 1e3), BathSpec(math.inf))
    assert zero.dephasing_rate(1.0) == 0.0 and zero.bath_correlation(1.0) == 0.0


def test_cross_check_integrates_only_re_alpha(monkeypatch):
    model = DephasingModel(0.0, SpectralDensity(0.7, 1.0, 1.0), BathSpec(2.0))
    t = 1.3
    by_correlation = model._tau_integral(
        lambda taus: np.array([model.bath_correlation(tau).real for tau in taus]), t)
    kinds = []
    spectral_integral = DephasingModel._spectral_integral

    def spy(self, kind, taus):
        kinds.append(kind)
        assert np.ndim(taus) == 1 and np.size(taus) % 21 == 0  # every tau of a rule, at once
        return spectral_integral(self, kind, taus)

    monkeypatch.setattr(DephasingModel, "_spectral_integral", spy)
    assert model.dephasing_rate_from_correlation(t) == by_correlation
    assert kinds and set(kinds) == {"Re alpha"}


@pytest.mark.parametrize("beta", [math.inf, 2.0])
def test_array_call_is_the_one_t_calls(monkeypatch, beta):
    # At w_c = 5: t = 0; 0.3, 0.31 and 2.5 on cached layouts; at t = 47
    # panels 4 w_c / 2^8 wide outnumber max_subdivisions but 2 pi/t wide
    # ones do not, so 47 gets a layout of its own; at t = 100 neither fits
    # and the integral falls back to QUADPACK.
    model = DephasingModel(0.0, SpectralDensity(0.7, 1.0, 5.0), BathSpec(beta))
    times = np.array([0.3, 0.0, 47.0, 100.0, 0.31, 2.5, 0.3])
    k47, k100 = model._layout_keys(times[2:4]).tolist()
    for t, k in ((47.0, k47), (100.0, k100)):
        per_call = model._folded_layouts(["gamma"], 2 * math.pi / t)
        assert model._panel_layout("gamma", k) is None and (per_call is None) == (t == 100.0)
    fallbacks = _count_fallbacks(monkeypatch)
    for kind in _KERNELS:
        got = model._spectral_integral(kind, times)
        want = np.array([model._spectral_integral(kind, float(t)) for t in times])
        assert got.tobytes() == want.tobytes(), kind
    assert len(fallbacks) == 2 * len(_KERNELS)  # t = 100, array and one-t calls


def test_rates_keep_the_shape_of_t():
    model = DephasingModel(0.0, SpectralDensity(0.7, 2.0, 1.0), BathSpec(0.5))
    times = np.array([[0.0, 0.4], [1.0, 3.0]])
    for f in (model.dephasing_rate, model.decoherence_function):
        assert f(times).shape == (2, 2) and type(f(1.0)) is float and f(0.0) == 0.0
        assert f(times)[1, 0] == f(1.0)
    with pytest.raises(ValidationError, match="t must be >= 0"):
        model.dephasing_rate(np.array([1.0, -1e-9]))
    with pytest.raises(ValidationError, match="t must be finite"):
        model.decoherence_function(np.array([1.0, math.inf]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    lam=st.floats(0.01, 3.0),
    s=st.floats(0.05, 4.0),
    wc=st.floats(0.2, 5.0),
    beta=st.one_of(st.just(math.inf), st.floats(0.03, 50.0)),
    t=st.floats(0.01, 20.0),
)
def test_tau_rule_matches_quadpack(lam, s, wc, beta, t):
    # the two cross-check integrands, by the numpy G10/K21 rule and by
    # QUADPACK's adaptive route, one tau per call
    model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))
    for f in (partial(model._spectral_integral, "Re alpha"), model.dephasing_rate):
        got = model._tau_integral(f, t)
        want, _ = integrate_adaptive(lambda tau: float(f(np.array([tau]))[0]), 0.0, t,
                                     _CROSS_CHECK_SPEC)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), f


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
        def counted(*rows):
            fallbacks.append(True)
            return fallback(*rows)

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
