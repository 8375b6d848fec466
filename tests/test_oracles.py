"""Every report residual must be able to fail.

Each row is a mutation of one family's own module, a shipped scenario
(with some keys of its blocks changed) and the residual that must catch
it: the unmutated run passes with that residual within the drift bound,
and the mutated run fails with it above the bound.  A mutation that no
residual catches yet is marked ``xfail(strict=True)``, so that the row
must be updated when a new cross-check catches it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import decohere.collisional
import decohere.gksl
from decohere.cli import run_scenario, validate_scenario
from decohere.collisional import GaussianMomentumLaw
from decohere.dephasing import BathSpec, DephasingModel
from decohere.gksl import DRIFT_ERROR_THRESHOLD, SIGMA_Z, GkslGenerator

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _dissipator_rate_one(monkeypatch):
    # the sigma_z dissipator at rate 1 instead of 1/2
    monkeypatch.setattr(DephasingModel, "generator_parts", property(lambda model: (
        GkslGenerator(model.omega0 * SIGMA_Z),
        GkslGenerator(np.zeros((2, 2)), (SIGMA_Z,), [[1.0]]))))


def _rotation_sign_flipped(monkeypatch):
    # H = -omega0 sigma_z instead of +omega0 sigma_z
    monkeypatch.setattr(DephasingModel, "generator_parts", property(lambda model: (
        GkslGenerator(-model.omega0 * SIGMA_Z),
        GkslGenerator(np.zeros((2, 2)), (SIGMA_Z,), [[0.5]]))))


def _semigroup_dt_scaled(monkeypatch):
    trajectory = decohere.gksl.semigroup_trajectory
    monkeypatch.setattr(decohere.gksl, "semigroup_trajectory",
                        lambda gen, rho0, dt, n: trajectory(gen, rho0, 1.01 * dt, n))


def _phi_argument_scaled(monkeypatch):
    phi = GaussianMomentumLaw.phi
    monkeypatch.setattr(GaussianMomentumLaw, "phi", lambda law, x: phi(law, 1.01 * x))


def _factor_time_scaled(monkeypatch):
    factor = decohere.collisional.decoherence_factor
    monkeypatch.setattr(decohere.collisional, "decoherence_factor",
                        lambda law, dx, t: factor(law, dx, 1.5 * t))


def _cutoff_ten_omega_c(monkeypatch):
    # every spectral integral truncated at 10 omega_c
    post_init = DephasingModel.__post_init__

    def short(model):
        post_init(model)
        object.__setattr__(model, "cutoff", 10.0 * model.spectral.omega_c)

    monkeypatch.setattr(DephasingModel, "__post_init__", short)


def _thermal_weight_scaled(monkeypatch):
    # J coth(beta w/2) scaled by 1.01 in both the panel rule and its fallback
    weight, thermal = BathSpec.thermal_weight, DephasingModel._thermal
    monkeypatch.setattr(BathSpec, "thermal_weight", lambda bath, w: 1.01 * weight(bath, w))
    monkeypatch.setattr(DephasingModel, "_thermal", lambda model, w: 1.01 * thermal(model, w))


ROWS = [
    pytest.param("dephasing_ohmic_zero_temperature", {}, _dissipator_rate_one,
                 "coherence_abs_analytic_vs_ode", id="dephasing-dissipator-rate"),
    # every shipped dephasing scenario has omega0 = 0, where the sign cannot show
    pytest.param("dephasing_ohmic_zero_temperature", {"parameters": {"omega0": 0.7}},
                 _rotation_sign_flipped, "coherence_complex_analytic_vs_ode",
                 id="dephasing-rotation-sign"),
    pytest.param("gksl_unitary_qubit", {}, _semigroup_dt_scaled,
                 "ode_vs_semigroup", id="gksl-semigroup-dt"),
    pytest.param("collisional_gaussian_grid", {}, _phi_argument_scaled,
                 "exact_vs_discretized_generator", id="collisional-phi-argument"),
    pytest.param("collisional_gaussian_grid", {}, _factor_time_scaled,
                 "decoherence_factor_vs_exact", id="collisional-decoherence-factor"),
    # the closed form, the ODE and both two-form routes read the same weight
    pytest.param("dephasing_ohmic_zero_temperature", {"parameters": {"bath": {"beta": 2.0}}},
                 _thermal_weight_scaled, "decoherence_function_two_forms",
                 id="dephasing-thermal-weight",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason="common-mode spectral "
                                         "mutation: needs an independent series residual")),
    # gamma off by up to 2e-3 at s = 4, but the two-form routes truncate alike
    pytest.param("dephasing_ohmic_zero_temperature",
                 {"parameters": {"spectral": {"coupling": 0.05, "s": 4.0, "omega_c": 1.0}},
                  "time": {"n_points": 21}},
                 _cutoff_ten_omega_c, "gamma_two_forms", id="dephasing-short-cutoff",
                 marks=[pytest.mark.xfail(strict=True, raises=AssertionError,
                                          reason="common-mode spectral "
                                          "mutation: needs the Gamma-function series residual "
                                          "(ROADMAP item 2)"),
                        # at s = 4 and T = 0 gamma turns negative
                        pytest.mark.filterwarnings("ignore::decohere.errors.NegativeRateWarning")]),
]


@pytest.mark.parametrize("scenario, changes, mutate, residual", ROWS)
def test_mutation_fails_the_report(monkeypatch, scenario, changes, mutate, residual):
    raw = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    for block, values in changes.items():
        raw[block].update(values)
    report = run_scenario(validate_scenario(raw))[2]
    assert report.passed
    assert report.cross_check_residuals[residual] <= DRIFT_ERROR_THRESHOLD

    mutate(monkeypatch)
    report = run_scenario(validate_scenario(raw))[2]
    assert not report.passed
    assert report.cross_check_residuals[residual] > DRIFT_ERROR_THRESHOLD
    assert residual in report.violations
