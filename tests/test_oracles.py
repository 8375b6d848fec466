"""Every report residual must be able to fail.

Each row is a mutation of one family's own module, a shipped scenario
(with some parameters changed) and the residual that must catch it: the
unmutated run passes with that residual within the drift bound, and the
mutated run fails with it above the bound.  A mutation that no residual
catches yet is marked ``xfail(strict=True)``, so that the row must be
updated when a new cross-check catches it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

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


def _semigroup_dt_scaled(monkeypatch):
    trajectory = decohere.gksl.semigroup_trajectory
    monkeypatch.setattr(decohere.gksl, "semigroup_trajectory",
                        lambda gen, rho0, dt, n: trajectory(gen, rho0, 1.01 * dt, n))


def _phi_argument_scaled(monkeypatch):
    phi = GaussianMomentumLaw.phi
    monkeypatch.setattr(GaussianMomentumLaw, "phi", lambda law, x: phi(law, 1.01 * x))


def _thermal_weight_scaled(monkeypatch):
    # J coth(beta w/2) scaled by 1.01 in both the panel rule and its fallback
    weight, factor = BathSpec.thermal_weight, BathSpec.thermal_factor
    monkeypatch.setattr(BathSpec, "thermal_weight", lambda bath, w: 1.01 * weight(bath, w))
    monkeypatch.setattr(BathSpec, "thermal_factor", lambda bath, w: 1.01 * factor(bath, w))


ROWS = [
    pytest.param("dephasing_ohmic_zero_temperature", {}, _dissipator_rate_one,
                 "coherence_abs_analytic_vs_ode", id="dephasing-dissipator-rate"),
    pytest.param("gksl_unitary_qubit", {}, _semigroup_dt_scaled,
                 "ode_vs_semigroup", id="gksl-semigroup-dt"),
    pytest.param("collisional_gaussian_grid", {}, _phi_argument_scaled,
                 "exact_vs_discretized_generator", id="collisional-phi-argument"),
    # the closed form, the ODE and both two-form routes read the same weight
    pytest.param("dephasing_ohmic_zero_temperature", {"bath": {"beta": 2.0}},
                 _thermal_weight_scaled, "decoherence_function_two_forms",
                 id="dephasing-thermal-weight",
                 marks=pytest.mark.xfail(strict=True, reason="common-mode spectral "
                                         "mutation: needs an independent series residual")),
]


@pytest.mark.parametrize("scenario, parameters, mutate, residual", ROWS)
def test_mutation_fails_the_report(monkeypatch, scenario, parameters, mutate, residual):
    raw = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    raw["parameters"].update(parameters)
    report = run_scenario(validate_scenario(raw))[2]
    assert report.passed
    assert report.cross_check_residuals[residual] <= DRIFT_ERROR_THRESHOLD

    mutate(monkeypatch)
    report = run_scenario(validate_scenario(raw))[2]
    assert not report.passed
    assert report.cross_check_residuals[residual] > DRIFT_ERROR_THRESHOLD
    assert residual in report.violations
