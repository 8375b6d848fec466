"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import random_density_matrix, random_generator

from decohere import (
    BathSpec,
    DensityMatrix,
    DephasingModel,
    GasSpec,
    GaussianMomentumLaw,
    PositionDensityMatrix,
    SpectralDensity,
    TwoPointMomentumLaw,
    apply_generator,
    build_discretized_generator,
    choi_of_propagator,
    decoherence_factor,
    detailed_balance_ratio,
    evolve_exact,
    fdt_response,
    integrate_constant,
    integrate_time_dependent,
    is_completely_positive,
    mb_structure_factor,
    semigroup_propagator,
)
from decohere.cli import main
from decohere.numcore import integrate_adaptive

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS  ({detail})")


def test_criterion_1_cp_certification_of_random_semigroups():
    """50 random valid generators, d in {2,3,4}, m <= 3: Choi of exp(tL)
    stays PSD within 1e-8 and the trace is preserved within 1e-10."""
    rng = np.random.default_rng(101)
    worst_eig = math.inf
    worst_drift = 0.0
    for i in range(50):
        d = (2, 3, 4)[i % 3]
        m = 1 + (i % 3)
        gen = random_generator(rng, d, m)
        rho = random_density_matrix(rng, d)
        for t in (0.1, 1.0, 10.0):
            prop = semigroup_propagator(gen, t)
            result = is_completely_positive(choi_of_propagator(prop), tol=1e-8)
            assert result.passed, f"gen {i}, t={t}: min eig {result.min_eigenvalue}"
            worst_eig = min(worst_eig, result.min_eigenvalue)
            drift = abs(np.trace(prop.apply(rho.matrix)) - 1.0)
            assert drift <= 1e-10, f"gen {i}, t={t}: trace drift {drift}"
            worst_drift = max(worst_drift, drift)
    _report(1, f"min Choi eig {worst_eig:.2e}, max trace drift {worst_drift:.2e}")


DEPHASING_GRID = list(
    itertools.product([0.1, 1.0], [0.5, 1.0, 2.0], [1.0, 5.0], [0.1, 1.0, math.inf])
)


def test_criterion_2_dephasing_two_form_consistency():
    """gamma via the frequency integral equals the time integral of the
    correlation function, and Gamma equals the time integral of gamma,
    each within 1e-7, across the (coupling, exponent, cutoff, beta) grid."""
    worst_rate = 0.0
    worst_decoherence = 0.0
    for lam, s, wc, beta in DEPHASING_GRID:
        model = DephasingModel(0.0, SpectralDensity(lam, s, wc), BathSpec(beta))
        for t in (0.9, 10.0):
            rate_gap = abs(
                model.dephasing_rate(t) - model.dephasing_rate_from_correlation(t)
            )
            dec_gap = abs(
                model.decoherence_function(t)
                - model.decoherence_function_from_rate(t)
            )
            assert rate_gap <= 1e-7, f"(lam={lam}, s={s}, wc={wc}, beta={beta}, t={t})"
            assert dec_gap <= 1e-7, f"(lam={lam}, s={s}, wc={wc}, beta={beta}, t={t})"
            worst_rate = max(worst_rate, rate_gap)
            worst_decoherence = max(worst_decoherence, dec_gap)
    _report(2, f"max gaps: rate {worst_rate:.2e}, decoherence {worst_decoherence:.2e}")


def test_criterion_3_dephasing_closed_form_oracle():
    """Zero-temperature Ohmic closed forms at t = 1: gamma = 1/2 and
    Gamma = ln(2)/2, each within 1e-8 of the quadrature values."""
    model = DephasingModel(0.0, SpectralDensity(1.0, 1.0, 1.0), BathSpec(math.inf))
    gamma_gap = abs(model.dephasing_rate(1.0) - 0.5)
    dec_gap = abs(model.decoherence_function(1.0) - 0.5 * math.log(2.0))
    assert gamma_gap <= 1e-8
    assert dec_gap <= 1e-8
    _report(3, f"gamma gap {gamma_gap:.2e}, Gamma gap {dec_gap:.2e}")


def test_criterion_4_end_to_end_dephasing():
    """Integrated master-equation trajectories reproduce the closed-form
    coherence magnitude within 1e-6 at 50 times over [0, 5] on a 3x3
    (exponent, beta) grid; populations stay constant within 1e-8."""
    rho0 = DensityMatrix.pure([1.0, 1.0])
    t_grid = np.linspace(0.0, 5.0, 50)
    worst_coh = 0.0
    worst_pop = 0.0
    for s, beta in itertools.product([0.5, 1.0, 2.0], [0.5, 2.0, math.inf]):
        model = DephasingModel(1.0, SpectralDensity(0.5, s, 1.0), BathSpec(beta))
        trajectory = integrate_time_dependent(
            *model.generator_parts, model.dephasing_rate, rho0, t_grid)
        for t, state in zip(t_grid, trajectory):
            expected = math.exp(-model.decoherence_function(float(t))) * abs(
                rho0.matrix[0, 1]
            )
            coh_gap = abs(abs(state.matrix[0, 1]) - expected)
            pop_gap = float(np.abs(np.diag(state.matrix) - 0.5).max())
            assert coh_gap <= 1e-6, f"(s={s}, beta={beta}, t={t})"
            assert pop_gap <= 1e-8, f"(s={s}, beta={beta}, t={t})"
            worst_coh = max(worst_coh, coh_gap)
            worst_pop = max(worst_pop, pop_gap)
    _report(4, f"max coherence gap {worst_coh:.2e}, max population drift {worst_pop:.2e}")


def test_criterion_5_collisional_equivalence():
    """ODE integration of the discretized momentum-kick generator matches
    the entrywise closed form within 1e-7 (N = 8, both laws, t <= 5);
    the two-point law with its two exact nodes matches to 1e-12."""
    rng = np.random.default_rng(113)
    grid = np.linspace(0.0, 7.0, 8)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho0 = PositionDensityMatrix(grid, rho / np.trace(rho).real)

    t_grid = np.array([0.0, 1.25, 2.5, 3.75, 5.0])
    worst = 0.0
    for law, n_q in [
        (GaussianMomentumLaw(1.0, 1.0), 64),
        (TwoPointMomentumLaw(1.0, 0.7), 2),
    ]:
        gen = build_discretized_generator(law, grid, n_q)
        trajectory = integrate_constant(gen, rho0, t_grid)
        exact_states = evolve_exact(rho0, law, t_grid)
        for t, state, exact in zip(t_grid, trajectory, exact_states):
            gap = float(np.abs(state.matrix - exact.matrix).max())
            assert gap <= 1e-7, f"law {law}, t={t}: {gap}"
            worst = max(worst, gap)

    # two-point exactness: generator action and semigroup at machine level
    law = TwoPointMomentumLaw(1.0, 0.7)
    gen = build_discretized_generator(law, grid, 2)
    dx = grid[:, None] - grid[None, :]
    action_gap = float(
        np.abs(
            apply_generator(gen, rho0)
            + law.rate * (1.0 - np.cos(law.q0 * dx)) * rho0.matrix
        ).max()
    )
    assert action_gap <= 1e-12
    semigroup_gap = 0.0
    times = (0.5, 2.0, 5.0)
    for t, exact in zip(times, evolve_exact(rho0, law, times)):
        prop = semigroup_propagator(gen, t)
        semigroup_gap = max(
            semigroup_gap, float(np.abs(prop.apply(rho0.matrix) - exact.matrix).max())
        )
    assert semigroup_gap <= 1e-12
    _report(
        5,
        f"ODE gap {worst:.2e}, two-point action gap {action_gap:.2e}, "
        f"semigroup gap {semigroup_gap:.2e}",
    )


def test_criterion_6_saturation_plateau():
    """Far-separated points decohere at the bare collision rate: the factor
    at separation 10/sigma_q and t = 1 is within 1e-6 of exp(-1)."""
    worst = 0.0
    for sigma_q in (0.5, 1.0, 4.0):
        law = GaussianMomentumLaw(1.0, sigma_q)
        gap = abs(decoherence_factor(law, 10.0 / sigma_q, 1.0) - math.exp(-1.0))
        assert gap <= 1e-6
        worst = max(worst, gap)
    _report(6, f"max plateau gap {worst:.2e}")


def test_criterion_7_structure_factor_identities():
    """Detailed balance (1e-9 relative), the sum rule (1e-8) and the
    antisymmetry of the response (1e-9 relative) on a 3x3x3 grid."""
    worst_db = 0.0
    worst_sum = 0.0
    worst_anti = 0.0
    for q, beta, mass in itertools.product(
        [0.5, 1.0, 2.0], [0.5, 1.0, 2.0], [0.5, 1.0, 3.0]
    ):
        gas = GasSpec(mass=mass, density=1.0, beta=beta)
        for e in (0.25, 1.0, 4.0):
            db = detailed_balance_ratio(gas, q, e)
            rel = abs(db / math.exp(-beta * e) - 1.0)
            assert rel <= 1e-9
            worst_db = max(worst_db, rel)
            plus = fdt_response(gas, q, e)
            minus = fdt_response(gas, q, -e)
            anti = abs(plus + minus) / max(abs(plus), abs(minus))
            assert anti <= 1e-9
            worst_anti = max(worst_anti, anti)
        center = -q * q / (2.0 * mass)
        width = abs(q) / math.sqrt(beta * mass)
        norm, _ = integrate_adaptive(
            lambda e: mb_structure_factor(gas, q, e),
            center - 45.0 * width,
            center + 45.0 * width,
        )
        assert abs(norm - 1.0) <= 1e-8
        worst_sum = max(worst_sum, abs(norm - 1.0))
    _report(
        7,
        f"detailed balance {worst_db:.2e}, sum rule {worst_sum:.2e}, "
        f"antisymmetry {worst_anti:.2e}",
    )


def test_criterion_8_cli_contract(tmp_path):
    """The three example scenarios run to completion with exit code 0 and
    byte-identical CSV on repeated runs; the documented non-PSD
    Kossakowski and non-positive initial-state scenarios exit with code 2
    from run and check-cp."""
    names = [
        "dephasing_ohmic_zero_temperature",
        "collisional_two_site",
        "gksl_unitary_qubit",
    ]
    for name in names:
        raw = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        raw["output"]["csv_path"] = str(tmp_path / f"{name}.csv")
        raw["output"]["report_path"] = str(tmp_path / f"{name}_report.json")
        scenario_path = tmp_path / f"{name}.json"
        scenario_path.write_text(json.dumps(raw))

        assert main(["run", str(scenario_path)]) == 0, name
        first = (tmp_path / f"{name}.csv").read_bytes()
        assert main(["run", str(scenario_path)]) == 0, name
        assert (tmp_path / f"{name}.csv").read_bytes() == first, name
        report = json.loads((tmp_path / f"{name}_report.json").read_text())
        assert report["passed"] is True

    for failure in ("invalid_kossakowski", "invalid_initial_state"):
        for command in ("run", "check-cp"):
            assert main([command, str(SCENARIO_DIR / f"{failure}.json")]) == 2, failure
    _report(8, "3 scenarios ok + deterministic, 2 failure scenarios exit 2")
