import json
import math
from pathlib import Path

import numpy as np
import pytest

import decohere.collisional
from decohere import (
    DensityMatrix,
    GasSpec,
    GaussianMomentumLaw,
    PositionDensityMatrix,
    TwoPointMomentumLaw,
    apply_generator,
    build_discretized_generator,
    choi_of_propagator,
    decoherence_factor,
    detailed_balance_ratio,
    evolve_exact,
    fdt_response,
    integrate_constant,
    is_completely_positive,
    mb_structure_factor,
    semigroup_propagator,
)
from decohere.cli import run_scenario, validate_scenario
from decohere.errors import (
    QuadratureSupportError,
    ValidationError,
    ZeroMomentumTransferError,
)
from decohere.numcore import integrate_adaptive

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def random_position_state(rng, grid):
    n = len(grid)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return PositionDensityMatrix(grid, rho / np.trace(rho).real)


# ----------------------------------------------------------------------
# characteristic functions and the closed-form factor
# ----------------------------------------------------------------------


def test_phi_at_zero_is_one():
    assert GaussianMomentumLaw(1.0, 2.0).phi(0.0) == 1.0
    assert TwoPointMomentumLaw(1.0, 3.0).phi(0.0) == 1.0


def test_phi_gaussian_value():
    assert abs(GaussianMomentumLaw(1.0, 1.0).phi(1.0) - math.exp(-0.5)) < 1e-15


def test_phi_two_point_value():
    assert abs(TwoPointMomentumLaw(1.0, math.pi).phi(1.0) - (-1.0)) < 1e-15


def test_phi_bounded():
    g = GaussianMomentumLaw(1.0, 0.7)
    tp = TwoPointMomentumLaw(1.0, 2.2)
    for x in np.linspace(-20, 20, 41):
        assert abs(g.phi(x)) <= 1.0
        assert abs(tp.phi(x)) <= 1.0


def test_factor_diagonal_untouched():
    law = GaussianMomentumLaw(3.0, 1.0)
    for t in (0.0, 1.0, 10.0):
        assert decoherence_factor(law, 0.0, t) == 1.0


def test_factor_saturates_at_collision_rate():
    law = GaussianMomentumLaw(1.0, 1.0)
    assert abs(decoherence_factor(law, 1e6, 1.0) - math.exp(-1.0)) < 1e-12


def test_factor_direct_value():
    law = GaussianMomentumLaw(2.0, 1.0)
    expected = math.exp(-2.0 * (1.0 - math.exp(-0.5)))
    assert abs(decoherence_factor(law, 1.0, 1.0) - expected) < 1e-15


def test_law_validation():
    with pytest.raises(ValidationError):
        GaussianMomentumLaw(0.0, 1.0)
    with pytest.raises(ValidationError):
        TwoPointMomentumLaw(1.0, -2.0)


# ----------------------------------------------------------------------
# exact evolution
# ----------------------------------------------------------------------


def test_evolve_t0_identity():
    rho0 = PositionDensityMatrix.superposition([0.0, 1.0, 2.5])
    out = evolve_exact(rho0, GaussianMomentumLaw(1.0, 1.0), [0.0])[0]
    assert np.abs(out.matrix - rho0.matrix).max() == 0.0


def test_evolve_rejects_negative_time():
    rho0 = PositionDensityMatrix.superposition([0.0, 1.0])
    with pytest.raises(ValidationError, match="t must be >= 0"):
        evolve_exact(rho0, GaussianMomentumLaw(1.0, 1.0), [0.0, 0.5, -1e-300])


@pytest.mark.parametrize("n_points", [2, 51, 401])
def test_closed_form_evaluates_phi_once_per_separation(monkeypatch, n_points):
    # one evolve_exact call per run, making N^2 Phi calls whatever the grid length
    raw = json.loads((SCENARIOS / "collisional_gaussian_grid.json").read_text())
    raw["time"]["n_points"] = n_points
    scenario = validate_scenario(raw)
    n = len(raw["parameters"]["grid"])
    exact_calls, closed_form_phi_calls, inside = [], [], []
    phi, evolve = GaussianMomentumLaw.phi, decohere.collisional.evolve_exact

    def counted_phi(law, x):
        if inside:
            closed_form_phi_calls.append(x)
        return phi(law, x)

    def counted_evolve(*args):
        exact_calls.append(args)
        inside.append(True)
        try:
            return evolve(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(GaussianMomentumLaw, "phi", counted_phi)
    monkeypatch.setattr(decohere.collisional, "evolve_exact", counted_evolve)
    _, rows, report = run_scenario(scenario)
    assert report.passed and len(rows) == n_points
    assert len(exact_calls) == 1
    assert len(closed_form_phi_calls) <= n * n


def test_evolve_diagonal_state_unchanged():
    grid = np.array([-1.0, 0.0, 2.0])
    rho0 = PositionDensityMatrix(grid, np.diag([0.2, 0.5, 0.3]).astype(complex))
    out = evolve_exact(rho0, GaussianMomentumLaw(2.0, 1.0), [5.0])[0]
    assert np.abs(out.matrix - rho0.matrix).max() < 1e-15


def test_evolve_two_site_halving():
    # well separated pair: plateau rate Lambda halves the coherence at ln 2
    law = GaussianMomentumLaw(1.0, 50.0)
    rho0 = PositionDensityMatrix.superposition([0.0, 1.0])
    out = evolve_exact(rho0, law, [math.log(2.0)])[0]
    assert abs(out.matrix[0, 1] - 0.25) < 1e-10
    assert abs(out.matrix[0, 0] - 0.5) < 1e-15


def test_evolve_diagonal_preserved_to_machine_precision():
    rng = np.random.default_rng(71)
    grid = np.linspace(-2.0, 2.0, 6)
    rho0 = random_position_state(rng, grid)
    for out in evolve_exact(rho0, GaussianMomentumLaw(1.3, 0.8), (0.5, 2.0, 5.0)):
        assert np.abs(np.diag(out.matrix) - np.diag(rho0.matrix)).max() < 1e-12


def test_evolve_offdiagonals_monotone_nonincreasing():
    rng = np.random.default_rng(73)
    grid = np.linspace(0.0, 3.0, 5)
    rho0 = random_position_state(rng, grid)
    law = GaussianMomentumLaw(1.0, 1.0)
    previous = np.abs(rho0.matrix)
    for out in evolve_exact(rho0, law, (0.3, 1.0, 2.5, 5.0)):
        current = np.abs(out.matrix)
        assert np.all(current <= previous + 1e-12)
        previous = current


def test_evolve_output_stays_positive_semidefinite():
    rng = np.random.default_rng(79)
    grid = np.linspace(-1.0, 4.0, 7)
    rho0 = random_position_state(rng, grid)
    out = evolve_exact(rho0, GaussianMomentumLaw(2.0, 1.5), [1.7])[0]
    w = np.linalg.eigvalsh(out.matrix)
    assert w.min() >= -1e-8


def test_position_state_validation():
    with pytest.raises(ValidationError):
        PositionDensityMatrix([0.0, 1.0], np.diag([0.7, 0.7]))
    with pytest.raises(ValidationError):
        PositionDensityMatrix([1.0, 0.0], np.diag([0.5, 0.5]))  # descending grid
    # a grid state is checked as a DensityMatrix, within 1e-10
    with pytest.raises(ValidationError, match="trace"):
        PositionDensityMatrix([0.0, 1.0], np.diag([0.5, 0.5 + 1e-9]))
    with pytest.raises(ValidationError, match="negative eigenvalue -1.000e-09"):
        PositionDensityMatrix([0.0, 1.0], np.array([[0.5, 0.5 + 1e-9], [0.5 + 1e-9, 0.5]]))
    with pytest.raises(ValidationError, match="grid has 3 points"):
        PositionDensityMatrix([0.0, 1.0, 2.0], np.eye(2) / 2)


@pytest.mark.parametrize("grid", [[], [[0.0, 1.0]], [0.0, math.nan], [0.0, math.inf],
                                  [0.0, 0.0], [0.0, 2.0, 1.0]],
                         ids=["empty", "2-d", "nan", "inf", "repeated", "unsorted"])
def test_position_state_rejects_a_bad_grid_at_construction(grid):
    n = max(np.size(grid), 1)
    with pytest.raises(ValidationError, match="grid"):
        PositionDensityMatrix(grid, np.eye(n) / n)


def test_exact_states_share_the_checked_grid_and_check_each_matrix():
    rho0 = PositionDensityMatrix.superposition([0.0, 1.0, 2.5])
    states = evolve_exact(rho0, GaussianMomentumLaw(1.0, 1.0), [0.0, 0.5, 1.0])
    assert all(state.grid is rho0.grid for state in states)
    assert all(state.hermiticity_defect == DensityMatrix(state.matrix).hermiticity_defect
               for state in states)
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        rho0.with_matrix(np.array([[0.5, 0.0, 0.6], [0.0, 0.0, 0.0], [0.6, 0.0, 0.5]]))
    with pytest.raises(ValidationError, match="grid has 3 points"):
        rho0.with_matrix(np.eye(2) / 2)


# ----------------------------------------------------------------------
# discretized generator
# ----------------------------------------------------------------------


def test_two_point_generator_action_is_exact():
    law = TwoPointMomentumLaw(1.4, 0.9)
    grid = np.linspace(0.0, 7.0, 8)
    gen = build_discretized_generator(law, grid, 2)
    rng = np.random.default_rng(83)
    rho = random_position_state(rng, grid)
    out = apply_generator(gen, rho)
    dx = grid[:, None] - grid[None, :]
    expected = -law.rate * (1.0 - np.cos(law.q0 * dx)) * rho.matrix
    assert np.abs(out - expected).max() < 1e-12


def test_gaussian_characteristic_function_converges():
    # the generator's kernel is -rate (1 - Phi_n(x - y)), so acting on the
    # all-ones matrix it gives Phi_n at every separation of the grid
    law = GaussianMomentumLaw(1.0, 1.0)
    grid = np.arange(8.0)
    gen = build_discretized_generator(law, grid, 64)
    phi_n = 1.0 + apply_generator(gen, np.ones((8, 8), dtype=complex))[0].real / law.rate
    phi = np.exp(-0.5 * grid * grid)
    assert np.abs(phi_n - phi).max() <= 1e-10


def test_generator_matches_exact_evolution():
    rng = np.random.default_rng(89)
    grid = np.linspace(0.0, 7.0, 8)
    rho0 = random_position_state(rng, grid)
    for law, n_q in [
        (GaussianMomentumLaw(1.0, 1.0), 64),
        (TwoPointMomentumLaw(1.0, 0.7), 2),
    ]:
        gen = build_discretized_generator(law, grid, n_q)
        t_grid = np.array([0.0, 0.5, 1.0])
        trajectory = integrate_constant(gen, rho0, t_grid)
        for state, exact in zip(trajectory, evolve_exact(rho0, law, t_grid)):
            assert np.abs(state.matrix - exact.matrix).max() < 1e-7


def test_two_point_semigroup_matches_exact_to_machine_precision():
    grid = np.linspace(0.0, 7.0, 8)
    law = TwoPointMomentumLaw(1.0, 0.7)
    gen = build_discretized_generator(law, grid, 2)
    rng = np.random.default_rng(97)
    rho0 = random_position_state(rng, grid)
    times = (0.5, 2.0, 5.0)
    for t, exact in zip(times, evolve_exact(rho0, law, times)):
        prop = semigroup_propagator(gen, t)
        assert np.abs(prop.apply(rho0.matrix) - exact.matrix).max() < 1e-12


def test_discretized_semigroup_is_completely_positive():
    grid = np.linspace(-1.5, 1.5, 4)
    for law, n_q in [
        (GaussianMomentumLaw(1.0, 1.0), 32),
        (TwoPointMomentumLaw(2.0, 1.1), 2),
    ]:
        gen = build_discretized_generator(law, grid, n_q)
        choi = choi_of_propagator(semigroup_propagator(gen, 1.0))
        result = is_completely_positive(choi, tol=1e-8)
        assert result.passed


def test_hermgauss_cache_is_read_only():
    # the nodes and weights are computed once per order and shared
    h, v = decohere.collisional._hermgauss(64)
    assert decohere.collisional._hermgauss(64)[0] is h
    for cached in (h, v):
        with pytest.raises(ValueError):
            cached[0] = 0.0
    q, w = GaussianMomentumLaw(1.0, 1.0).nodes(64)
    q[0] = w[0] = 0.0  # each law's nodes are its own arrays
    assert h[0] != 0.0 and v[0] != 0.0


def test_node_budget_validation():
    with pytest.raises(QuadratureSupportError):
        GaussianMomentumLaw(1.0, 1.0).nodes(8)
    with pytest.raises(QuadratureSupportError):
        TwoPointMomentumLaw(1.0, 1.0).nodes(1)


# ----------------------------------------------------------------------
# structure factor
# ----------------------------------------------------------------------


def unit_gas(beta=1.0, mass=1.0):
    return GasSpec(mass=mass, density=1.0, beta=beta)


def test_structure_factor_peak_value():
    gas = unit_gas()
    peak = mb_structure_factor(gas, 1.0, -0.5)
    assert abs(peak - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12


def test_structure_factor_off_peak_value():
    gas = unit_gas()
    value = mb_structure_factor(gas, 1.0, 0.5)
    expected = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert abs(value - expected) < 1e-12


def test_structure_factor_sum_rule():
    gas = unit_gas()
    value, _ = integrate_adaptive(
        lambda e: mb_structure_factor(gas, 1.0, e), -40.0, 40.0
    )
    assert abs(value - 1.0) <= 1e-8


def test_structure_factor_rejects_zero_q():
    with pytest.raises(ZeroMomentumTransferError):
        mb_structure_factor(unit_gas(), 0.0, 1.0)


def test_detailed_balance_examples():
    assert abs(detailed_balance_ratio(unit_gas(), 1.0, 0.0) - 1.0) < 1e-15
    assert abs(
        detailed_balance_ratio(unit_gas(beta=1.0), 1.0, 0.5) - math.exp(-0.5)
    ) < 1e-12
    assert abs(
        detailed_balance_ratio(unit_gas(beta=2.0), 1.0, 1.0) - math.exp(-2.0)
    ) < 1e-12


def test_detailed_balance_far_tail_uses_log_space():
    # naive division would be 0/0 underflow here
    ratio = detailed_balance_ratio(unit_gas(beta=2.0), 0.5, 40.0)
    assert abs(ratio / math.exp(-80.0) - 1.0) < 1e-9


def test_fdt_zero_energy():
    assert fdt_response(unit_gas(), 1.0, 0.0) == 0.0


def test_fdt_value_composes_structure_factor():
    gas = unit_gas()
    value = fdt_response(gas, 1.0, 0.5)
    expected = -math.pi * math.expm1(0.5) * mb_structure_factor(gas, 1.0, 0.5)
    assert abs(value - expected) < 1e-12
    assert value < 0.0


def test_fdt_antisymmetry():
    gas = unit_gas(beta=1.7, mass=2.0)
    for e in (0.5, 3.0, 25.0):
        plus = fdt_response(gas, 1.2, e)
        minus = fdt_response(gas, 1.2, -e)
        assert abs(plus + minus) <= 1e-9 * max(abs(plus), 1e-300)


def test_gas_validation_and_mu_scale():
    with pytest.raises(ValidationError):
        GasSpec(mass=-1.0, density=1.0, beta=1.0)
    gas = GasSpec(mass=1.0, density=2.0, beta=1.0, v0=0.5, sigma_v=1.0)
    assert abs(gas.mu(0.0) - (2 * math.pi) ** 4 * 2.0 * 0.25) < 1e-12
    assert gas.mu(3.0) < gas.mu(0.0)
