import math

import numpy as np
import pytest
from helpers import random_density_matrix, random_generator, reference_ode_solve

import decohere.gksl
from decohere import BathSpec, DephasingModel, SpectralDensity
from decohere.errors import MaxStepsError, StepUnderflowError, ValidationError
from decohere.gksl import integrate_constant, integrate_time_dependent
from decohere.numcore import OdeSpec, ode_solve


def test_zero_rhs_is_constant():
    v = np.array([1.0, -2.0, 0.5])
    t = np.linspace(0.0, 4.0, 9)
    out = ode_solve(lambda tt, y: np.zeros_like(y), v, t)
    assert out.shape == (9, 3)
    assert np.abs(out - v).max() == 0.0


def test_exponential_decay():
    out = ode_solve(lambda t, y: -y, [1.0], [0.0, 1.0])
    assert abs(out[-1, 0] - math.exp(-1.0)) < 1e-8


def test_complex_rotation_as_real_pair():
    # y' = i y encoded as (re, im): re' = -im, im' = re
    def rhs(t, u):
        return np.array([-u[1], u[0]])

    out = ode_solve(rhs, [1.0, 0.0], [0.0, math.pi])
    z = complex(out[-1, 0], out[-1, 1])
    assert abs(z - (-1.0)) < 1e-8


def test_complex_rotation_native():
    out = ode_solve(lambda t, y: 1j * y, np.array([1.0 + 0j]), [0.0, math.pi])
    assert abs(out[-1, 0] - (-1.0)) < 1e-8


def test_dense_output_at_grid_times():
    t = np.linspace(0.0, 2.0, 21)
    out = ode_solve(lambda tt, y: -y, [1.0], t)
    assert np.abs(out[:, 0] - np.exp(-t)).max() < 1e-8


def test_halved_tolerance_self_consistency():
    t = [0.0, 3.0]
    rhs = lambda tt, y: np.array([y[1], -y[0]])  # noqa: E731
    coarse = OdeSpec(abs_tol=1e-9, rel_tol=1e-9)
    fine = OdeSpec(abs_tol=5e-10, rel_tol=5e-10)
    a = ode_solve(rhs, [1.0, 0.0], t, coarse)
    b = ode_solve(rhs, [1.0, 0.0], t, fine)
    assert np.abs(a - b).max() < 1e-9


def test_single_time_returns_initial_state():
    out = ode_solve(lambda tt, y: -y, [2.0], [1.5])
    assert out.shape == (1, 1)
    assert out[0, 0] == 2.0


def test_grid_must_ascend():
    with pytest.raises(ValidationError):
        ode_solve(lambda tt, y: -y, [1.0], [0.0, 1.0, 0.5])


@pytest.mark.parametrize("y0", [[], [[1.0, 0.0]], [1.0, math.nan]],
                         ids=["empty", "2-d", "nan"])
def test_initial_state_must_be_finite_non_empty_1d(y0):
    # rejected before the first step, with a typed error; a one-point grid
    # takes no step, and is still no way round the check
    for t_grid in ([0.0, 1.0], [0.0]):
        with pytest.raises(ValidationError, match="y0 must be"):
            ode_solve(lambda tt, y: -y, y0, t_grid)


def test_max_steps_budget():
    spec = OdeSpec(max_steps=10)
    calls = []

    def rhs(tt, y):
        calls.append(tt)
        return -1000.0 * (y - np.cos(100 * tt))

    with pytest.raises(MaxStepsError):
        ode_solve(rhs, [0.0], [0.0, 50.0], spec)
    # 6 evaluations per step, and 10 to spare
    assert len(calls) == 10 * 6 + 10


def test_step_underflow_near_blowup():
    # y' = y^2 from y0 = 1 blows up at t = 1; the required step collapses,
    # with scipy's message word for word
    rhs = lambda tt, y: y * y  # noqa: E731
    with pytest.raises(StepUnderflowError) as got:
        ode_solve(rhs, [1.0], [0.0, 2.0])
    with pytest.raises(StepUnderflowError) as want:
        reference_ode_solve(rhs, [1.0], [0.0, 2.0])
    assert str(got.value) == str(want.value) == (
        "Required step size is less than spacing between numbers.")


# ----------------------------------------------------------------------
# the Dormand-Prince port against scipy's RK45
# ----------------------------------------------------------------------


def _stiff(tt, y):
    """Forced relaxation at rate 1000: the step grows past RK45's stability
    bound, about 3.3e-3, and is rejected again and again."""
    return -1000.0 * (y - np.cos(10.0 * tt))


@pytest.mark.parametrize("rhs, y0, t_grid", [
    (lambda tt, y: -y, [1.0], np.linspace(0.0, 2.0, 21)),
    (lambda tt, y: 1j * y, np.array([1.0 + 0j, 0.5 - 2j]), np.linspace(0.0, 2 * math.pi, 13)),
    (_stiff, [0.0], np.linspace(0.0, 1.0, 11)),
    (lambda tt, y: -y, [2.0], [1.5]),
], ids=["real-decay", "complex-rotation", "stiff", "one-point"])
def test_ode_solve_is_scipy_rk45(rhs, y0, t_grid):
    got = ode_solve(rhs, y0, t_grid)
    want = reference_ode_solve(rhs, y0, t_grid)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_stiff_case_rejects_steps():
    # a retried step starts where the rejected one did, so its first stage
    # time lies before the last stage time of the attempt it replaces
    attempts = []
    ode_solve(_stiff, [0.0], np.linspace(0.0, 1.0, 11), before_step=attempts.append)
    rejected = sum(b[0] < a[-1] for a, b in zip(attempts[1:], attempts[2:]))
    assert rejected >= 5  # 8 on this grid


def test_before_step_hands_over_each_attempt_stage_times():
    attempts, evaluated = [], []

    def rhs(tt, y):
        evaluated.append((len(attempts), tt))
        return -y

    ode_solve(rhs, [1.0], np.linspace(0.0, 2.0, 5), before_step=attempts.append)
    assert attempts[0].tolist() == [0.0]
    assert all(times.shape == (5,) and np.all(np.diff(times) > 0) for times in attempts[1:])
    # rhs runs only at the times of the latest hand-over: once at each
    # stage time, twice at the last, t + h
    for n, times in enumerate(attempts, start=1):
        at = [tt for i, tt in evaluated if i == n]
        assert at == times.tolist() + ([times[-1]] if n > 1 else [])


def _reference_with_a_hook_per_evaluation(rhs, y0, t_grid, spec=None, *, before_step=None):
    """reference_ode_solve, with before_step given each evaluated time
    alone, just before rhs is evaluated there."""
    def hooked(tt, y):
        if before_step is not None:
            before_step(np.array([tt]))
        return rhs(tt, y)

    return reference_ode_solve(hooked, y0, t_grid, spec)


def _states(trajectory):
    return np.array([state.matrix for state in trajectory])


@pytest.mark.parametrize("beta", [math.inf, 0.5])
def test_dephasing_right_hand_side_is_scipy_rk45(monkeypatch, beta):
    # the rates of a step come from one batched evaluation over its stage
    # times; scipy's route evaluates them one time at a time
    model = DephasingModel(0.3, SpectralDensity(0.7, 3.0, 1.0), BathSpec(beta))
    rho0 = decohere.DensityMatrix.pure([1.0, 1.0])
    t_grid = np.linspace(0.0, 5.0, 21)
    got = integrate_time_dependent(*model.generator_parts, model.dephasing_rate, rho0, t_grid)
    monkeypatch.setattr(decohere.gksl.numcore, "ode_solve",
                        _reference_with_a_hook_per_evaluation)
    want = integrate_time_dependent(*model.generator_parts, model.dephasing_rate, rho0, t_grid)
    assert np.array_equal(_states(got), _states(want))


def test_gksl_right_hand_side_is_scipy_rk45(monkeypatch):
    rng = np.random.default_rng(11)
    gen, rho0 = random_generator(rng, 3, 2), random_density_matrix(rng, 3)
    t_grid = np.linspace(0.0, 2.0, 9)
    got = integrate_constant(gen, rho0, t_grid)
    monkeypatch.setattr(decohere.gksl.numcore, "ode_solve",
                        _reference_with_a_hook_per_evaluation)
    want = integrate_constant(gen, rho0, t_grid)
    assert np.array_equal(_states(got), _states(want))


def test_spec_invariants():
    with pytest.raises(ValidationError):
        OdeSpec(abs_tol=1e-14)
    with pytest.raises(ValidationError):
        OdeSpec(initial_step=0.0)
    with pytest.raises(ValidationError):
        OdeSpec(max_steps=0)
