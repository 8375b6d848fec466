"""Scenario runner: JSON in, CSV time series + JSON invariant report out.

Subcommands::

    decohere run <scenario.json>
    decohere check-cp <scenario.json> --times 0.1,1,10
    decohere sweep <scenario.json> --param spectral.s --values 0.5,1,2

Scenario files are strict JSON (unknown keys are rejected) with an "inf"
sentinel string for infinite inverse temperature.  CSV output uses 17
significant digits (round-trip exact for doubles) and LF line endings, so
identical scenarios produce byte-identical files.  Exit codes: 0 ok,
1 invariant violation, 2 usage/parse/validation error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import collisional as col
from .dephasing import BathSpec, DephasingModel, SpectralDensity
from .errors import DecohereError, NegativeRateWarning, ParseError, ValidationError
from .gksl import (
    DensityMatrix,
    GkslGenerator,
    Superoperator,
    choi_of_propagator,
    integrate_constant,
    integrate_time_dependent,
    is_completely_positive,
    propagate_semigroup,
    semigroup_propagator,
    vec,
)
from .numcore import OdeSpec, QuadratureSpec, hermiticity_defect

# Any drift or cross-check residual beyond this is an invariant violation
# (exit code 1).
VIOLATION_THRESHOLD = 1e-6
# check-cp passes while the smallest Choi eigenvalue stays above this.
CP_EIGENVALUE_FLOOR = -1e-8

SEED_ENV_VAR = "DECOHERE_SEED"


# ----------------------------------------------------------------------
# Scenario schema
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: model name, normalized parameter block, time
    grid, optional numerics overrides, output paths."""

    model: str
    parameters: dict
    t_max: float
    n_points: int
    quadrature: QuadratureSpec | None
    ode: OdeSpec | None
    csv_path: str
    report_path: str

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)

    def to_dict(self) -> dict:
        out: dict = {
            "model": self.model,
            "parameters": _encode_parameters(self.model, self.parameters),
            "time": {"t_max": self.t_max, "n_points": self.n_points},
        }
        numerics: dict = {}
        if self.quadrature is not None:
            q = self.quadrature
            numerics["quadrature"] = {
                "abs_tol": q.abs_tol,
                "rel_tol": q.rel_tol,
                "max_subdivisions": q.max_subdivisions,
                "tail_cutoff_multiplier": q.tail_cutoff_multiplier,
            }
        if self.ode is not None:
            o = self.ode
            numerics["ode"] = {
                "abs_tol": o.abs_tol,
                "rel_tol": o.rel_tol,
                "initial_step": o.initial_step,
                "max_steps": o.max_steps,
            }
        if numerics:
            out["numerics"] = numerics
        out["output"] = {"csv_path": self.csv_path, "report_path": self.report_path}
        return out


@dataclass
class InvariantReport:
    """Invariant drift and cross-check residuals of one scenario run."""

    trace_drift_max: float = 0.0
    hermiticity_drift_max: float = 0.0
    min_choi_eigenvalue: float | None = None
    choi_eigenvalue_by_time: dict | None = None
    cross_check_residuals: dict = field(default_factory=dict)
    seed: int | str | None = None
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def finalize(self) -> "InvariantReport":
        if self.trace_drift_max > VIOLATION_THRESHOLD:
            self.violations.append("trace_drift")
        if self.hermiticity_drift_max > VIOLATION_THRESHOLD:
            self.violations.append("hermiticity_drift")
        for name, value in self.cross_check_residuals.items():
            if value > VIOLATION_THRESHOLD:
                self.violations.append(name)
        if (
            self.min_choi_eigenvalue is not None
            and self.min_choi_eigenvalue < CP_EIGENVALUE_FLOOR
        ):
            self.violations.append("complete_positivity")
        return self

    def to_dict(self) -> dict:
        out = {
            "trace_drift_max": self.trace_drift_max,
            "hermiticity_drift_max": self.hermiticity_drift_max,
            "min_choi_eigenvalue": self.min_choi_eigenvalue,
            "cross_check_residuals": dict(self.cross_check_residuals),
            "seed": self.seed,
            "violations": list(self.violations),
            "passed": self.passed,
        }
        if self.choi_eigenvalue_by_time is not None:
            out["choi_eigenvalue_by_time"] = dict(self.choi_eigenvalue_by_time)
        return out


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------


def _check_keys(obj, path, allowed, required):
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} must be an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        listed = ", ".join(f'"{k}"' for k in unknown)
        raise ValidationError(f"unknown key {listed} in {path}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ValidationError(f'missing required key "{missing[0]}" in {path}')


def _number(value, path, *, minimum=None, exclusive_minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path} must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"{path} must be finite")
    if minimum is not None and v < minimum:
        raise ValidationError(f"{path} must be >= {minimum}")
    if exclusive_minimum is not None and v <= exclusive_minimum:
        raise ValidationError(f"{path} must be > {exclusive_minimum}")
    if maximum is not None and v > maximum:
        raise ValidationError(f"{path} must be <= {maximum}")
    return v


def _integer(value, path, *, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path} must be an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path} must be >= {minimum}")
    return value


def _string(value, path, *, choices=None):
    if not isinstance(value, str):
        raise ValidationError(f"{path} must be a string")
    if choices is not None and value not in choices:
        allowed = ", ".join(f'"{c}"' for c in choices)
        raise ValidationError(f"{path} must be one of {allowed}")
    return value


def _beta(value, path):
    """Inverse temperature; the string "inf" encodes beta = +inf."""
    if value == "inf":
        return math.inf
    return _number(value, path, exclusive_minimum=0.0)


def _complex_entry(value, path):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise ValidationError(f"{path} must be a [re, im] pair of numbers")
    return complex(float(value[0]), float(value[1]))


def _complex_matrix(value, path, dim=None):
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{path} must be a non-empty matrix of [re, im] pairs")
    n = len(value)
    if dim is not None and n != dim:
        raise ValidationError(f"{path} must have {dim} rows, got {n}")
    m = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{path}[{i}] must be a row of {n} [re, im] pairs")
        for j, entry in enumerate(row):
            m[i, j] = _complex_entry(entry, f"{path}[{i}][{j}]")
    return m


def _encode_complex_matrix(m) -> list:
    m = np.asarray(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# ----------------------------------------------------------------------
# Per-model parameter blocks
# ----------------------------------------------------------------------


def _validate_dephasing(params) -> dict:
    _check_keys(
        params,
        "parameters",
        allowed={
            "omega0",
            "spectral",
            "bath",
            "initial_population_upper",
            "initial_coherence",
        },
        required={"omega0", "spectral", "bath"},
    )
    spectral = params["spectral"]
    _check_keys(spectral, "spectral", allowed={"coupling", "s", "omega_c"},
                required={"coupling", "s", "omega_c"})
    bath = params["bath"]
    _check_keys(bath, "bath", allowed={"beta"}, required={"beta"})
    p_up = params.get("initial_population_upper", 0.5)
    coh = params.get("initial_coherence", [0.5, 0.0])
    return {
        "omega0": _number(params["omega0"], "omega0"),
        "spectral": {
            "coupling": _number(spectral["coupling"], "spectral.coupling", minimum=0.0),
            "s": _number(spectral["s"], "spectral.s", exclusive_minimum=0.0),
            "omega_c": _number(spectral["omega_c"], "spectral.omega_c",
                               exclusive_minimum=0.0),
        },
        "bath": {"beta": _beta(bath["beta"], "bath.beta")},
        "initial_population_upper": _number(
            p_up, "initial_population_upper", minimum=0.0, maximum=1.0
        ),
        "initial_coherence": _complex_entry(coh, "initial_coherence"),
    }


def _validate_collisional(params) -> dict:
    _check_keys(
        params,
        "parameters",
        allowed={"rate", "law", "grid", "n_q", "initial_state"},
        required={"rate", "law", "grid"},
    )
    law = params["law"]
    if not isinstance(law, dict) or "kind" not in law:
        raise ValidationError('law must be an object with a "kind" key')
    kind = _string(law["kind"], "law.kind", choices=("gaussian", "two_point"))
    if kind == "gaussian":
        _check_keys(law, "law", allowed={"kind", "sigma_q"}, required={"kind", "sigma_q"})
        law_out = {"kind": kind,
                   "sigma_q": _number(law["sigma_q"], "law.sigma_q",
                                      exclusive_minimum=0.0)}
        default_nq = 64
    else:
        _check_keys(law, "law", allowed={"kind", "q0"}, required={"kind", "q0"})
        law_out = {"kind": kind,
                   "q0": _number(law["q0"], "law.q0", exclusive_minimum=0.0)}
        default_nq = 2
    grid_raw = params["grid"]
    if not isinstance(grid_raw, list) or len(grid_raw) < 2:
        raise ValidationError("grid must be a list of at least 2 positions")
    grid = [_number(x, f"grid[{i}]") for i, x in enumerate(grid_raw)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("grid must be strictly ascending")
    n_q = params.get("n_q", default_nq)
    return {
        "rate": _number(params["rate"], "rate", exclusive_minimum=0.0),
        "law": law_out,
        "grid": grid,
        "n_q": _integer(n_q, "n_q", minimum=2),
        "initial_state": _string(
            params.get("initial_state", "superposition"),
            "initial_state",
            choices=("superposition",),
        ),
    }


def _validate_gksl(params) -> dict:
    _check_keys(
        params,
        "parameters",
        allowed={"hamiltonian", "lindblad_ops", "kossakowski", "rho0"},
        required={"hamiltonian", "lindblad_ops", "kossakowski", "rho0"},
    )
    h = _complex_matrix(params["hamiltonian"], "hamiltonian")
    d = h.shape[0]
    ops_raw = params["lindblad_ops"]
    if not isinstance(ops_raw, list):
        raise ValidationError("lindblad_ops must be a list of matrices")
    ops = [
        _complex_matrix(op, f"lindblad_ops[{i}]", dim=d) for i, op in enumerate(ops_raw)
    ]
    m = len(ops)
    if m == 0:
        if params["kossakowski"] != []:
            raise ValidationError(
                "kossakowski must be [] when there are no Lindblad operators"
            )
        a = np.zeros((0, 0), dtype=complex)
    else:
        a = _complex_matrix(params["kossakowski"], "kossakowski", dim=m)
    rho0 = _complex_matrix(params["rho0"], "rho0", dim=d)
    return {"hamiltonian": h, "lindblad_ops": ops, "kossakowski": a, "rho0": rho0}


def _encode_parameters(model, params) -> dict:
    if model == "dephasing":
        c = params["initial_coherence"]
        return {
            "omega0": params["omega0"],
            "spectral": dict(params["spectral"]),
            "bath": {
                "beta": "inf" if math.isinf(params["bath"]["beta"])
                else params["bath"]["beta"]
            },
            "initial_population_upper": params["initial_population_upper"],
            "initial_coherence": [c.real, c.imag],
        }
    if model == "collisional":
        return {
            "rate": params["rate"],
            "law": dict(params["law"]),
            "grid": list(params["grid"]),
            "n_q": params["n_q"],
            "initial_state": params["initial_state"],
        }
    return {
        "hamiltonian": _encode_complex_matrix(params["hamiltonian"]),
        "lindblad_ops": [_encode_complex_matrix(op) for op in params["lindblad_ops"]],
        "kossakowski": _encode_complex_matrix(params["kossakowski"])
        if params["kossakowski"].size
        else [],
        "rho0": _encode_complex_matrix(params["rho0"]),
    }


_MODEL_VALIDATORS = {
    "dephasing": _validate_dephasing,
    "collisional": _validate_collisional,
    "gksl": _validate_gksl,
}


def parse_scenario(text) -> Scenario:
    """Parse and strictly validate a scenario document (bytes or str)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"scenario is not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    return validate_scenario(raw)


def validate_scenario(raw) -> Scenario:
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a JSON object")
    _check_keys(
        raw,
        "scenario",
        allowed={"model", "parameters", "time", "numerics", "output"},
        required={"model", "parameters", "time", "output"},
    )
    model = _string(raw["model"], "model", choices=tuple(_MODEL_VALIDATORS))
    parameters = _MODEL_VALIDATORS[model](raw["parameters"])

    time_block = raw["time"]
    _check_keys(time_block, "time", allowed={"t_max", "n_points"},
                required={"t_max", "n_points"})
    t_max = _number(time_block["t_max"], "time.t_max", exclusive_minimum=0.0)
    n_points = _integer(time_block["n_points"], "time.n_points", minimum=2)

    quadrature = ode = None
    if "numerics" in raw:
        numerics = raw["numerics"]
        _check_keys(numerics, "numerics", allowed={"quadrature", "ode"}, required=set())
        if "quadrature" in numerics:
            q = numerics["quadrature"]
            _check_keys(
                q,
                "numerics.quadrature",
                allowed={"abs_tol", "rel_tol", "max_subdivisions",
                         "tail_cutoff_multiplier"},
                required=set(),
            )
            try:
                quadrature = QuadratureSpec(
                    abs_tol=_number(q.get("abs_tol", 1e-10),
                                    "numerics.quadrature.abs_tol"),
                    rel_tol=_number(q.get("rel_tol", 1e-10),
                                    "numerics.quadrature.rel_tol"),
                    max_subdivisions=_integer(
                        q.get("max_subdivisions", 2048),
                        "numerics.quadrature.max_subdivisions",
                    ),
                    tail_cutoff_multiplier=_number(
                        q.get("tail_cutoff_multiplier", 40.0),
                        "numerics.quadrature.tail_cutoff_multiplier",
                    ),
                )
            except ValidationError as exc:
                raise ValidationError(f"numerics.quadrature: {exc}") from exc
        if "ode" in numerics:
            o = numerics["ode"]
            _check_keys(
                o,
                "numerics.ode",
                allowed={"abs_tol", "rel_tol", "initial_step", "max_steps"},
                required=set(),
            )
            try:
                ode = OdeSpec(
                    abs_tol=_number(o.get("abs_tol", 1e-9), "numerics.ode.abs_tol"),
                    rel_tol=_number(o.get("rel_tol", 1e-9), "numerics.ode.rel_tol"),
                    initial_step=_number(o.get("initial_step", 1e-3),
                                         "numerics.ode.initial_step"),
                    max_steps=_integer(o.get("max_steps", 1_000_000),
                                       "numerics.ode.max_steps"),
                )
            except ValidationError as exc:
                raise ValidationError(f"numerics.ode: {exc}") from exc

    output = raw["output"]
    _check_keys(output, "output", allowed={"csv_path", "report_path"},
                required={"csv_path", "report_path"})
    csv_path = _string(output["csv_path"], "output.csv_path")
    report_path = _string(output["report_path"], "output.report_path")

    return Scenario(
        model=model,
        parameters=parameters,
        t_max=t_max,
        n_points=n_points,
        quadrature=quadrature,
        ode=ode,
        csv_path=csv_path,
        report_path=report_path,
    )


# ----------------------------------------------------------------------
# Model assembly
# ----------------------------------------------------------------------


def _dephasing_parts(s: Scenario):
    p = s.parameters
    model = DephasingModel(
        omega0=p["omega0"],
        spectral=SpectralDensity(
            coupling=p["spectral"]["coupling"],
            s=p["spectral"]["s"],
            omega_c=p["spectral"]["omega_c"],
        ),
        bath=BathSpec(beta=p["bath"]["beta"]),
    )
    pop = p["initial_population_upper"]
    coh = p["initial_coherence"]
    rho0 = DensityMatrix(
        np.array([[pop, coh], [coh.conjugate(), 1.0 - pop]], dtype=complex)
    )
    return model, rho0


def _collisional_parts(s: Scenario):
    p = s.parameters
    if p["law"]["kind"] == "gaussian":
        law = col.GaussianMomentumLaw(rate=p["rate"], sigma_q=p["law"]["sigma_q"])
    else:
        law = col.TwoPointMomentumLaw(rate=p["rate"], q0=p["law"]["q0"])
    grid = np.asarray(p["grid"], dtype=float)
    rho0 = col.PositionDensityMatrix.superposition(grid)
    return law, grid, rho0, p["n_q"]


def _gksl_parts(s: Scenario):
    p = s.parameters
    gen = GkslGenerator(p["hamiltonian"], tuple(p["lindblad_ops"]), p["kossakowski"])
    rho0 = DensityMatrix(p["rho0"])
    return gen, rho0


def _read_seed():
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return raw


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def run_scenario(s: Scenario):
    """Execute a scenario; returns (header, rows, InvariantReport)."""
    if s.model == "dephasing":
        return _run_dephasing(s)
    if s.model == "collisional":
        return _run_collisional(s)
    return _run_gksl(s)


def _run_dephasing(s: Scenario):
    model, rho0 = _dephasing_parts(s)
    t_grid = s.time_grid()
    quad = s.quadrature

    # generator_at warns at every Runge-Kutta stage with a negative rate;
    # the run reports them as one warning.
    negative_at = []

    def generator_at(t):
        gen = model.generator_at(t, quad)
        if gen.kossakowski[0, 0].real < 0:
            negative_at.append(t)
        return gen

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRateWarning)
        trajectory = integrate_time_dependent(generator_at, rho0, t_grid, s.ode)
    if negative_at:
        warnings.warn(
            f"dephasing rate was negative at {len(negative_at)} generator "
            f"evaluations, first at t = {min(negative_at)}: the generator is "
            "not GKSL there",
            NegativeRateWarning,
            stacklevel=2,
        )

    header = [
        "t",
        "gamma",
        "Gamma",
        "coherence_re",
        "coherence_im",
        "coherence_abs",
        "coherence_abs_numeric",
        "trace_drift",
    ]
    rows = []
    report = InvariantReport(seed=_read_seed())
    coh_mag_residual = 0.0
    coh_cplx_residual = 0.0
    pop_drift = 0.0
    for t, state in zip(t_grid, trajectory):
        m = state.matrix
        gamma = model.dephasing_rate(float(t), quad)
        big_gamma = model.decoherence_function(float(t), quad)
        coh = model._coherence_from(rho0, float(t), big_gamma)
        trace_drift = abs(complex(np.trace(m)) - 1.0)
        rows.append(
            [
                float(t),
                gamma,
                big_gamma,
                coh.real,
                coh.imag,
                abs(coh),
                abs(m[0, 1]),
                trace_drift,
            ]
        )
        report.trace_drift_max = max(report.trace_drift_max, trace_drift)
        report.hermiticity_drift_max = max(
            report.hermiticity_drift_max, hermiticity_defect(m)
        )
        coh_mag_residual = max(coh_mag_residual, abs(abs(coh) - abs(m[0, 1])))
        coh_cplx_residual = max(coh_cplx_residual, abs(coh - m[0, 1]))
        pop_drift = max(
            pop_drift, float(np.abs(np.diag(m) - np.diag(rho0.matrix)).max())
        )

    t_ref = float(t_grid[-1])
    report.cross_check_residuals = {
        "coherence_abs_analytic_vs_ode": coh_mag_residual,
        "coherence_complex_analytic_vs_ode": coh_cplx_residual,
        "population_drift": pop_drift,
        "gamma_two_forms": abs(
            model.dephasing_rate(t_ref, quad)
            - model.dephasing_rate_from_correlation(t_ref, quad)
        ),
        "decoherence_function_two_forms": abs(
            model.decoherence_function(t_ref, quad)
            - model.decoherence_function_from_rate(t_ref, quad)
        ),
    }
    return header, rows, report.finalize()


def _run_collisional(s: Scenario):
    law, grid, rho0, n_q = _collisional_parts(s)
    t_grid = s.time_grid()

    gen = col.build_discretized_generator(law, grid, n_q)
    trajectory = integrate_constant(gen, rho0, t_grid, s.ode)

    header = [
        "t",
        "offdiag_abs",
        "offdiag_abs_numeric",
        "decoherence_factor",
        "trace_drift",
    ]
    rows = []
    report = InvariantReport(seed=_read_seed())
    equivalence_residual = 0.0
    diag_drift = 0.0
    extreme_dx = float(grid[-1] - grid[0])
    for t, state in zip(t_grid, trajectory):
        exact = col.evolve_exact(rho0, law, float(t))
        m = state.matrix
        trace_drift = abs(complex(np.trace(m)) - 1.0)
        rows.append(
            [
                float(t),
                abs(exact.matrix[0, -1]),
                abs(m[0, -1]),
                col.decoherence_factor(law, extreme_dx, float(t)),
                trace_drift,
            ]
        )
        report.trace_drift_max = max(report.trace_drift_max, trace_drift)
        report.hermiticity_drift_max = max(
            report.hermiticity_drift_max, hermiticity_defect(m)
        )
        equivalence_residual = max(
            equivalence_residual, float(np.abs(m - exact.matrix).max())
        )
        diag_drift = max(
            diag_drift, float(np.abs(np.diag(m) - np.diag(rho0.matrix)).max())
        )

    report.cross_check_residuals = {
        "exact_vs_discretized_generator": equivalence_residual,
        "diagonal_drift": diag_drift,
    }
    return header, rows, report.finalize()


def _run_gksl(s: Scenario):
    gen, rho0 = _gksl_parts(s)
    t_grid = s.time_grid()

    trajectory = integrate_constant(gen, rho0, t_grid, s.ode)

    header = ["t", "trace_re", "purity", "coherence_abs", "trace_drift"]
    rows = []
    report = InvariantReport(seed=_read_seed())
    semigroup_residual = 0.0
    for t, state in zip(t_grid, trajectory):
        m = state.matrix
        reference = propagate_semigroup(gen, rho0, float(t))
        trace = complex(np.trace(m))
        trace_drift = abs(trace - 1.0)
        rows.append(
            [
                float(t),
                trace.real,
                float(np.trace(m @ m).real),
                abs(m[0, 1]),
                trace_drift,
            ]
        )
        report.trace_drift_max = max(report.trace_drift_max, trace_drift)
        report.hermiticity_drift_max = max(
            report.hermiticity_drift_max, hermiticity_defect(m)
        )
        semigroup_residual = max(
            semigroup_residual, float(np.abs(m - reference.matrix).max())
        )

    report.cross_check_residuals = {"ode_vs_semigroup": semigroup_residual}
    return header, rows, report.finalize()


# ----------------------------------------------------------------------
# check-cp
# ----------------------------------------------------------------------


def _dephasing_exact_propagator(model: DephasingModel, t: float,
                                quad: QuadratureSpec | None) -> Superoperator:
    """Exact (time-ordered) dephasing channel at time t as a superoperator:
    populations fixed, coherence multiplied by exp(-Gamma(t) - 2i omega0 t)."""
    f = math.exp(-model.decoherence_function(t, quad)) * np.exp(-2j * model.omega0 * t)
    return Superoperator(np.diag([1.0, np.conj(f), f, 1.0]))


def check_cp(s: Scenario, t_list) -> InvariantReport:
    """Certify complete positivity of the propagated map at each time."""
    if s.model == "collisional":
        raise ValidationError("check-cp supports gksl and dephasing scenarios only")
    report = InvariantReport(seed=_read_seed())
    if s.model == "gksl":
        gen, _ = _gksl_parts(s)
        props = [(t, semigroup_propagator(gen, t)) for t in t_list]
    else:
        model, _ = _dephasing_parts(s)
        props = [(t, _dephasing_exact_propagator(model, t, s.quadrature))
                 for t in t_list]

    min_eig = math.inf
    report.choi_eigenvalue_by_time = {}
    for t, prop in props:
        d = prop.dim
        ident = vec(np.eye(d, dtype=complex)).conj()
        trace_row_defect = float(np.abs(ident @ prop.matrix - ident).max())
        report.trace_drift_max = max(report.trace_drift_max, trace_row_defect)
        choi = choi_of_propagator(prop)
        report.hermiticity_drift_max = max(
            report.hermiticity_drift_max, hermiticity_defect(choi.matrix)
        )
        result = is_completely_positive(choi, tol=-CP_EIGENVALUE_FLOOR)
        report.choi_eigenvalue_by_time[f"{t:g}"] = result.min_eigenvalue
        report.cross_check_residuals[f"choi_negativity_t_{t:g}"] = max(
            0.0, -result.min_eigenvalue
        )
        min_eig = min(min_eig, result.min_eigenvalue)
    report.min_choi_eigenvalue = min_eig
    return report.finalize()


# ----------------------------------------------------------------------
# Output writers
# ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path, header, rows) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_report(path, report: InvariantReport) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _load_scenario(path) -> Scenario:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(data)


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    header, rows, report = run_scenario(scenario)
    write_csv(scenario.csv_path, header, rows)
    write_report(scenario.report_path, report)
    status = "ok" if report.passed else "INVARIANT VIOLATION"
    print(f"{scenario.model}: {len(rows)} rows -> {scenario.csv_path} [{status}]")
    return 0 if report.passed else 1


def _parse_times(raw: str):
    try:
        times = [float(item) for item in raw.split(",") if item.strip()]
    except ValueError as exc:
        raise ValidationError(f"--times must be comma-separated numbers: {exc}")
    if not times or any(t < 0 or not math.isfinite(t) for t in times):
        raise ValidationError("--times must be finite and >= 0")
    return times


def _cmd_check_cp(args) -> int:
    scenario = _load_scenario(args.scenario)
    times = _parse_times(args.times)
    report = check_cp(scenario, times)
    write_report(scenario.report_path, report)
    for t, value in report.choi_eigenvalue_by_time.items():
        print(f"t={t}: min Choi eigenvalue {value:.3e}")
    status = "ok" if report.passed else "NOT COMPLETELY POSITIVE"
    print(f"overall min Choi eigenvalue {report.min_choi_eigenvalue:.3e} [{status}]")
    return 0 if report.passed else 1


def _set_by_path(raw_parameters: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = raw_parameters
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ValidationError(f'unknown sweep parameter path "{dotted}"')
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ValidationError(f'unknown sweep parameter path "{dotted}"')
    node[keys[-1]] = value


def _suffixed(path: str, suffix: str) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_{suffix}{p.suffix}"))


def _cmd_sweep(args) -> int:
    base = _load_scenario(args.scenario)  # validate before sweeping
    raw = base.to_dict()
    values = [item.strip() for item in args.values.split(",") if item.strip()]
    if not values:
        raise ValidationError("--values must list at least one value")

    worst = 0
    runs = []
    for text in values:
        value = _parse_sweep_value(text)
        variant_raw = copy.deepcopy(raw)
        _set_by_path(variant_raw["parameters"], args.param, value)
        tag = f"{args.param.replace('.', '_')}_{text}".replace("/", "_")
        variant_raw["output"] = {
            "csv_path": _suffixed(raw["output"]["csv_path"], tag),
            "report_path": _suffixed(raw["output"]["report_path"], tag),
        }
        variant = validate_scenario(variant_raw)
        header, rows, report = run_scenario(variant)
        write_csv(variant.csv_path, header, rows)
        write_report(variant.report_path, report)
        runs.append(
            {
                "value": value,
                "csv_path": variant.csv_path,
                "report_path": variant.report_path,
                "passed": report.passed,
            }
        )
        status = "ok" if report.passed else "INVARIANT VIOLATION"
        print(f"{args.param}={text}: -> {variant.csv_path} [{status}]")
        worst = max(worst, 0 if report.passed else 1)

    manifest_path = _suffixed(base.report_path, "sweep_manifest")
    manifest = {"param": args.param, "values": values, "runs": runs}
    p = Path(manifest_path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"manifest -> {manifest_path}")
    return worst


def _parse_sweep_value(text: str):
    """Numbers become numbers, everything else stays a string (so the
    "inf" beta sentinel and enum-valued keys sweep naturally)."""
    if text == "inf":
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decohere",
        description="Run decoherence-model scenarios from JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario; write CSV and report")
    p_run.add_argument("scenario", help="path to scenario JSON")
    p_run.set_defaults(func=_cmd_run)

    p_cp = sub.add_parser(
        "check-cp", help="certify complete positivity of the propagated map"
    )
    p_cp.add_argument("scenario", help="path to scenario JSON (gksl or dephasing)")
    p_cp.add_argument("--times", default="0.1,1,10",
                      help="comma-separated times (default: 0.1,1,10)")
    p_cp.set_defaults(func=_cmd_check_cp)

    p_sweep = sub.add_parser(
        "sweep", help="run the scenario once per value of a swept parameter"
    )
    p_sweep.add_argument("scenario", help="path to scenario JSON")
    p_sweep.add_argument("--param", required=True,
                         help="dotted path inside parameters, e.g. spectral.s")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 0.5,1,2")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DecohereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
