"""Scenario runner: JSON in, CSV time series + JSON invariant report out.

Subcommands::

    decohere run <scenario.json>
    decohere check-cp <scenario.json> --times 0.1,1,10
    decohere sweep <scenario.json> --param spectral.s --values 0.5,1,2

Scenario files are strict JSON (unknown and duplicate keys are rejected)
with an "inf" sentinel string for infinite inverse temperature.  Each
schema is one table of ``key: (parser, default)`` entries walked by
``_obj``; the numerics blocks take theirs from ``QuadratureSpec`` and
``OdeSpec``, and ``sweep`` patches the document as read.

This module holds the schema, the report, the writers and the commands.
Each model family is one ``_Family`` record in ``_FAMILIES`` (schema, built
model, initial state, CSV columns, ``run``, check-cp ``channel``), walked
without branching on the model.  The columns and the ``run`` generator (row
values and cross-check residuals) live in the family's own module:
``dephasing``, ``collisional`` or ``gksl``.  ``validate_scenario`` builds the
model (the dephasing model owns its quadrature spec) and the initial state
once, so every command rejects the same documents; ``check-cp`` rejects a
family without a ``channel`` before its model is built, and ``sweep``
validates every value before it runs any.  CSV output uses 17 significant
digits (round-trip exact for doubles) and LF line endings, so identical
scenarios produce byte-identical files.  check-cp writes its report to the
scenario's ``report_path``, replacing a run's.  A NaN drift, residual or
Choi eigenvalue is a violation.  Exit codes: 0 ok, 1 invariant violation (an
ODE state past the drift bound too), 2 usage/parse/validation error (an
invalid initial state or too few law nodes too) or an unwritable output path.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import re
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import partial
from pathlib import Path

import numpy as np

from . import collisional as col, dephasing, gksl
from .dephasing import BathSpec, DephasingModel, SpectralDensity
from .errors import DecohereError, ParseError, ValidationError
from .gksl import (
    DRIFT_ERROR_THRESHOLD,
    DensityMatrix,
    GkslGenerator,
    choi_of_propagator,
    is_completely_positive,
    semigroup_channel,
    vec,
)
from .numcore import OdeSpec, QuadratureSpec, hermiticity_defect

# check-cp passes while the smallest Choi eigenvalue stays above this.
CP_EIGENVALUE_FLOOR = -1e-8

SEED_ENV_VAR = "DECOHERE_SEED"


def _worst(old: float, new: float) -> float:
    """max(old, new), except that a NaN on either side is kept: a NaN drift
    must reach the verdict, not be dropped by a later finite value."""
    return old if math.isnan(old) or new <= old else new


# ----------------------------------------------------------------------
# Scenario schema
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: model name, normalized parameter block (for
    ``sweep``'s path check), the model built from it, initial state, time
    grid, optional ODE overrides, output paths."""

    model: str
    parameters: dict
    system: DephasingModel | GkslGenerator | tuple
    rho0: DensityMatrix | col.PositionDensityMatrix
    t_max: float
    n_points: int
    ode: OdeSpec | None
    csv_path: str
    report_path: str


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

    def observe(self, m) -> float:
        """Fold in one state's trace and Hermiticity drift; return the former."""
        trace_drift = abs(complex(np.trace(m)) - 1.0)
        self.trace_drift_max = _worst(self.trace_drift_max, trace_drift)
        self.hermiticity_drift_max = _worst(self.hermiticity_drift_max,
                                            hermiticity_defect(m))
        return trace_drift

    def residual(self, name: str, value: float) -> None:
        """Keep the running max of a cross-check residual."""
        self.cross_check_residuals[name] = _worst(
            self.cross_check_residuals.get(name, 0.0), value
        )

    def finalize(self) -> "InvariantReport":
        # The ODE's drift bound; each gate is written so that NaN fails it.
        drifts = {"trace_drift": self.trace_drift_max,
                  "hermiticity_drift": self.hermiticity_drift_max,
                  **self.cross_check_residuals}
        self.violations += [k for k, v in drifts.items()
                            if not (v <= DRIFT_ERROR_THRESHOLD)]
        if (
            self.min_choi_eigenvalue is not None
            and not (self.min_choi_eigenvalue >= CP_EIGENVALUE_FLOOR)
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
# Schema: field parsers take (value, path) and return the parsed value
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


def _complex_matrix(value, path):
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{path} must be a non-empty matrix of [re, im] pairs")
    n = len(value)
    m = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{path}[{i}] must be a row of {n} [re, im] pairs")
        for j, entry in enumerate(row):
            m[i, j] = _complex_entry(entry, f"{path}[{i}][{j}]")
    return m


def _complex_matrices(value, path):
    if not isinstance(value, list):
        raise ValidationError(f"{path} must be a list of matrices")
    return tuple(_complex_matrix(m, f"{path}[{i}]") for i, m in enumerate(value))


def _kossakowski(value, path):
    """A complex matrix, or [] for the empty one of a generator without operators."""
    return np.zeros((0, 0), dtype=complex) if value == [] else _complex_matrix(value, path)


def _grid(value, path):
    if not isinstance(value, list) or len(value) < 2:
        raise ValidationError(f"{path} must be a list of at least 2 positions")
    grid = [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"{path} must be strictly ascending")
    return grid


# Default of a key that must be present.  A default of None leaves an absent
# key None; a callable default gets the fields parsed before it.
_REQUIRED = object()


def _obj(fields, name=None):
    """Parser for an object declared as {key: (parser, default)}; keys are
    checked and parsed in table order.  ``name`` labels the parameters block,
    whose fields are reported by bare key."""
    required = {key for key, (_, default) in fields.items() if default is _REQUIRED}

    def parse(value, path):
        _check_keys(value, name or path, fields, required)
        out = dict.fromkeys(fields)
        for key, (parser, default) in fields.items():
            if key in value:
                out[key] = parser(value[key], key if name else f"{path}.{key}")
            elif default is not None:
                given = default(out) if callable(default) else default
                out[key] = parser(given, key if name else f"{path}.{key}")
        return out

    return parse


def _spec(cls):
    """Parser for a numerics block with the fields and defaults of ``cls``;
    the dataclass's own checks are reported under the block's path."""
    fields = {f.name: (_integer if f.type in (int, "int") else _number, f.default)
              for f in dataclass_fields(cls)}
    parse_fields = _obj(fields)

    def parse(value, path):
        kwargs = parse_fields(value, path)
        try:
            return cls(**kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    return parse


_positive = partial(_number, exclusive_minimum=0.0)

# law kind -> (law table, default number of kick-quadrature nodes, law class)
_LAWS = {
    "gaussian": (_obj({"kind": (_string, _REQUIRED), "sigma_q": (_positive, _REQUIRED)}),
                 64, col.GaussianMomentumLaw),
    "two_point": (_obj({"kind": (_string, _REQUIRED), "q0": (_positive, _REQUIRED)}),
                  2, col.TwoPointMomentumLaw),
}


def _law(value, path):
    if not isinstance(value, dict) or "kind" not in value:
        raise ValidationError(f'{path} must be an object with a "kind" key')
    kind = _string(value["kind"], f"{path}.kind", choices=tuple(_LAWS))
    return _LAWS[kind][0](value, path)


_TIME = _obj({"t_max": (_positive, _REQUIRED),
              "n_points": (partial(_integer, minimum=2), _REQUIRED)})
# an absent quadrature block is the default spec; an absent ode block is None
_NUMERICS = _obj({"quadrature": (_spec(QuadratureSpec), {}), "ode": (_spec(OdeSpec), None)})
_OUTPUT = _obj({"csv_path": (_string, _REQUIRED), "report_path": (_string, _REQUIRED)})


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f'duplicate key "{key}" in scenario JSON')
        obj[key] = value
    return obj


def _load_json(text):
    """Decode a scenario document (bytes or str) into raw JSON values."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"scenario is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc


def parse_scenario(text) -> Scenario:
    """Parse and strictly validate a scenario document (bytes or str)."""
    return validate_scenario(_load_json(text))


def validate_scenario(raw, *, for_check_cp: bool = False) -> Scenario:
    """Validate a scenario document and build its model.  With
    ``for_check_cp``, a family without a check-cp channel is rejected once
    its parameters have parsed, before its model is built."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a JSON object")
    keys = ("model", "parameters", "time", "output")
    _check_keys(raw, "scenario", allowed=keys + ("numerics",), required=keys)
    model = _string(raw["model"], "model", choices=tuple(_FAMILIES))
    family = _FAMILIES[model]
    parameters = family.schema(raw["parameters"], "parameters")
    numerics = _NUMERICS(raw.get("numerics", {}), "numerics")
    if for_check_cp:
        _channel(model)
    system = family.system(parameters, numerics["quadrature"])
    try:
        rho0 = family.rho0(parameters)
    except ValidationError as exc:
        raise ValidationError(f"initial state: {exc}") from exc
    return Scenario(model=model, parameters=parameters, system=system, rho0=rho0,
                    ode=numerics["ode"], **_TIME(raw["time"], "time"),
                    **_OUTPUT(raw["output"], "output"))


def _read_seed():
    raw = os.environ.get(SEED_ENV_VAR)
    try:
        return int(raw)
    except (TypeError, ValueError):  # unset, or not an integer
        return raw


# ----------------------------------------------------------------------
# Model families, and run / check-cp walking them
# ----------------------------------------------------------------------


def _collisional_system(p, _quadrature) -> tuple:
    law_fields = {k: v for k, v in p["law"].items() if k != "kind"}
    law = _LAWS[p["law"]["kind"]][2](rate=p["rate"], **law_fields)
    return law, col.build_discretized_generator(law, p["grid"], p["n_q"])


def _gksl_system(p, _quadrature) -> GkslGenerator:
    # GkslGenerator checks the operator and Kossakowski dimensions and PSD-ness
    gen = GkslGenerator(p["hamiltonian"], p["lindblad_ops"], p["kossakowski"])
    if len(p["rho0"]) != gen.dim:
        raise ValidationError(f"rho0 must have {gen.dim} rows, got {len(p['rho0'])}")
    return gen


def _dephasing_rho0(p) -> DensityMatrix:
    pop, coh = p["initial_population_upper"], p["initial_coherence"]
    return DensityMatrix(np.array([[pop, coh], [coh.conjugate(), 1.0 - pop]], dtype=complex))


@dataclass(frozen=True)
class _Family:
    """One model family, as validate_scenario, run_scenario and check_cp see it."""

    schema: Callable  # (raw parameters, path) -> parameters dict
    system: Callable  # (parameters, quadrature) -> DephasingModel, GkslGenerator or (law, gen)
    rho0: Callable  # parameters dict -> initial state
    columns: tuple  # the family module's COLUMNS: CSV columns between "t" and "trace_drift"
    run: Callable  # the family module's run: per time, state, row values and residuals
    channel: Callable | None  # Scenario.system -> (t -> Superoperator); None: no check-cp


_FAMILIES = {
    "dephasing": _Family(
        schema=_obj({
            "omega0": (_number, _REQUIRED),
            # SpectralDensity's checks (a finite, nonzero prefactor and a finite
            # total weight) run at parse time
            "spectral": (_obj({
                "coupling": (partial(_number, minimum=0.0), _REQUIRED),
                "s": (_positive, _REQUIRED),
                "omega_c": (_positive, _REQUIRED),
            }), _REQUIRED),
            "bath": (_obj({"beta": (_beta, _REQUIRED)}), _REQUIRED),
            "initial_population_upper": (partial(_number, minimum=0.0, maximum=1.0), 0.5),
            "initial_coherence": (_complex_entry, [0.5, 0.0]),
        }, name="parameters"),
        system=lambda p, quadrature: DephasingModel(
            p["omega0"], SpectralDensity(**p["spectral"]), BathSpec(**p["bath"]), quadrature),
        rho0=_dephasing_rho0,
        columns=dephasing.COLUMNS,
        run=dephasing.run,
        channel=lambda model: model.channel,
    ),
    "collisional": _Family(
        schema=_obj({
            "law": (_law, _REQUIRED),
            "grid": (_grid, _REQUIRED),
            "rate": (_positive, _REQUIRED),
            "n_q": (partial(_integer, minimum=2), lambda out: _LAWS[out["law"]["kind"]][1]),
            "initial_state": (partial(_string, choices=("superposition",)), "superposition"),
        }, name="parameters"),
        system=_collisional_system,
        rho0=lambda p: col.PositionDensityMatrix.superposition(p["grid"]),
        columns=col.COLUMNS,
        run=col.run,
        channel=None,
    ),
    "gksl": _Family(
        schema=_obj({
            "hamiltonian": (_complex_matrix, _REQUIRED),
            "lindblad_ops": (_complex_matrices, _REQUIRED),
            "kossakowski": (_kossakowski, _REQUIRED),
            "rho0": (_complex_matrix, _REQUIRED),
        }, name="parameters"),
        system=_gksl_system,
        rho0=lambda p: DensityMatrix(p["rho0"]),
        columns=gksl.COLUMNS,
        run=gksl.run,
        channel=semigroup_channel,
    ),
}


def run_scenario(s: Scenario):
    """Execute a scenario; returns (header, rows, InvariantReport)."""
    family = _FAMILIES[s.model]
    report = InvariantReport(seed=_read_seed())
    t_grid = np.linspace(0.0, s.t_max, s.n_points)
    rows = []
    for t, (m, values, residuals) in zip(t_grid, family.run(s.system, s.rho0, t_grid, s.ode)):
        rows.append([float(t), *values, report.observe(m)])
        for name, value in residuals.items():
            report.residual(name, value)
    return ["t", *family.columns, "trace_drift"], rows, report.finalize()


def _channel(model: str) -> Callable:
    """The family's check-cp channel; a family without one is a usage error."""
    channel = _FAMILIES[model].channel
    if channel is None:
        raise ValidationError("check-cp supports gksl and dephasing scenarios only")
    return channel


def check_cp(s: Scenario, t_list) -> InvariantReport:
    """Certify complete positivity of the propagated map at each time."""
    propagator = _channel(s.model)(s.system)
    report = InvariantReport(seed=_read_seed(), choi_eigenvalue_by_time={})
    negativity = -math.inf  # largest -(min Choi eigenvalue) over the times
    for t in t_list:
        prop = propagator(t)
        ident = vec(np.eye(prop.dim, dtype=complex)).conj()
        report.trace_drift_max = _worst(report.trace_drift_max,
                                        float(np.abs(ident @ prop.matrix - ident).max()))
        choi = choi_of_propagator(prop)
        report.hermiticity_drift_max = _worst(report.hermiticity_drift_max,
                                              hermiticity_defect(choi.matrix))
        result = is_completely_positive(choi, tol=-CP_EIGENVALUE_FLOOR)
        key = repr(float(t)).removesuffix(".0")  # distinct for distinct times
        report.choi_eigenvalue_by_time[key] = result.min_eigenvalue
        report.residual(f"choi_negativity_t_{key}", -result.min_eigenvalue)
        negativity = _worst(negativity, -result.min_eigenvalue)
    report.min_choi_eigenvalue = -negativity
    return report.finalize()


# ----------------------------------------------------------------------
# Output writers
# ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path, text: str) -> None:
    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _strict_json(obj):
    """obj with each non-finite float replaced by the string "NaN",
    "Infinity" or "-Infinity", which strict JSON can hold."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return json.dumps(obj)
    return obj


def _write_json(path, obj) -> None:
    _write_text(path, json.dumps(_strict_json(obj), indent=2, allow_nan=False) + "\n")


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def write_report(path, report: InvariantReport) -> None:
    _write_json(path, report.to_dict())


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _read(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc


def _execute(scenario: Scenario, label: str) -> InvariantReport:
    """Run a scenario, write its CSV and report, print one status line."""
    header, rows, report = run_scenario(scenario)
    write_csv(scenario.csv_path, header, rows)
    write_report(scenario.report_path, report)
    status = "ok" if report.passed else "INVARIANT VIOLATION"
    print(f"{label} -> {scenario.csv_path} [{status}]")
    return report


def _cmd_run(args) -> int:
    scenario = parse_scenario(_read(args.scenario))
    report = _execute(scenario, f"{scenario.model}: {scenario.n_points} rows")
    return 0 if report.passed else 1


def _parse_times(raw: str):
    items = _split_values(raw)
    if not items:
        raise ValidationError("--times must list at least one time")
    try:
        times = [float(item) for item in items]
    except ValueError as exc:
        raise ValidationError(f"--times must be comma-separated numbers: {exc}")
    if any(t < 0 or not math.isfinite(t) for t in times):
        raise ValidationError("--times must be finite and >= 0")
    if len(set(times)) != len(times):
        raise ValidationError("--times must not repeat a time")
    return times


def _cmd_check_cp(args) -> int:
    scenario = validate_scenario(_load_json(_read(args.scenario)), for_check_cp=True)
    times = _parse_times(args.times)
    report = check_cp(scenario, times)
    write_report(scenario.report_path, report)
    for t, value in report.choi_eigenvalue_by_time.items():
        print(f"t={t}: min Choi eigenvalue {value:.3e}")
    status = "ok" if report.passed else "NOT COMPLETELY POSITIVE"
    print(f"overall min Choi eigenvalue {report.min_choi_eigenvalue:.3e} [{status}]")
    return 0 if report.passed else 1


def _set_by_path(raw_parameters: dict, parameters: dict, dotted: str, value) -> None:
    """Set a parameter in the raw document; the path is checked against the
    validated ``parameters``, so a key present only as a default sweeps too."""
    keys = dotted.split(".")
    node = parameters
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            raise ValidationError(f'unknown sweep parameter path "{dotted}"')
        node = node[key]
    for key in keys[:-1]:
        raw_parameters = raw_parameters[key]
    raw_parameters[keys[-1]] = value


def _suffixed(path: str, suffix: str) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_{suffix}{p.suffix}"))


def _cmd_sweep(args) -> int:
    raw = _load_json(_read(args.scenario))
    base = validate_scenario(raw)  # validate before sweeping
    values = _split_values(args.values)
    if not values:
        raise ValidationError("--values must list at least one value")
    if len(set(values)) != len(values):
        raise ValidationError("--values must not repeat a value")

    variants = []  # every value is validated before any runs
    for i, text in enumerate(values, 1):
        value = _parse_sweep_value(text)
        variant_raw = copy.deepcopy(raw)
        _set_by_path(variant_raw["parameters"], base.parameters, args.param, value)
        # an array value is named by its position in --values
        label = i if isinstance(value, list) else text
        tag = f"{args.param.replace('.', '_')}_{label}".replace("/", "_")
        variant_raw["output"] = {k: _suffixed(path, tag) for k, path in raw["output"].items()}
        variants.append((text, value, validate_scenario(variant_raw)))

    runs = []
    for text, value, variant in variants:
        report = _execute(variant, f"{args.param}={text}:")
        runs.append({"value": value, "csv_path": variant.csv_path,
                     "report_path": variant.report_path, "passed": report.passed})

    manifest_path = _suffixed(base.report_path, "sweep_manifest")
    _write_json(manifest_path, {"param": args.param, "values": values, "runs": runs})
    print(f"manifest -> {manifest_path}")
    return 0 if all(run["passed"] for run in runs) else 1


def _split_values(raw: str) -> list:
    """The stripped, non-empty items of --values, split at the commas that
    are outside [...] and outside JSON strings."""
    cuts, depth = [-1], 0
    for token in re.finditer(r'"(?:\\.|[^"\\])*"|[][,]', raw):
        depth += {"[": 1, "]": -1}.get(token[0], 0)
        if token[0] == "," and depth == 0:
            cuts.append(token.start())
    items = [raw[a + 1:b] for a, b in zip(cuts, cuts[1:] + [len(raw)])]
    return [item.strip() for item in items if item.strip()]


def _parse_sweep_value(text: str):
    """JSON values (numbers, arrays) are decoded, everything else stays a
    string (so the "inf" beta sentinel and enum-valued keys sweep naturally)."""
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
    commands = {}
    for name, func, help_text, scenario_help in (
        ("run", _cmd_run, "run a scenario; write CSV and report", "path to scenario JSON"),
        ("check-cp", _cmd_check_cp, "certify complete positivity of the propagated map",
         "path to scenario JSON (gksl or dephasing)"),
        ("sweep", _cmd_sweep, "run the scenario once per value of a swept parameter",
         "path to scenario JSON"),
    ):
        commands[name] = sub.add_parser(name, help=help_text)
        commands[name].add_argument("scenario", help=scenario_help)
        commands[name].set_defaults(func=func)
    commands["check-cp"].add_argument("--times", default="0.1,1,10",
                                      help="comma-separated times (default: 0.1,1,10)")
    commands["sweep"].add_argument("--param", required=True,
                                   help="dotted path inside parameters, e.g. spectral.s")
    commands["sweep"].add_argument("--values", required=True,
                                   help="comma-separated values, e.g. 0.5,1,2; a JSON "
                                        "array such as [[[5,0]]] is one value")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one stderr line per warning, without the source file, line and code
    default_format = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    try:
        return args.func(args)
    except DecohereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, ValidationError)) else 1
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
