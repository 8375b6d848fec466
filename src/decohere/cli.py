"""Scenario runner: JSON in, CSV time series + JSON invariant report out.

Subcommands::

    decohere run <scenario.json>
    decohere check-cp <scenario.json> --times 0.1,1,10
    decohere sweep <scenario.json> --param spectral.s --values 0.5,1,2

Scenario files are strict JSON (unknown and duplicate keys are rejected)
with an "inf" sentinel string for infinite inverse temperature.  Each
schema is one table of ``key: (parser, default)`` entries walked by
``schema.obj``; the numerics blocks take theirs from ``QuadratureSpec`` and
``OdeSpec``, and ``sweep`` patches the document as read.

This module holds the document-level tables (time, numerics, output), the
report, the writers and the commands.  ``_FAMILIES`` maps each model name to
its module, ``dephasing``, ``collisional`` or ``gksl``, walked without
branching on the model.  Each module defines ``PARAMETERS`` (its parameters
table), ``build(parameters, quadrature)`` (the model),
``initial_state(parameters)``, the CSV ``COLUMNS``, the ``run`` generator
(row values and cross-check residuals) and the check-cp ``channel`` (None
when the family has none).  ``validate_scenario`` builds the
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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import collisional as col, dephasing, gksl
from .errors import DecohereError, ParseError, ValidationError
from .gksl import DRIFT_ERROR_THRESHOLD, choi_of_propagator, is_completely_positive, vec
from .numcore import OdeSpec, QuadratureSpec
from .schema import REQUIRED, check_keys, integer, obj, positive, spec, string

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
    system: dephasing.DephasingModel | gksl.GkslGenerator | tuple
    rho0: gksl.DensityMatrix | col.PositionDensityMatrix
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

    def observe(self, state) -> float:
        """Fold in one checked state's trace drift and the Hermiticity defect
        its check measured; return the former."""
        trace_drift = abs(complex(np.trace(state.matrix)) - 1.0)
        self.trace_drift_max = _worst(self.trace_drift_max, trace_drift)
        self.hermiticity_drift_max = _worst(self.hermiticity_drift_max,
                                            state.hermiticity_defect)
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
# Document-level schema tables; each family module holds its PARAMETERS
# ----------------------------------------------------------------------


_TIME = obj({"t_max": (positive, REQUIRED),
             "n_points": (partial(integer, minimum=2), REQUIRED)})
# an absent quadrature block is the default spec; an absent ode block is None
_NUMERICS = obj({"quadrature": (spec(QuadratureSpec), {}), "ode": (spec(OdeSpec), None)})
_OUTPUT = obj({"csv_path": (string, REQUIRED), "report_path": (string, REQUIRED)})


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f'duplicate key "{key}" in scenario JSON')
        out[key] = value
    return out


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
    check_keys(raw, "scenario", allowed=keys + ("numerics",), required=keys)
    model = string(raw["model"], "model", choices=tuple(_FAMILIES))
    family = _FAMILIES[model]
    parameters = family.PARAMETERS(raw["parameters"], "parameters")
    numerics = _NUMERICS(raw.get("numerics", {}), "numerics")
    if for_check_cp:
        _channel(model)
    system = family.build(parameters, numerics["quadrature"])
    try:
        rho0 = family.initial_state(parameters)
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


_FAMILIES = {"dephasing": dephasing, "collisional": col, "gksl": gksl}


def run_scenario(s: Scenario):
    """Execute a scenario; returns (header, rows, InvariantReport)."""
    family = _FAMILIES[s.model]
    report = InvariantReport(seed=_read_seed())
    t_grid = np.linspace(0.0, s.t_max, s.n_points)
    rows = []
    steps = family.run(s.system, s.rho0, t_grid, s.ode)
    for t, (state, values, residuals) in zip(t_grid, steps):
        rows.append([float(t), *values, report.observe(state)])
        for name, value in residuals.items():
            report.residual(name, value)
    return ["t", *family.COLUMNS, "trace_drift"], rows, report.finalize()


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
        result = is_completely_positive(choi_of_propagator(prop), tol=-CP_EIGENVALUE_FLOOR)
        report.hermiticity_drift_max = _worst(report.hermiticity_drift_max,
                                              result.hermiticity_defect)
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
