import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import decohere.cli as cli
import decohere.gksl
from decohere import CpCheckResult, DensityMatrix
from decohere.cli import (
    InvariantReport,
    check_cp,
    main,
    parse_scenario,
    run_scenario,
    validate_scenario,
)
from decohere.dephasing import DephasingModel, SpectralDensity
from decohere.errors import NegativeRateWarning, ParseError, ValidationError


def dephasing_scenario(tmp_path, **overrides):
    raw = {
        "model": "dephasing",
        "parameters": {
            "omega0": 0.0,
            "spectral": {"coupling": 1.0, "s": 1.0, "omega_c": 1.0},
            "bath": {"beta": "inf"},
        },
        "time": {"t_max": 1.0, "n_points": 11},
        "output": {
            "csv_path": str(tmp_path / "run.csv"),
            "report_path": str(tmp_path / "report.json"),
        },
    }
    raw.update(overrides)
    return raw


def peak_scenario(tmp_path):
    """The dephasing scenario with a spectral density peaked at 400 omega_c."""
    raw = dephasing_scenario(tmp_path)
    raw["parameters"]["spectral"]["s"] = 400.0
    return raw


def collisional_scenario(tmp_path):
    return {
        "model": "collisional",
        "parameters": {
            "rate": 1.0,
            "law": {"kind": "gaussian", "sigma_q": 1.0},
            "grid": [0.0, 10.0],
        },
        "time": {"t_max": 1.0, "n_points": 11},
        "output": {
            "csv_path": str(tmp_path / "col.csv"),
            "report_path": str(tmp_path / "col_report.json"),
        },
    }


def gksl_scenario(tmp_path):
    return {
        "model": "gksl",
        "parameters": {
            "hamiltonian": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
            "lindblad_ops": [],
            "kossakowski": [],
            "rho0": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
        },
        "time": {"t_max": 2.0, "n_points": 21},
        "output": {
            "csv_path": str(tmp_path / "gksl.csv"),
            "report_path": str(tmp_path / "gksl_report.json"),
        },
    }


def gksl_parameters(**changes):
    """gksl_scenario's parameter block with some keys replaced."""
    return {**gksl_scenario(Path())["parameters"], **changes}


def write_scenario(tmp_path, raw, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return p


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


# ----------------------------------------------------------------------
# parsing and validation
# ----------------------------------------------------------------------


def test_parse_minimal_dephasing(tmp_path):
    s = parse_scenario(json.dumps(dephasing_scenario(tmp_path)).encode())
    assert s.model == "dephasing"
    assert math.isinf(s.parameters["bath"]["beta"])
    assert s.n_points == 11


def test_parse_rejects_negative_coupling(tmp_path):
    raw = dephasing_scenario(tmp_path)
    raw["parameters"]["spectral"]["coupling"] = -1.0
    with pytest.raises(ValidationError, match="spectral.coupling must be >= 0"):
        parse_scenario(json.dumps(raw))


def test_parse_rejects_unknown_key(tmp_path):
    raw = dephasing_scenario(tmp_path)
    raw["parameters"]["lambda_"] = 1.0
    with pytest.raises(ValidationError, match='unknown key "lambda_"'):
        parse_scenario(json.dumps(raw))


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as excinfo:
        parse_scenario(b'{"model": "dephasing",\n  "oops }')
    assert excinfo.value.line == 2


# (factory, path inside the document, new value or DELETE, exact message)
DELETE = object()
ZERO_3 = [[[0, 0]] * 3] * 3
THIRD_OF_IDENTITY_3 = [[[1 / 3 if i == j else 0, 0] for j in range(3)] for i in range(3)]
LOWERING = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
INVALID_DOCUMENTS = [
    (dephasing_scenario, ("time",), DELETE, 'missing required key "time" in scenario'),
    (dephasing_scenario, ("parameters", "bath", "beta"), DELETE,
     'missing required key "beta" in bath'),
    (dephasing_scenario, ("extra",), 1, 'unknown key "extra" in scenario'),
    (dephasing_scenario, ("parameters", "lambda_"), 1, 'unknown key "lambda_" in parameters'),
    (dephasing_scenario, ("parameters", "spectral", "x"), 1, 'unknown key "x" in spectral'),
    (dephasing_scenario, ("parameters", "bath", "x"), 1, 'unknown key "x" in bath'),
    (collisional_scenario, ("parameters", "law", "x"), 1, 'unknown key "x" in law'),
    (dephasing_scenario, ("numerics",), {"x": {}}, 'unknown key "x" in numerics'),
    (dephasing_scenario, ("numerics",), {"quadrature": {"x": 1}},
     'unknown key "x" in numerics.quadrature'),
    (dephasing_scenario, ("numerics",), {"ode": {"x": 1}}, 'unknown key "x" in numerics.ode'),
    (dephasing_scenario, ("time", "x"), 1, 'unknown key "x" in time'),
    (dephasing_scenario, ("output", "x"), 1, 'unknown key "x" in output'),
    (dephasing_scenario, ("parameters", "omega0"), "x", "omega0 must be a number"),
    (dephasing_scenario, ("parameters", "spectral"), [], "spectral must be an object"),
    (dephasing_scenario, ("output", "csv_path"), 1, "output.csv_path must be a string"),
    (dephasing_scenario, ("time", "n_points"), 1.5, "time.n_points must be an integer"),
    (dephasing_scenario, ("parameters", "initial_coherence"), [1],
     "initial_coherence must be a [re, im] pair of numbers"),
    (dephasing_scenario, ("parameters", "spectral", "coupling"), -1,
     "spectral.coupling must be >= 0.0"),
    (dephasing_scenario, ("parameters", "spectral", "s"), 0, "spectral.s must be > 0.0"),
    (dephasing_scenario, ("parameters", "initial_population_upper"), 2,
     "initial_population_upper must be <= 1.0"),
    (dephasing_scenario, ("parameters", "bath", "beta"), -2, "bath.beta must be > 0.0"),
    (dephasing_scenario, ("time", "n_points"), 1, "time.n_points must be >= 2"),
    (peak_scenario, ("parameters", "spectral", "omega_c"), 1e3,
     "spectral prefactor coupling * omega_c^(1 - s) underflows to 0"),
    (peak_scenario, ("parameters", "spectral", "coupling"), 2.0,
     "spectral weight coupling * omega_c^2 * Gamma(s + 1) overflows"),
    (collisional_scenario, ("parameters", "n_q"), 1, "n_q must be >= 2"),
    (collisional_scenario, ("parameters", "grid"), [1.0, 0.0],
     "grid must be strictly ascending"),
    (dephasing_scenario, ("numerics",), {"quadrature": {"abs_tol": 1e-20}},
     "numerics.quadrature: abs_tol must be >= 1e-14"),
    (dephasing_scenario, ("numerics",), {"ode": {"max_steps": 1.5}},
     "numerics.ode.max_steps must be an integer"),
    (dephasing_scenario, ("numerics",), {"quadrature": {"abs_tol": "x"}},
     "numerics.quadrature.abs_tol must be a number"),
    (collisional_scenario, ("parameters", "law", "kind"), "x",
     'law.kind must be one of "gaussian", "two_point"'),
    (gksl_scenario, ("parameters", "rho0"), [[[1, 0], [0, 0]]] * 3,
     "rho0[0] must be a row of 3 [re, im] pairs"),
    # GkslGenerator checks the dimensions; the rho0 rows are checked against it
    (gksl_scenario, ("parameters",), gksl_parameters(rho0=THIRD_OF_IDENTITY_3),
     "rho0 must have 2 rows, got 3"),
    (gksl_scenario, ("parameters",),
     gksl_parameters(lindblad_ops=[ZERO_3], kossakowski=[[[1, 0]]]),
     "lindblad_ops[0] shape (3, 3) != hamiltonian (2, 2)"),
    (gksl_scenario, ("parameters",), gksl_parameters(kossakowski=[[[1, 0]]]),
     "kossakowski is 1x1 but there are 0 Lindblad operators"),
    (gksl_scenario, ("parameters",), gksl_parameters(lindblad_ops=[LOWERING]),
     "kossakowski is 0x0 but there are 1 Lindblad operators"),
]
# documents that parse but whose initial state is not a density matrix
INVALID_INITIAL_STATES = [
    (gksl_scenario, ("parameters", "rho0"), [[[0.5, 0], [0.5, 0]], [[0.5, 0], [4.5, 0]]],
     "initial state: density matrix trace (5+0j) differs from 1"),
    (dephasing_scenario, ("parameters", "initial_coherence"), [0.6, 0.0],
     "initial state: density matrix has negative eigenvalue -1.000e-01"),
    # eigenvalue -2e-10, just past the 1e-10 bound (the Cholesky certificate fails)
    (gksl_scenario, ("parameters",),
     gksl_parameters(rho0=[[[0.5, 0], [0.5000000002, 0]], [[0.5000000002, 0], [0.5, 0]]]),
     "initial state: density matrix has negative eigenvalue -2.000e-10"),
]
INVALID_DOCUMENTS += INVALID_INITIAL_STATES


def _case_id(case):
    factory, path, _, message = case
    name = f"{factory.__name__.split('_')[0]}:{'.'.join(path)}"
    # an initial-state case patches the same key as an earlier case
    return f"{name}:initial_state" if message.startswith("initial state: ") else name


def _patched(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return raw


@pytest.mark.parametrize("factory, path, value, message", INVALID_DOCUMENTS,
                         ids=[_case_id(case) for case in INVALID_DOCUMENTS])
def test_invalid_document_message(tmp_path, factory, path, value, message):
    raw = _patched(factory(tmp_path), path, value)
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario(json.dumps(raw))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("factory, path, value, message", INVALID_INITIAL_STATES,
                         ids=["gksl", "dephasing", "gksl-boundary"])
def test_cli_invalid_initial_state_exits_2(tmp_path, capsys, factory, path, value, message):
    p = write_scenario(tmp_path, _patched(factory(tmp_path), path, value))
    for argv in (["run", str(p)], ["check-cp", str(p)],
                 ["sweep", str(p), "--param", path[-1], "--values", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]  # no CSV, report or manifest


def test_duplicate_keys_are_rejected(tmp_path, capsys):
    text = json.dumps(gksl_scenario(tmp_path)).replace(
        '"model": "gksl"', '"model": "gksl", "model": "dephasing"'
    )
    with pytest.raises(ParseError, match='duplicate key "model"'):
        parse_scenario(text)
    nested = json.dumps(dephasing_scenario(tmp_path)).replace(
        '"s": 1.0', '"s": 1.0, "s": 2.0'
    )
    with pytest.raises(ParseError, match='duplicate key "s"'):
        parse_scenario(nested)
    p = tmp_path / "duplicate.json"
    p.write_text(text)
    for argv in (["run", str(p)], ["sweep", str(p), "--param", "rho0", "--values", "1"]):
        assert main(argv) == 2
        assert 'duplicate key "model"' in capsys.readouterr().err
    assert not (tmp_path / "gksl.csv").exists()


def test_numerics_overrides_validated(tmp_path):
    raw = dephasing_scenario(
        tmp_path, numerics={"ode": {"abs_tol": 1e-10}, "quadrature": {"rel_tol": 1e-11}}
    )
    s = parse_scenario(json.dumps(raw))
    assert s.ode.abs_tol == 1e-10
    assert s.system.quadrature.rel_tol == 1e-11
    raw["numerics"]["ode"]["bogus"] = 1
    with pytest.raises(ValidationError, match='"bogus"'):
        parse_scenario(json.dumps(raw))


def test_beta_must_be_positive_or_inf(tmp_path):
    raw = dephasing_scenario(tmp_path)
    raw["parameters"]["bath"]["beta"] = -2.0
    with pytest.raises(ValidationError, match="bath.beta"):
        parse_scenario(json.dumps(raw))


# ----------------------------------------------------------------------
# run_scenario
# ----------------------------------------------------------------------


def test_run_dephasing_columns_and_oracle(tmp_path):
    s = validate_scenario(dephasing_scenario(tmp_path))
    header, rows, report = run_scenario(s)
    assert header == [
        "t",
        "gamma",
        "Gamma",
        "coherence_re",
        "coherence_im",
        "coherence_abs",
        "coherence_abs_numeric",
        "trace_drift",
    ]
    assert len(rows) == 11
    by_t = {row[0]: row for row in rows}
    row1 = by_t[1.0]
    assert abs(row1[5] - 0.5 / math.sqrt(2.0)) < 1e-6
    assert abs(row1[6] - 0.5 / math.sqrt(2.0)) < 1e-6
    assert abs(row1[1] - 0.5) < 1e-8
    assert abs(row1[2] - 0.5 * math.log(2.0)) < 1e-8
    assert report.passed


def test_run_dephasing_reports_negative_rates_once(tmp_path):
    # s = 3 at T = 0: gamma(t) turns negative after t = sqrt(3), at many
    # Runge-Kutta stages
    raw = dephasing_scenario(tmp_path, time={"t_max": 5.0, "n_points": 21})
    raw["parameters"]["spectral"]["s"] = 3.0
    s = validate_scenario(raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_scenario(s)
    negative = [w for w in caught if issubclass(w.category, NegativeRateWarning)]
    assert len(negative) == 1
    message = str(negative[0].message)
    assert " Runge-Kutta stages, first at t = " in message
    count = int(message.split(" at ")[1].split()[0])
    first = float(message.split("first at t = ")[1].split(":")[0])
    assert count > 1
    assert math.sqrt(3.0) < first < 2.0


def test_run_dephasing_builds_its_generators_once(tmp_path, monkeypatch):
    built = []
    post_init = decohere.gksl.GkslGenerator.__post_init__
    monkeypatch.setattr(decohere.gksl.GkslGenerator, "__post_init__",
                        lambda gen, validate_psd: built.append(gen) or post_init(gen, validate_psd))
    counts = []
    for n_points in (6, 41):
        built.clear()
        run_scenario(validate_scenario(
            dephasing_scenario(tmp_path, time={"t_max": 1.0, "n_points": n_points})))
        counts.append(len(built))
    assert counts == [2, 2]


@pytest.mark.parametrize("beta", ["inf", 2.0])
def test_run_dephasing_builds_each_panel_layout_once(tmp_path, monkeypatch, beta):
    # panels of width 4 wc / 2^k <= 2 pi/t for k = 0 .. ceil(log2(2 wc t_max / pi)):
    # one layout, and one panel weight at its nodes, per weight kind and k
    builds = {True: 0, False: 0}
    panel_weight = DephasingModel._panel_weight
    monkeypatch.setattr(DephasingModel, "_panel_weight", lambda model, w, thermal: (
        builds.__setitem__(thermal, builds[thermal] + 1) or panel_weight(model, w, thermal)))
    wc, t_max = 1.3, 9.0
    raw = dephasing_scenario(tmp_path, time={"t_max": t_max, "n_points": 31})
    raw["parameters"]["spectral"]["omega_c"] = wc
    raw["parameters"]["bath"]["beta"] = beta
    report = run_scenario(validate_scenario(raw))[2]
    assert report.passed
    bound = 1 + math.ceil(math.log2(2 * wc * t_max / math.pi))
    assert 1 <= builds[True] <= bound and builds[False] <= bound, (builds, bound)


@pytest.mark.parametrize("factory, model_class", [
    (gksl_scenario, decohere.gksl.GkslGenerator),
    (dephasing_scenario, SpectralDensity),
], ids=["gksl", "dephasing"])
def test_each_command_builds_its_model_once(tmp_path, monkeypatch, factory, model_class):
    # validate_scenario builds the model; run and check-cp only read it
    built = []
    post_init = model_class.__post_init__
    monkeypatch.setattr(model_class, "__post_init__",
                        lambda model, *args: built.append(model) or post_init(model, *args))
    p = write_scenario(tmp_path, factory(tmp_path))
    for argv in (["run", str(p)], ["check-cp", str(p), "--times", "1"]):
        built.clear()
        assert main(argv) == 0
        assert len(built) == 1, argv


def test_run_zero_coupling_scenario(tmp_path, monkeypatch):
    # scenarios/dephasing_zero_coupling.json: s = 400, where the spectral
    # integrals would overflow, but J = 0 makes every rate 0
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "dephasing_zero_coupling.json"
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(scenario)]) == 0
    header, rows = read_csv(tmp_path / "out" / "dephasing_zero_coupling.csv")
    assert len(rows) == 5
    for name in ("gamma", "Gamma"):
        assert [row[header.index(name)] for row in rows] == [0.0] * 5
    report = json.loads((tmp_path / "out" / "dephasing_zero_coupling_report.json").read_text())
    assert report["passed"] is True


def test_run_collisional_oracle(tmp_path):
    s = validate_scenario(collisional_scenario(tmp_path))
    header, rows, report = run_scenario(s)
    assert header[1] == "offdiag_abs"
    final = rows[-1]
    expected = 0.5 * math.exp(-(1.0 - math.exp(-50.0)))
    assert abs(final[1] - expected) < 1e-12
    assert abs(final[2] - expected) < 1e-6
    assert report.passed
    assert report.cross_check_residuals["exact_vs_discretized_generator"] < 1e-7


def test_run_collisional_n64_is_small_and_keeps_populations(tmp_path):
    raw = collisional_scenario(tmp_path)
    raw["parameters"]["grid"] = list(np.linspace(0.0, 10.0, 64))
    s = validate_scenario(raw)
    tracemalloc.start()
    try:
        _, _, report = run_scenario(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert report.cross_check_residuals["diagonal_drift"] == 0.0
    assert peak < 50e6


def test_run_gksl_unitary_keeps_coherence_magnitude(tmp_path):
    s = validate_scenario(gksl_scenario(tmp_path))
    header, rows, report = run_scenario(s)
    col = header.index("coherence_abs")
    values = [row[col] for row in rows]
    assert max(abs(v - 0.5) for v in values) < 1e-8
    assert report.passed


def test_run_report_flags_violations(tmp_path):
    raw = dephasing_scenario(
        tmp_path, numerics={"ode": {"abs_tol": 1e-3, "rel_tol": 1e-3}}
    )
    s = validate_scenario(raw)
    _, _, report = run_scenario(s)
    assert not report.passed
    assert "coherence_abs_analytic_vs_ode" in report.violations


def test_ode_residual_shrinks_with_the_tolerance(tmp_path):
    # step control keeps each step's error estimate near the tolerance, so
    # the global error follows it: 100x tighter tolerances must shrink the
    # residual at least 30x (141x measured: 1.3e-6 -> 9.1e-9).  A broken
    # controller can pass a one-tolerance comparison, not this one.
    def residual(tol):
        raw = dephasing_scenario(tmp_path, numerics={"ode": {"abs_tol": tol, "rel_tol": tol}})
        _, _, report = run_scenario(validate_scenario(raw))
        return report.cross_check_residuals["coherence_abs_analytic_vs_ode"]

    assert 0 < 30 * residual(1e-9) <= residual(1e-7)


# ----------------------------------------------------------------------
# command line entry points
# ----------------------------------------------------------------------


def test_cli_run_writes_outputs_and_exits_zero(tmp_path):
    p = write_scenario(tmp_path, dephasing_scenario(tmp_path))
    assert main(["run", str(p)]) == 0
    header, rows = read_csv(tmp_path / "run.csv")
    assert header[0] == "t" and len(rows) == 11
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["seed"] is None


def test_cli_run_is_byte_deterministic(tmp_path):
    p = write_scenario(tmp_path, dephasing_scenario(tmp_path))
    assert main(["run", str(p)]) == 0
    first = (tmp_path / "run.csv").read_bytes()
    assert main(["run", str(p)]) == 0
    assert (tmp_path / "run.csv").read_bytes() == first


def test_cli_records_seed_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DECOHERE_SEED", "42")
    p = write_scenario(tmp_path, dephasing_scenario(tmp_path))
    assert main(["run", str(p)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == 42


def test_cli_nonpsd_kossakowski_exits_2(tmp_path):
    raw = gksl_scenario(tmp_path)
    raw["parameters"]["lindblad_ops"] = [
        [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    ]
    raw["parameters"]["kossakowski"] = [
        [[1.0, 0.0], [2.0, 0.0]],
        [[2.0, 0.0], [1.0, 0.0]],
    ]
    p = write_scenario(tmp_path, raw)
    assert main(["run", str(p)]) == 2


SHIPPED_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED_INVALID_KOSSAKOWSKI = SHIPPED_SCENARIOS / "invalid_kossakowski.json"
KOSSAKOWSKI_MESSAGE = "kossakowski matrix is not positive semidefinite"


def test_parse_rejects_shipped_invalid_kossakowski():
    with pytest.raises(ValidationError, match=KOSSAKOWSKI_MESSAGE):
        parse_scenario(SHIPPED_INVALID_KOSSAKOWSKI.read_bytes())


def test_cli_invalid_kossakowski_exits_2_on_every_command(tmp_path, capsys):
    raw = json.loads(SHIPPED_INVALID_KOSSAKOWSKI.read_text())
    raw["output"] = gksl_scenario(tmp_path)["output"]
    p = write_scenario(tmp_path, raw)
    for argv in (["run", str(p)], ["check-cp", str(p)],
                 ["sweep", str(p), "--param", "rho0", "--values", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {KOSSAKOWSKI_MESSAGE}")
    assert [f.name for f in tmp_path.iterdir()] == [p.name]  # no CSV, report or manifest


SHIPPED_SPECTRAL_OVERFLOW = SHIPPED_INVALID_KOSSAKOWSKI.with_name(
    "invalid_spectral_overflow.json")
OVERFLOW_MESSAGE = "spectral prefactor coupling * omega_c^(1 - s) overflows"


def test_parse_rejects_shipped_spectral_overflow():
    with pytest.raises(ValidationError, match=re.escape(OVERFLOW_MESSAGE)):
        parse_scenario(SHIPPED_SPECTRAL_OVERFLOW.read_bytes())


def test_cli_spectral_overflow_exits_2_on_every_command(tmp_path, capsys):
    # s = 400 with omega_c = 1e-3: omega_c^(1 - s) = 1e1197 is no float
    raw = json.loads(SHIPPED_SPECTRAL_OVERFLOW.read_text())
    raw["output"] = dephasing_scenario(tmp_path)["output"]
    p = write_scenario(tmp_path, raw)
    for argv in (["run", str(p)], ["check-cp", str(p)],
                 ["sweep", str(p), "--param", "spectral.s", "--values", "1,2"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {OVERFLOW_MESSAGE}\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]  # no CSV, report or manifest


SHIPPED_CUTOFF_MULTIPLIER = SHIPPED_INVALID_KOSSAKOWSKI.with_name(
    "invalid_cutoff_multiplier.json")


def test_cli_removed_cutoff_multiplier_exits_2_on_every_command(tmp_path, capsys):
    # the cutoff is derived from J and abs_tol; a document that still sets
    # the removed multiplier fails instead of silently getting another cutoff
    raw = json.loads(SHIPPED_CUTOFF_MULTIPLIER.read_text())
    raw["output"] = dephasing_scenario(tmp_path)["output"]
    p = write_scenario(tmp_path, raw)
    for argv in (["run", str(p)], ["check-cp", str(p)],
                 ["sweep", str(p), "--param", "spectral.s", "--values", "1,2"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            'error: unknown key "tail_cutoff_multiplier" in numerics.quadrature\n')
    assert [f.name for f in tmp_path.iterdir()] == [p.name]  # no CSV, report or manifest


SHIPPED_SPECTRAL_PEAK = SHIPPED_INVALID_KOSSAKOWSKI.with_name("invalid_spectral_peak.json")
UNDERFLOW_MESSAGE = "spectral prefactor coupling * omega_c^(1 - s) underflows to 0"
WEIGHT_MESSAGE = "spectral weight coupling * omega_c^2 * Gamma(s + 1) overflows"


@pytest.mark.parametrize("omega_c, message", [(1e3, UNDERFLOW_MESSAGE), (1.0, WEIGHT_MESSAGE)],
                         ids=["underflow", "weight"])
def test_cli_spectral_peak_exits_2_on_every_command(tmp_path, capsys, omega_c, message):
    # s = 400: omega_c^(1 - s) = 1e-1197 is 0 at omega_c = 1e3, and the
    # weight Gamma(401) = 1e868 is no float; before they were rejected, the
    # panel rule overflowed and the fallback failed with exit 1
    raw = json.loads(SHIPPED_SPECTRAL_PEAK.read_text())
    raw["parameters"]["spectral"]["omega_c"] = omega_c
    raw["output"] = dephasing_scenario(tmp_path)["output"]
    p = write_scenario(tmp_path, raw)
    for argv in (["run", str(p)], ["check-cp", str(p)],
                 ["sweep", str(p), "--param", "spectral.s", "--values", "1,400"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]  # no CSV, report or manifest


SHIPPED_SPECTRAL_EXPONENT = SHIPPED_INVALID_KOSSAKOWSKI.with_name(
    "invalid_spectral_exponent.json")
EXPONENT_MESSAGE = ("spectral exponent s = 1e-17 is too small at finite temperature: "
                    "panel rule power must be > -1")


def test_cli_spectral_exponent_exits_2_on_every_command(tmp_path, capsys):
    # at beta = 2 the integrands go as w^(s - 1) near 0, and s - 1 rounds to -1
    raw = json.loads(SHIPPED_SPECTRAL_EXPONENT.read_text())
    raw["output"] = dephasing_scenario(tmp_path)["output"]
    p = write_scenario(tmp_path, raw)
    for argv in (["run", str(p)], ["check-cp", str(p)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {EXPONENT_MESSAGE}\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]  # no CSV or report


NODES_MESSAGE = "gaussian law needs n_q >= 16 quadrature nodes, got 8"
FAMILY_MESSAGE = "check-cp supports gksl and dephasing scenarios only"


def test_cli_too_few_law_nodes_exit_2_at_parse_time(tmp_path, capsys):
    raw = collisional_scenario(tmp_path)
    raw["parameters"]["n_q"] = 8
    p = write_scenario(tmp_path, raw)
    # check-cp rejects the collisional family before its law's nodes are built
    for argv, message in ((["run", str(p)], NODES_MESSAGE),
                          (["check-cp", str(p)], FAMILY_MESSAGE),
                          (["sweep", str(p), "--param", "rate", "--values", "1,2"],
                           NODES_MESSAGE)):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]  # no CSV, report or manifest


def test_cli_negative_rate_warning_is_one_line_without_a_source_location(tmp_path):
    # the console script's stderr, as a user sees it: s = 3 at T = 0 turns
    # gamma(t) negative after t = sqrt(3)
    raw = dephasing_scenario(tmp_path, time={"t_max": 5.0, "n_points": 21})
    raw["parameters"]["spectral"]["s"] = 3.0
    p = write_scenario(tmp_path, raw)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "decohere.cli", "run", str(p)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("NegativeRateWarning: dephasing rate was negative at ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "cli.py" not in proc.stderr


def test_cli_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_cli_invalid_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 2


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    # an output path that names a directory cannot be written
    raw = dephasing_scenario(tmp_path)
    raw["output"]["csv_path"] = str(tmp_path)
    assert main(["run", str(write_scenario(tmp_path, raw))]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")
    raw = gksl_scenario(tmp_path)
    raw["output"]["report_path"] = str(tmp_path)
    assert main(["check-cp", str(write_scenario(tmp_path, raw))]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")
    # the sweep manifest sits next to the report: make its path a directory
    raw = dephasing_scenario(tmp_path)
    (tmp_path / "report_sweep_manifest.json").mkdir()
    p = write_scenario(tmp_path, raw)
    assert main(["sweep", str(p), "--param", "spectral.s", "--values", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'report_sweep_manifest.json'}: ")


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_cli_ode_positivity_loss_exits_1(tmp_path, capsys):
    # a strongly damped qubit at loose ODE tolerances keeps its trace and
    # Hermiticity, but an integrated state loses positivity
    raw = gksl_scenario(tmp_path)
    raw["parameters"].update(
        lindblad_ops=[[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        kossakowski=[[[50.0, 0.0]]],
        rho0=[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    )
    raw["time"] = {"t_max": 5.0, "n_points": 11}
    raw["numerics"] = {"ode": {"abs_tol": 0.05, "rel_tol": 0.05}}
    assert main(["run", str(write_scenario(tmp_path, raw))]) == 1
    assert capsys.readouterr().err.startswith(
        "error: invariant drift exceeded 1e-06: density matrix has negative eigenvalue ")


def test_cli_semigroup_drift_exits_1(tmp_path, monkeypatch, capsys):
    # the jump term sum_j conj(M_j) kron L_j scaled by 1.01 after G is taken:
    # exp(t L) no longer keeps the trace, and the semigroup reference states
    # fail their check as an invariant violation, not as invalid input
    to_superoperator = decohere.gksl.to_superoperator

    def drifting(gen):
        d, n = gen.dim, len(gen.lindblad_ops)
        ops = np.array(gen.lindblad_ops, dtype=complex).reshape(n, d * d)
        m = gen.kossakowski.conj() @ ops  # row j: M_j
        jump = (m.conj().T @ ops).reshape(d, d, d, d).transpose(0, 2, 1, 3)
        jump = jump.reshape(d * d, d * d)
        return decohere.gksl.Superoperator(to_superoperator(gen).matrix + 0.01 * jump)

    monkeypatch.setattr(decohere.gksl, "to_superoperator", drifting)
    monkeypatch.chdir(tmp_path)
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "gksl_correlated_qutrit.json"
    assert main(["run", str(scenario)]) == 1
    assert capsys.readouterr().err.startswith("error: semigroup state drift exceeded 1e-08: ")


def test_cli_violation_exits_1(tmp_path):
    raw = dephasing_scenario(
        tmp_path, numerics={"ode": {"abs_tol": 1e-3, "rel_tol": 1e-3}}
    )
    p = write_scenario(tmp_path, raw)
    assert main(["run", str(p)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False


# ----------------------------------------------------------------------
# check-cp
# ----------------------------------------------------------------------


def test_check_cp_gksl(tmp_path):
    s = validate_scenario(gksl_scenario(tmp_path))
    report = check_cp(s, [0.0, 1.0, 10.0])
    assert report.passed
    assert report.min_choi_eigenvalue >= -1e-10
    assert report.trace_drift_max <= 1e-10


def test_check_cp_strongly_damped_qubit(tmp_path):
    # exp(10 L) has 1-norm ~800 as a generator input, yet is a finite
    # CPTP map with minimum Choi eigenvalue 0.
    raw = gksl_scenario(tmp_path)
    raw["parameters"]["lindblad_ops"] = [
        [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    ]
    raw["parameters"]["kossakowski"] = [[[40.0, 0.0]]]
    report = check_cp(validate_scenario(raw), [10.0])
    assert report.passed
    assert report.min_choi_eigenvalue >= -1e-8
    assert report.trace_drift_max <= 1e-10


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_gksl_run_exponentiates_once(tmp_path, monkeypatch):
    # a damped qubit: the ODE route builds its own superoperator, and the
    # reference route exponentiates one step dt L for all 11 points
    raw = gksl_scenario(tmp_path)
    raw["parameters"]["lindblad_ops"] = [
        [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    ]
    raw["parameters"]["kossakowski"] = [[[0.5, 0.0]]]
    raw["time"]["n_points"] = 11
    expm_calls = _count_calls(monkeypatch, decohere.gksl.numcore, "matrix_exp")
    _, rows, report = run_scenario(validate_scenario(raw))
    assert len(rows) == 11 and report.passed
    assert len(expm_calls) == 1


def test_gksl_check_cp_builds_one_superoperator(tmp_path, monkeypatch):
    s = validate_scenario(gksl_scenario(tmp_path))
    superop_calls = _count_calls(monkeypatch, decohere.gksl, "to_superoperator")
    expm_calls = _count_calls(monkeypatch, decohere.gksl.numcore, "matrix_exp")
    assert check_cp(s, [0.1, 1.0, 10.0]).passed
    assert len(superop_calls) == 1 and len(expm_calls) == 3


def test_check_cp_identity_at_t0(tmp_path):
    s = validate_scenario(gksl_scenario(tmp_path))
    report = check_cp(s, [0.0])
    assert abs(report.min_choi_eigenvalue) <= 1e-10


def test_check_cp_dephasing(tmp_path):
    raw = dephasing_scenario(tmp_path)
    raw["parameters"]["omega0"] = 1.0
    s = validate_scenario(raw)
    report = check_cp(s, [0.1, 1.0, 10.0])
    assert report.passed


def test_check_cp_rejects_collisional(tmp_path):
    s = validate_scenario(collisional_scenario(tmp_path))
    with pytest.raises(ValidationError):
        check_cp(s, [1.0])


def test_cli_check_cp_rejects_collisional_before_building_it(tmp_path, monkeypatch, capsys):
    # the kick operators and the dense generator are never used by check-cp
    builds = _count_calls(monkeypatch, cli.col, "build_discretized_generator")
    p = write_scenario(tmp_path, collisional_scenario(tmp_path))
    assert main(["check-cp", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {FAMILY_MESSAGE}\n"
    assert builds == []
    assert main(["run", str(p)]) == 0
    assert len(builds) == 1


def test_cli_check_cp_command(tmp_path):
    p = write_scenario(tmp_path, gksl_scenario(tmp_path))
    assert main(["check-cp", str(p), "--times", "0.1,1,10"]) == 0
    report = json.loads((tmp_path / "gksl_report.json").read_text())
    assert report["min_choi_eigenvalue"] >= -1e-8
    assert report["passed"] is True


@pytest.mark.parametrize("times, keys", [
    (["--times", "1,1.000001,1.0000001"], ["1", "1.000001", "1.0000001"]),
    ([], ["0.1", "1", "10"]),  # the default times keep their keys
])
def test_cli_check_cp_keys_each_time(tmp_path, capsys, times, keys):
    p = write_scenario(tmp_path, gksl_scenario(tmp_path))
    assert main(["check-cp", str(p), *times]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"t={k}" for k in keys]
    report = json.loads((tmp_path / "gksl_report.json").read_text())
    assert list(report["choi_eigenvalue_by_time"]) == keys
    assert list(report["cross_check_residuals"]) == [f"choi_negativity_t_{k}" for k in keys]


@pytest.mark.parametrize("times", ["", " , "])
def test_cli_check_cp_rejects_an_empty_time_list(tmp_path, capsys, times):
    p = write_scenario(tmp_path, gksl_scenario(tmp_path))
    assert main(["check-cp", str(p), "--times", times]) == 2
    assert capsys.readouterr().err == "error: --times must list at least one time\n"


@pytest.mark.parametrize("times", ["1,1.0", "2,0.5,2", "0,-0"])
def test_cli_check_cp_rejects_duplicate_times(tmp_path, capsys, times):
    p = write_scenario(tmp_path, gksl_scenario(tmp_path))
    assert main(["check-cp", str(p), "--times", times]) == 2
    assert capsys.readouterr().err == "error: --times must not repeat a time\n"


# ----------------------------------------------------------------------
# NaN verdicts
# ----------------------------------------------------------------------


def test_nan_fails_every_gate():
    nan = math.nan
    assert InvariantReport(trace_drift_max=nan).finalize().violations == ["trace_drift"]
    assert InvariantReport(hermiticity_drift_max=nan).finalize().violations == [
        "hermiticity_drift"]
    report = InvariantReport(cross_check_residuals={"x": nan}).finalize()
    assert report.violations == ["x"] and report.to_dict()["passed"] is False
    report = InvariantReport(min_choi_eigenvalue=nan).finalize()
    assert report.violations == ["complete_positivity"] and not report.passed


def test_nan_survives_the_running_maxima():
    report = InvariantReport()
    report.residual("x", 1e-9)
    report.residual("x", math.nan)
    report.residual("x", 1e-9)
    report.observe(types.SimpleNamespace(matrix=np.full((2, 2), math.nan),
                                         hermiticity_defect=math.nan))
    report.observe(DensityMatrix(np.eye(2) / 2))
    assert math.isnan(report.cross_check_residuals["x"])
    assert math.isnan(report.trace_drift_max) and math.isnan(report.hermiticity_drift_max)
    assert report.finalize().violations == ["trace_drift", "hermiticity_drift", "x"]


def test_cli_run_nan_cross_check_exits_1(tmp_path, monkeypatch):
    nan_state = types.SimpleNamespace(matrix=np.full((2, 2), math.nan))
    monkeypatch.setattr(decohere.gksl, "semigroup_trajectory",
                        lambda gen, rho0, dt, n: [nan_state] * n)
    p = write_scenario(tmp_path, gksl_scenario(tmp_path))
    assert main(["run", str(p)]) == 1
    report = json.loads((tmp_path / "gksl_report.json").read_text())
    assert report["violations"] == ["ode_vs_semigroup"] and report["passed"] is False


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_cli_run_nan_report_is_strict_json(tmp_path, monkeypatch):
    nan_state = types.SimpleNamespace(matrix=np.full((2, 2), math.nan))
    monkeypatch.setattr(decohere.gksl, "semigroup_trajectory",
                        lambda gen, rho0, dt, n: [nan_state] * n)
    p = write_scenario(tmp_path, gksl_scenario(tmp_path))
    assert main(["run", str(p)]) == 1
    report = _strict_loads((tmp_path / "gksl_report.json").read_text())
    assert report["cross_check_residuals"]["ode_vs_semigroup"] == "NaN"


def test_write_json_spells_non_finite_floats(tmp_path):
    obj = {"a": [math.inf, -math.inf, 1.5], "b": {"c": math.nan}, "d": None}
    cli._write_json(tmp_path / "x.json", obj)
    assert _strict_loads((tmp_path / "x.json").read_text()) == {
        "a": ["Infinity", "-Infinity", 1.5], "b": {"c": "NaN"}, "d": None}


def test_cli_run_nan_state_exits_1(tmp_path, monkeypatch, capsys):
    def nan_solve(rhs, y0, t_grid, spec, *, before_step):
        return np.full((len(t_grid), y0.size), math.nan, dtype=complex)

    monkeypatch.setattr(decohere.gksl.numcore, "ode_solve", nan_solve)
    p = write_scenario(tmp_path, gksl_scenario(tmp_path))
    assert main(["run", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error: invariant drift exceeded")


def test_cli_check_cp_nan_eigenvalue_exits_1(tmp_path, monkeypatch, capsys):
    def nan_check(choi, tol):
        return CpCheckResult(False, math.nan, np.full(choi.matrix.shape[0], math.nan), tol,
                             0.0)

    monkeypatch.setattr(cli, "is_completely_positive", nan_check)
    p = write_scenario(tmp_path, gksl_scenario(tmp_path))
    assert main(["check-cp", str(p), "--times", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "overall min Choi eigenvalue nan [NOT COMPLETELY POSITIVE]")
    report = json.loads((tmp_path / "gksl_report.json").read_text())
    assert report["violations"] == ["choi_negativity_t_1", "complete_positivity"]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def test_cli_sweep_writes_per_value_outputs_and_manifest(tmp_path):
    p = write_scenario(tmp_path, dephasing_scenario(tmp_path))
    assert main(["sweep", str(p), "--param", "spectral.s", "--values", "0.5,1,2"]) == 0
    manifest = json.loads((tmp_path / "report_sweep_manifest.json").read_text())
    assert manifest["param"] == "spectral.s"
    assert [run["value"] for run in manifest["runs"]] == [0.5, 1, 2]
    for run in manifest["runs"]:
        header, rows = read_csv(tmp_path / run["csv_path"].split("/")[-1])
        assert len(rows) == 11
        assert run["passed"] is True


def test_cli_sweep_unknown_path_exits_2(tmp_path):
    p = write_scenario(tmp_path, dephasing_scenario(tmp_path))
    assert main(["sweep", str(p), "--param", "spectral.zeta", "--values", "1"]) == 2


def test_cli_sweep_unknown_path_message(tmp_path, capsys):
    p = write_scenario(tmp_path, dephasing_scenario(tmp_path))
    for path in ("spectral.zeta", "zeta", "initial_coherence.re", "bath.beta.x"):
        assert main(["sweep", str(p), "--param", path, "--values", "1"]) == 2
        assert capsys.readouterr().err == f'error: unknown sweep parameter path "{path}"\n'


def test_cli_sweep_rejects_repeated_values(tmp_path, capsys):
    p = write_scenario(tmp_path, dephasing_scenario(tmp_path))
    assert main(["sweep", str(p), "--param", "spectral.s", "--values", "1,2, 1"]) == 2
    assert capsys.readouterr().err == "error: --values must not repeat a value\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("name, path, value, param, values, message", [
    # s = 1 is valid; s = 400 overflows the prefactor at omega_c = 1e-3
    ("dephasing_ohmic_zero_temperature", ("parameters", "spectral", "omega_c"), 1e-3,
     "spectral.s", "1,400", OVERFLOW_MESSAGE),
    ("collisional_two_site", ("parameters", "n_q"), 64, "n_q", "64,8", NODES_MESSAGE),
    # at beta = 2, s = 1 runs and s = 1e-17 is too small for the panel rule
    ("dephasing_ohmic_zero_temperature", ("parameters", "bath", "beta"), 2.0,
     "spectral.s", "1,1e-17", EXPONENT_MESSAGE),
], ids=["dephasing", "collisional", "dephasing-exponent"])
def test_cli_sweep_validates_every_value_before_it_runs_any(
        tmp_path, capsys, name, path, value, param, values, message):
    raw = _patched(json.loads((SHIPPED_SCENARIOS / f"{name}.json").read_text()), path, value)
    raw["output"] = {"csv_path": str(tmp_path / "run.csv"),
                     "report_path": str(tmp_path / "report.json")}
    p = write_scenario(tmp_path, raw)
    assert main(["sweep", str(p), "--param", param, "--values", values]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]  # no CSV, report or manifest


@pytest.mark.parametrize("raw, items", [
    ("0.5,1,2", ["0.5", "1", "2"]),
    ("inf", ["inf"]),
    (" 1, ,2 ", ["1", "2"]),
    ("[[[5,0]]], [[[50,0]]]", ["[[[5,0]]]", "[[[50,0]]]"]),
    ('"a,]b",[1,"c\\",d"],2', ['"a,]b"', '[1,"c\\",d"]', "2"]),
])
def test_sweep_values_split_outside_arrays_and_strings(raw, items):
    assert cli._split_values(raw) == items


def test_cli_sweep_keeps_a_matrix_value_whole(tmp_path):
    def damped(rate, name):
        raw = gksl_scenario(tmp_path)
        lower = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        raw["parameters"]["lindblad_ops"] = [lower]
        raw["parameters"]["kossakowski"] = [[[rate, 0.0]]]
        raw["output"] = {"csv_path": str(tmp_path / f"{name}.csv"),
                         "report_path": str(tmp_path / f"{name}_report.json")}
        return write_scenario(tmp_path, raw, f"{name}.json")

    p = damped(1.0, "damped")
    values = "[[[5,0]]],[[[50,0]]]"
    assert main(["sweep", str(p), "--param", "kossakowski", "--values", values]) == 0
    manifest = json.loads((tmp_path / "damped_report_sweep_manifest.json").read_text())
    assert manifest["values"] == ["[[[5,0]]]", "[[[50,0]]]"]
    assert [run["value"] for run in manifest["runs"]] == [[[[5, 0]]], [[[50, 0]]]]
    # an array value is named by its position in --values
    for i, rate in ((1, 5.0), (2, 50.0)):
        assert main(["run", str(damped(rate, f"direct_{i}"))]) == 0
        swept = tmp_path / f"damped_kossakowski_{i}.csv"
        assert swept.read_bytes() == (tmp_path / f"direct_{i}.csv").read_bytes()


def test_cli_sweep_over_defaulted_key_matches_direct_runs(tmp_path):
    # collisional_scenario omits n_q, so the swept key exists only as a default
    p = write_scenario(tmp_path, collisional_scenario(tmp_path))
    assert main(["sweep", str(p), "--param", "n_q", "--values", "64,128"]) == 0
    for n_q in (64, 128):
        raw = collisional_scenario(tmp_path)
        raw["parameters"]["n_q"] = n_q
        raw["output"] = {
            "csv_path": str(tmp_path / f"direct_{n_q}.csv"),
            "report_path": str(tmp_path / f"direct_{n_q}.json"),
        }
        assert main(["run", str(write_scenario(tmp_path, raw, f"scenario_{n_q}.json"))]) == 0
        swept = (tmp_path / f"col_n_q_{n_q}.csv").read_bytes()
        assert swept == (tmp_path / f"direct_{n_q}.csv").read_bytes()


def test_report_serialization_roundtrip():
    report = InvariantReport(
        trace_drift_max=1e-12,
        hermiticity_drift_max=0.0,
        cross_check_residuals={"x": 2e-9},
    ).finalize()
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["passed"] is True
    assert blob["cross_check_residuals"]["x"] == 2e-9
