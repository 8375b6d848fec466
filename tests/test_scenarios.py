"""Every shipped scenario, in process: a valid document runs to a passing
report with cross-checks and the CSV rows of ``tests/golden``, and an
``invalid_*`` document is rejected at validation."""

import json
from pathlib import Path

import numpy as np
import pytest

from decohere.cli import check_cp, run_scenario, validate_scenario
from decohere.errors import ValidationError

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))
VALID = [p for p in SCENARIOS if not p.name.startswith("invalid_")]
INVALID = [p for p in SCENARIOS if p.name.startswith("invalid_")]


def _load(path):
    return json.loads(path.read_text())


# dephasing_superohmic_s20: at s = 20 and T = 0 gamma turns negative
@pytest.mark.filterwarnings("ignore::decohere.errors.NegativeRateWarning")
@pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
def test_valid_scenario_runs_to_a_passing_report(path):
    """The run passes, and its rows are those of ``tests/golden/<stem>.csv``:
    the header exactly, each value within 1e-12 max(1, |golden|), since
    CSVs written on other CPUs may differ in the last bits.  From the
    repository root, this rewrites the goldens:

        for p in scenarios/[!i]*.json; do decohere run "$p" && cp "out/$(basename "$p" .json).csv" tests/golden/; done
    """
    header, rows, report = run_scenario(validate_scenario(_load(path)))
    assert report.passed, report.violations
    assert report.cross_check_residuals
    lines = (GOLDEN_DIR / f"{path.stem}.csv").read_text().splitlines()
    assert lines[0].split(",") == header
    golden = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    got = np.array(rows, dtype=float)
    assert got.shape == golden.shape
    off = np.argwhere(~(np.abs(got - golden) <= 1e-12 * np.maximum(1.0, np.abs(golden))))
    assert off.size == 0, [(header[j], got[i, j], golden[i, j]) for i, j in off[:5]]


@pytest.mark.parametrize("path", INVALID, ids=lambda p: p.stem)
def test_invalid_scenario_is_rejected(path):
    with pytest.raises(ValidationError):
        validate_scenario(_load(path))


def test_damped_qubit_is_certified_cp_and_trace_preserving():
    # amplitude damping at rate 50, at the CLI's default --times
    scenario = validate_scenario(_load(SCENARIO_DIR / "gksl_damped_qubit.json"),
                                 for_check_cp=True)
    report = check_cp(scenario, (0.1, 1.0, 10.0))
    assert report.passed, report.violations
    assert report.min_choi_eigenvalue >= -1e-8
    assert report.trace_drift_max <= 1e-12


def test_correlated_qutrit_is_certified_cp_and_trace_preserving():
    # three non-commuting operators coupled by complex off-diagonal a_jk
    scenario = validate_scenario(_load(SCENARIO_DIR / "gksl_correlated_qutrit.json"),
                                 for_check_cp=True)
    assert scenario.system.dim == 3
    assert np.count_nonzero(scenario.system.kossakowski.imag) > 0
    report = check_cp(scenario, (0.1, 1.0, 10.0))
    assert report.passed, report.violations
    assert report.min_choi_eigenvalue >= -1e-8
    assert report.trace_drift_max <= 1e-12
