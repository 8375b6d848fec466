"""Tests of the benchmark itself: emitted metrics, predicted bypasses,
oracles and the refusal to run outside a checkout.

Run from the repository root with ``python -m pytest perfbench``; each
workload is run once per mode, so this takes a few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _results(trace: int) -> dict:
    out = {}
    for workload in WORKLOADS:
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        out[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.fixture(scope="module")
def end_to_end():
    return _results(0)


@pytest.fixture(scope="module")
def traced():
    return _results(1)


@pytest.mark.parametrize("mode", ["end_to_end", "traced"])
def test_every_declared_metric_is_emitted_with_its_unit(mode, request):
    by_workload = request.getfixturevalue(mode)
    declared = SPEC["per_layer" if mode == "traced" else "end_to_end"]
    for workload, result in by_workload.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, workload
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared}, workload
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], (workload, m["name"])
            assert math.isfinite(got["value"])
            if mode == "end_to_end":
                assert got["value"] > 0, (workload, m["name"])


def test_predicted_bypasses(traced):
    m = {w: {k: v["value"] for k, v in r["metrics"].items()} for w, r in traced.items()}
    assert m["gksl_dense"]["quadrature.calls"] == 0
    assert m["collisional_grid"]["quadrature.calls"] == 0
    assert m["collisional_grid"]["linalg.expm_calls"] == 0
    assert m["dephasing_bath"]["quadrature.calls"] > 0
    assert m["gksl_dense"]["linalg.expm_calls"] > 0
    # Gamma is computed twice per dephasing grid point today.
    assert m["dephasing_bath"]["dephasing.Gamma_calls_per_point"] >= 2
    assert m["dephasing_bath"]["dephasing.negative_rate_warnings"] > 0


def test_only_gksl_dense_has_failing_commands(end_to_end):
    # The damped qubit's check-cp at t = 10 is a valid CP map that the
    # matrix_exp input-norm guard refuses today; nothing else may fail.
    assert end_to_end["dephasing_bath"]["failed"] == 0
    assert end_to_end["collisional_grid"]["failed"] == 0


def test_unexpected_exit_counts_as_failed_not_as_wrong_output(tmp_path):
    import run

    bench = run.Bench("gksl_dense", SEED, ROOT, tmp_path / "work")
    damped_check_cp = next(c for c in bench.commands
                           if c.kind == "check-cp" and c.scenario.name == "damped_qubit")
    child = run.ChildResult(1, 1.0, 90.0, 1.0, "error: matrix 1-norm exceeds bound\n")
    problems, wrong_output = bench.check(damped_check_cp, child)
    assert problems and not wrong_output
    passes = [run.CliPass([child], [problems], wrong_output)]
    assert run.failures(passes) == (1, 1, True)


def test_closed_forms_match_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    from decohere import BathSpec, DephasingModel, SpectralDensity

    for s in (0.5, 1.0, 2.0, 3.0):
        model = DephasingModel(0.0, SpectralDensity(0.8, s, 1.3), BathSpec(math.inf))
        for t in (0.1, 1.0, 4.0):
            assert model.dephasing_rate(t) == pytest.approx(
                oracle.ohmic_t0_gamma(0.8, s, 1.3, t), abs=1e-9)
            assert model.decoherence_function(t) == pytest.approx(
                oracle.ohmic_t0_decoherence(0.8, s, 1.3, t), abs=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
