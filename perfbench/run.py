"""Benchmark for ``decohere``: fresh-process CLI and in-process solve times.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload dephasing_bath --seed 1 --seconds 38 --trace 0

The workload's scenario files are generated from ``--seed`` under
``.bench_build/perfbench/``.  After timing a few fresh-process imports of
``decohere.cli`` (``setup_s``), a single closed-loop client alternates,
until ``--seconds`` are used up, between

* a CLI pass: every ``decohere`` command of the workload, each in a fresh
  Python process (so import cost counts), outputs checked by the oracles;
* a solve pass: the same scenarios through ``run_scenario`` and
  ``check_cp`` in this process, after one untimed warm-up pass.

A pass-level metric is the sum over its commands or scenarios of each
one's median time across passes.

``--trace 1`` instead makes one CLI pass and two traced in-process passes
and reports per-layer metrics (see ``tracing.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with quartiles, sample counts
and the environment, goes to ``result.json`` beside the scenarios.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import scenarios  # noqa: E402

# Fresh-process imports timed for setup_s; the median is reported.
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
CHECK_CP_TIMES = (0.1, 1.0, 10.0)  # the CLI's default --times
# Mirrors the installed ``decohere`` console script.
ENTRY_POINT = "import sys; from decohere.cli import main; sys.exit(main())"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cli_total_s": "s",
    "cli_run_s": "s",
    "cli_check_cp_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself, not the program under test, went wrong."""


# ----------------------------------------------------------------------
# Fresh-process CLI
# ----------------------------------------------------------------------


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stderr: str


def spawn(argv: list[str], cwd: Path, env: dict, log_stem: Path) -> ChildResult:
    """Run one child to completion; its rusage comes from ``os.wait4``."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        wall,
        usage.ru_maxrss / 1024.0,
        usage.ru_utime + usage.ru_stime,
        Path(f"{log_stem}.err").read_text(errors="replace"),
    )


@dataclass
class CliPass:
    results: list[ChildResult]
    problems: list[list[str]]  # per command
    wrong_output: bool

    def time_of(self, commands, kind: str | None = None) -> float:
        return sum(r.wall_s for c, r in zip(commands, self.results)
                   if kind is None or c.kind == kind)


class Bench:
    """One workload's generated scenarios, commands and oracle references."""

    def __init__(self, workload: str, seed: int, root: Path, workdir: Path):
        self.workdir = workdir
        self.logs = workdir / "logs"
        self.refs = workdir / "ref"
        self.logs.mkdir(parents=True)
        self.refs.mkdir()
        self.commands = scenarios.generate(workload, seed, workdir, root)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.ref_csv: dict[str, bytes] = {}
        self.ref_problems: dict[str, list[str]] = {}
        self.passes = 0

    # -- CLI -------------------------------------------------------------

    def setup_samples(self, n: int) -> list[float]:
        argv = [sys.executable, "-c", "import decohere.cli"]
        out = []
        for i in range(n):
            r = spawn(argv, self.workdir, self.env, self.logs / f"setup{i}")
            if r.exit_code != 0:
                raise HarnessError(f"import decohere.cli failed: {r.stderr.strip()}")
            out.append(r.wall_s)
        return out

    def cli_pass(self) -> CliPass:
        """Every command once, each in a fresh process.  Outputs are checked
        right after each command, before a later one can overwrite them."""
        self.passes += 1
        results, problems, wrong = [], [], False
        for i, cmd in enumerate(self.commands):
            argv = [sys.executable, "-c", ENTRY_POINT, *cmd.argv()]
            res = spawn(argv, self.workdir, self.env,
                        self.logs / f"p{self.passes}_{i}_{cmd.kind}")
            found, bad_output = self.check(cmd, res)
            results.append(res)
            problems.append(found)
            wrong |= bad_output
        return CliPass(results, problems, wrong)

    def check(self, cmd: scenarios.Command, res: ChildResult) -> tuple[list[str], bool]:
        """Oracle checks on one command's outputs.  Returns the problems and
        whether any of them is a wrong output (as opposed to a command that
        exited with an unexpected code)."""
        if res.exit_code != cmd.expected_exit:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            return [f"exit {res.exit_code}, expected {cmd.expected_exit}: {tail[0]}"], False
        if cmd.expected_exit != 0:
            if not res.stderr.startswith("error: "):
                return ["usage error without an 'error:' message"], True
            return [], False
        doc = json.loads(cmd.scenario.path.read_text())
        outputs = {doc["output"]["csv_path"]: doc["output"]["report_path"]}
        if cmd.kind == "sweep":
            outputs = {csv: v["output"]["report_path"] for csv, v in cmd.sweep_variants.items()}
            manifest = self.workdir / scenarios.suffixed(doc["output"]["report_path"],
                                                         "sweep_manifest")
            runs = json.loads(manifest.read_text())["runs"]
            if sorted(r["csv_path"] for r in runs) != sorted(outputs):
                return ["sweep manifest does not list the expected runs"], True
        problems = []
        for csv, report in outputs.items():
            if not json.loads((self.workdir / report).read_text())["passed"]:
                problems.append(f"{report}: report.passed is false")
            if cmd.kind == "check-cp":
                continue
            if (self.workdir / csv).read_bytes() != self.ref_csv[csv]:
                problems.append(f"{csv} differs from write_csv of an in-process run")
            problems += self.ref_problems[csv]
        return problems, bool(problems)

    # -- in-process --------------------------------------------------------

    def operations(self) -> list[tuple[str, str, bytes, dict]]:
        """(kind, csv path, scenario bytes, scenario document) for every
        in-process call."""
        ops = []
        for cmd in self.commands:
            if cmd.kind == "sweep":
                ops += [("run", csv, json.dumps(doc).encode(), doc)
                        for csv, doc in cmd.sweep_variants.items()]
                continue
            data = cmd.scenario.path.read_bytes()
            doc = json.loads(data)
            ops.append(("run" if cmd.kind == "run" else "check_cp",
                        doc["output"]["csv_path"], data, doc))
        return ops

    def solve_pass(self, ops, cli) -> tuple[list[float], list]:
        """Parse, run and certify every scenario in this process; returns
        the wall time of each operation and the run results.  Warnings go
        to a buffer, as the CLI children's stderr goes to a file."""
        from decohere.errors import DecohereError

        walls, results = [], []
        with contextlib.redirect_stderr(io.StringIO()):
            for kind, csv, data, doc in ops:
                t0 = time.perf_counter()
                try:
                    s = cli.parse_scenario(data)
                    if kind == "run":
                        results.append((csv, doc, cli.run_scenario(s)))
                    else:
                        cli.check_cp(s, CHECK_CP_TIMES)
                except DecohereError:
                    pass  # same outcome as the CLI's exit code; checked there
                walls.append(time.perf_counter() - t0)
        return walls, results

    def record_refs(self, results, cli) -> int:
        """Write reference CSVs from in-process results and run the
        closed-form oracles on them; returns the bytes written."""
        total = 0
        for csv, doc, (header, rows, report) in results:
            path = self.refs / Path(csv).name
            cli.write_csv(path, header, rows)
            cli.write_report(path.with_suffix(".report.json"), report)
            data = path.read_bytes()
            total += len(data)
            self.ref_csv[csv] = data
            self.ref_problems[csv] = oracle.check_csv(doc, data)
        return total


# ----------------------------------------------------------------------
# Import-time breakdown
# ----------------------------------------------------------------------

IMPORT_MODULES = {
    "import.decohere_cli_s": "decohere.cli",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_linalg_s": "scipy.linalg",
}
_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_breakdown(bench: Bench, n: int) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``, median of n."""
    argv = [sys.executable, "-X", "importtime", "-c", "import decohere.cli"]
    samples: dict[str, list[float]] = {k: [] for k in IMPORT_MODULES}
    for i in range(n):
        r = spawn(argv, bench.workdir, bench.env, bench.logs / f"importtime{i}")
        cumulative = {m.group(3): int(m.group(2)) * 1e-6
                      for m in _IMPORTTIME.finditer(r.stderr)}
        for key, module in IMPORT_MODULES.items():
            if module not in cumulative:
                raise HarnessError(f"-X importtime did not report {module}")
            samples[key].append(cumulative[module])
    return {k: statistics.median(v) for k, v in samples.items()}


# ----------------------------------------------------------------------
# Environment and statistics
# ----------------------------------------------------------------------


def openblas_threads() -> int | None:
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "git_commit": git_commit(root),
    }


def typical(walls_by_pass: list[list[float]], keep=lambda i: True) -> float:
    """Sum over items of each item's median wall time across passes: one
    slow stretch of a noisy machine moves a median less than a total."""
    return sum(statistics.median(col) for i, col in enumerate(zip(*walls_by_pass)) if keep(i))


def spread(values: list[float]) -> dict:
    """Quartiles and count of per-pass samples, reported beside a metric."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------


def measure(bench: Bench, seconds: float, cli) -> tuple[dict, dict, list[CliPass]]:
    """Untraced end-to-end measurement: set-up samples, then rounds of one
    CLI pass and one solve pass, then solve passes for what is left of the
    window.  After the first round, no pass starts that is not expected to
    end within the window."""
    setup = bench.setup_samples(SETUP_SAMPLES)

    deadline = time.perf_counter() + seconds
    ops = bench.operations()
    _, warm = bench.solve_pass(ops, cli)
    bench.record_refs(warm, cli)

    passes = [bench.cli_pass()]
    solves = [bench.solve_pass(ops, cli)[0]]
    round_wall = passes[0].time_of(bench.commands) + sum(solves[0])
    while time.perf_counter() + round_wall <= deadline:
        passes.append(bench.cli_pass())
        solves.append(bench.solve_pass(ops, cli)[0])
    while time.perf_counter() + sum(solves[-1]) <= deadline:
        solves.append(bench.solve_pass(ops, cli)[0])

    kinds = [c.kind for c in bench.commands]
    cli_walls = [[r.wall_s for r in p.results] for p in passes]
    rss = [max(r.rss_mb for r in p.results) for p in passes]
    values = {
        "setup_s": statistics.median(setup),
        "cli_total_s": typical(cli_walls),
        "cli_run_s": typical(cli_walls, lambda i: kinds[i] == "run"),
        "cli_check_cp_s": typical(cli_walls, lambda i: kinds[i] == "check-cp"),
        "solve_s": typical(solves),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {
        "setup_s": setup,
        "cli_total_s": [p.time_of(bench.commands) for p in passes],
        "cli_run_s": [p.time_of(bench.commands, "run") for p in passes],
        "cli_check_cp_s": [p.time_of(bench.commands, "check-cp") for p in passes],
        "solve_s": [sum(w) for w in solves],
        "peak_rss_mb": rss,
    }
    return values, samples, passes


def traced(bench: Bench, cli) -> tuple[dict, list[CliPass]]:
    """One CLI pass, then two untraced and two traced in-process passes
    after a warm-up; the tracing overhead compares their medians."""
    from tracing import Tracer

    metrics = {k: (v, "s") for k, v in import_breakdown(bench, IMPORTTIME_SAMPLES).items()}

    ops = bench.operations()
    _, warm = bench.solve_pass(ops, cli)
    bench.record_refs(warm, cli)

    p = bench.cli_pass()
    wall = p.time_of(bench.commands)
    cpu = sum(r.cpu_s for r in p.results)
    metrics["cli.stderr_lines"] = (sum(r.stderr.count("\n") for r in p.results), "count")
    metrics["process.cpu_s"] = (cpu, "s")
    metrics["process.cpu_per_wall"] = (cpu / wall, "1")

    untraced = [sum(bench.solve_pass(ops, cli)[0]) for _ in range(2)]
    points = sum(doc["time"]["n_points"] for _, doc, _ in warm if doc["model"] == "dephasing")

    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            walls, results = bench.solve_pass(ops, cli)
            csv_bytes = bench.record_refs(results, cli)
        runs.append((tracer, sum(walls)))
    first = runs[0][0]
    a, b = first.counts(), runs[1][0].counts()
    if a != b:
        diff = {k: (v, b.get(k)) for k, v in a.items() if b.get(k) != v}
        raise HarnessError(f"two traced runs of one seed disagree on counts: {diff}")
    first.dump(bench.workdir / "spans.tsv")

    metrics.update(first.metrics(points))
    metrics["cli.csv_bytes"] = (csv_bytes, "B")
    metrics["trace.overhead_s"] = (
        statistics.median(w for _, w in runs) - statistics.median(untraced), "s")
    return metrics, [p]


def failures(passes: list[CliPass]) -> tuple[int, int, bool]:
    attempted = sum(len(p.results) for p in passes)
    failed = sum(1 for p in passes for found in p.problems if found)
    return attempted, failed, not any(p.wrong_output for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    for needed in (src / "decohere" / "cli.py",
                   root / "scenarios" / "invalid_kossakowski.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from a decohere checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(src))
    from decohere import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"perfbench: decohere imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workdir = root / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "load_start": os.getloadavg()}
    record["environment"] = environment(root)
    bench = Bench(args.workload, args.seed, root, workdir)
    try:
        if args.trace:
            metrics, passes = traced(bench, cli)
        else:
            values, samples, passes = measure(bench, args.seconds, cli)
            record["samples"] = samples
            metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    except HarnessError as exc:
        print(f"perfbench: harness error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, correct = failures(passes)
    if args.trace:
        metrics["failed_frac"] = (failed / attempted, "1")
    record["load_end"] = os.getloadavg()
    record["commands"] = [
        {"argv": cmd.argv(), "expected_exit": cmd.expected_exit,
         "exit": [p.results[i].exit_code for p in passes],
         "wall_s": [p.results[i].wall_s for p in passes],
         "problems": sorted({x for p in passes for x in p.problems[i]})}
        for i, cmd in enumerate(bench.commands)
    ]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} openblas_threads={env['openblas_threads']} "
          f"load {record['load_start'][0]:.2f} -> {record['load_end'][0]:.2f} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"commit {env['git_commit']}")
    for c in record["commands"]:
        if c["problems"]:
            print(f"  FAILED {' '.join(c['argv'][:2])}: {'; '.join(c['problems'])}")
    if not args.trace:
        print(f"  failed_frac = {failed / attempted:.4g} ({failed} of {attempted} commands)")
    for name, (value, unit) in metrics.items():
        detail = ""
        if not args.trace:
            st = spread(record["samples"][name])
            detail = f"  (per pass: q1 {st['q1']:.4g}, q3 {st['q3']:.4g}, n={st['n']})"
        print(f"  {name} = {value:.6g} {unit}{detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
