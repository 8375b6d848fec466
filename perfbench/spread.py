"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on one workload and prints, for each
end-to-end metric, the median over the runs and the interquartile range
as a share of that median, next to the metric's bound::

    python3 perfbench/spread.py --workload gksl_dense --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({time.perf_counter() - t0:.0f} s): "
              f"failed {result['failed']}/{result['attempted']} {line}", flush=True)

    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:16s} median {med:.4g} {m['unit']:3s} spread {(q3 - q1) / med:.3f}"
              f" (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
