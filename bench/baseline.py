"""Measure the benchmark's own spread and record it in baseline.json.

    python3 bench/baseline.py

Runs every workload :data:`RUNS` times per set, each run with a new seed
(workloads interleaved, so slow drift of the host touches all of them
alike), and records per set and metric the median and the distance
between the first and third quartile as a share of the median -- the
spread a metric's bound in ``BENCHMARK.json`` must cover.  It prints
one row per workload and metric, and keeps the pinned paper digest.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"
#: Sets of runs, runs per set (one seed each), and the first set's first
#: seed; the seeds count up from it.
SETS = 2
RUNS = 10
FIRST_SEED = 101


def run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "iqr_share": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    sets = []
    for index in range(SETS):
        seeds = [FIRST_SEED + index * RUNS + i for i in range(RUNS)]
        values = {workload: {} for workload in workloads}
        for seed in seeds:
            for workload in workloads:
                for name, value in run(workload, seed).items():
                    values[workload].setdefault(name, []).append(value)
                print(f"set {index + 1} seed {seed} {workload} done", file=sys.stderr, flush=True)
        sets.append(
            {
                "seeds": seeds,
                "workloads": {
                    workload: {name: summary(v) for name, v in metrics.items()}
                    for workload, metrics in values.items()
                },
            }
        )

    print(f"{'workload':<8} {'metric':<12} {'bound':>6}  " + "  ".join(
        f"{'median':>10} {'spread':>7}" for _ in sets
    ) + "  drift")
    for workload in workloads:
        for name, bound in bounds.items():
            rows = [one["workloads"][workload][name] for one in sets]
            drift = rows[-1]["median"] / rows[0]["median"] - 1.0
            print(
                f"{workload:<8} {name:<12} {bound:>6.2f}  "
                + "  ".join(f"{row['median']:>10.4g} {row['iqr_share']:>7.3f}" for row in rows)
                + f"  {drift:+.3f}"
            )

    baseline = json.loads(BASELINE.read_text())
    baseline.update(
        {
            "run_seconds": spec["run_seconds"],
            "sets": sets,
        }
    )
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
