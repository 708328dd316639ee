"""Run the end-to-end benchmark; see README.md.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]

Each workload runs in a fresh subprocess against ``src/`` of the
checkout this file sits in.  The run prints every metric with its unit,
then, as its last line, one JSON object::

    {"correct": true, "attempted": 37, "failed": 0,
     "metrics": {"slow_ms": {"value": 3812.7, "unit": "ms"}, ...}}

Untraced runs report the end-to-end metrics of ``BENCHMARK.json``,
traced runs (``--trace``) its per-layer metrics.  The exit status is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
#: Scratch space (temp result stores, daemon caches) and trace output;
#: both inside the checkout, both ignored by git.
SCRATCH = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: A workload process that outlives this is killed and the run fails.
CHILD_TIMEOUT_S = 170


def run_rounds(workload, seconds: float = 0.0, rounds: int = 0):
    """Rounds until ``seconds`` have passed (at least one), or exactly
    ``rounds`` of them; returns (rounds run, wall seconds)."""
    start = time.perf_counter()
    index = 0
    while True:
        workload.round(index)
        index += 1
        elapsed = time.perf_counter() - start
        if (index >= rounds) if rounds else (elapsed >= seconds):
            return index, elapsed


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload, in this process: set up, time the rounds, check."""
    import metrics
    from workloads import WORKLOADS

    scratch = SCRATCH / f"{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, scratch)
    daemon_prefix = TRACE_DIR / f"{name}-seed{seed}-daemon"
    try:
        setups = []
        for _ in range(SETUPS):
            before = workload.calibrate()
            setup_s = workload.setup()
            setups.append(workload.scaled(setup_s, before + workload.calibrate()))
        if not trace:
            workload.start_phase(None)
            rounds, wall = run_rounds(workload, seconds=seconds)
            workload.end_phase()
        else:
            from tracing import Tracer

            workload.start_phase(None)
            rounds, untraced = run_rounds(workload, seconds=seconds / 2)
            workload.end_phase()
            workload.samples.clear()
            for stale in TRACE_DIR.glob(f"{daemon_prefix.name}.*"):
                stale.unlink()
            tracer = Tracer(run_id=f"{name}-seed{seed}")
            workload.start_phase(daemon_prefix)
            with tracer:
                _, wall = run_rounds(workload, rounds=rounds)
            workload.end_phase()
        # Set-up and the timed window only: the output checks that follow
        # do work of their own (serve re-runs every answer in-process).
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workload.peak_rss_kb()
        workload.finish()
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        values = metrics.per_layer(
            _trace_data(tracer, daemon_prefix),
            [s for times in workload.samples["latency"].values() for s in times],
            workload.values,
            wall,
            wall / untraced,
        )
        tracer.write(TRACE_DIR / f"{name}-seed{seed}")
    else:
        values = metrics.end_to_end(
            setups,
            workload.path_ms("slow"),
            workload.path_ms("fast"),
            peak_kb,
        )
    return {
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "time_scale": workload.time_scale(),
        "correct": not workload.errors,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors[:20],
        "metrics": values,
    }


def _trace_data(tracer, daemon_prefix: pathlib.Path):
    """The bench process's trace merged with the daemon's, if any."""
    import metrics

    data = metrics.TraceData(
        counts=tracer.counts,
        durations=dict(tracer.durations()),
        self_s=Counter(tracer.self_s),
    )
    daemon = pathlib.Path(f"{daemon_prefix}.trace.json")
    if daemon.exists():
        payload = json.loads(daemon.read_text())
        data.counts.update(payload["counts"])
        data.self_s.update(payload["self_s"])
        for span, seconds in payload["durations"].items():
            data.durations[span] = data.durations.get(span, []) + seconds
    return data


# ----------------------------------------------------------------------
def child_main(argv) -> int:
    """Entry of the workload subprocess: writes its result as JSON."""
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("result")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    args = parser.parse_args(argv)
    from workloads import BENCH_CPU

    # One CPU for the workload process and its set-up interpreters: the
    # calibration loop then shares a core, and its other tenants, with
    # the work it calibrates.  The serve daemon is placed apart.
    os.sched_setaffinity(0, {BENCH_CPU})
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    result_path = SCRATCH / f"{name}-{os.getpid()}.result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    # Keep every store, temp file and cache inside the checkout.
    env["TMPDIR"] = str(SCRATCH)
    env["REPRO_CACHE_DIR"] = str(SCRATCH / "default-store")
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--child",
        name,
        str(result_path),
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
    ]
    # A session of its own, so a timeout also stops the serve daemon.
    child = subprocess.Popen(command, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        code = f"killed after {CHILD_TIMEOUT_S} s"
    try:
        if code == 0:
            return json.loads(result_path.read_text())
        return {
            "workload": name,
            "seed": seed,
            "correct": False,
            "attempted": 1,
            "failed": 1,
            "errors": [f"workload process exited with {code}"],
            "metrics": {},
        }
    finally:
        result_path.unlink(missing_ok=True)
        shutil.rmtree(SCRATCH / "default-store", ignore_errors=True)


def report(result: dict, units: dict) -> None:
    """Human-readable lines for one workload's result."""
    status = "ok" if result["correct"] else "WRONG OUTPUT"
    print(
        f"# {result['workload']} seed={result['seed']} rounds={result.get('rounds')} "
        f"time_scale={result.get('time_scale', 0.0):.3f} "
        f"attempted={result['attempted']} failed={result['failed']}: {status}"
    )
    for error in result["errors"]:
        print(f"#   {error}")
    for metric, value in result["metrics"].items():
        print(f"{result['workload']:>7}  {metric:<32} {value:>16.6g} {units.get(metric, '?')}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child_main(argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="measure the per-layer metrics (traced) instead of the end-to-end ones",
    )
    parser.add_argument("--out", help="also write the full results as JSON here")
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {SOURCE / 'repro'}", file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    selected = names if args.workload == "all" else [args.workload]
    results = [run_child(name, args.seed, args.seconds, bool(args.trace)) for name in selected]
    for result in results:
        if result["metrics"] and set(result["metrics"]) != set(units):
            result["correct"] = False
            result["errors"].append(
                f"printed metrics differ from BENCHMARK.json {kind}: "
                f"{sorted(set(result['metrics']) ^ set(units))}"
            )
        report(result, units)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(results, indent=1))

    prefix = len(results) > 1
    summary = {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {
            (f"{result['workload']}.{metric}" if prefix else metric): {
                "value": value,
                "unit": units.get(metric, "?"),
            }
            for result in results
            for metric, value in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
