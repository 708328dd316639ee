"""Quick checks of the benchmark's own declarations and attribution.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
import threading

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def printed(kind: str) -> set:
    if kind == "end_to_end":
        return set(metrics.end_to_end([], 0.0, 0.0, 0))
    return set(metrics.per_layer(metrics.TraceData(), [], {}, 1.0, 1.0))


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_metric_names_are_well_formed(kind):
    for name in printed(kind) | {metric["name"] for metric in SPEC[kind]}:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_printed_metrics_are_exactly_the_declared_ones(kind):
    declared = {metric["name"]: metric for metric in SPEC[kind]}
    assert printed(kind) == set(declared)
    keys = {"name", "unit", "better", "bound"} if kind == "end_to_end" else {"name", "unit", "better"}
    for metric in declared.values():
        assert set(metric) == keys, metric
        assert metric["better"] in ("higher", "lower"), metric


def test_bounds_cover_the_measured_spread():
    # Every end-to-end bound is at least three times the widest spread
    # baseline.json measured for its metric on any workload.  setup_s's
    # spread is not held to its bound; it has the largest bound, which
    # covers its median's drift between the two sets.  0.25 is the most
    # a bound may be.
    baseline = json.loads((BENCH / "baseline.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for name, bound in bounds.items():
        rows = [
            [one["workloads"][workload][name] for one in baseline["sets"]]
            for workload in baseline["sets"][0]["workloads"]
        ]
        if name == "setup_s":
            worst = max(abs(b["median"] / a["median"] - 1.0) for a, b in rows)
        else:
            worst = 3 * max(row["iqr_share"] for sets in rows for row in sets)
        assert worst <= bound <= 0.25, (name, worst, bound)


def test_every_per_layer_metric_names_its_layer():
    layers = set(tracing.LAYERS) | {tracing.OTHER}
    for name in printed("per_layer") - {"trace_overhead"}:
        assert name.rsplit(".", 1)[0] in layers, name


def test_every_module_maps_to_a_layer():
    source = ROOT / "src" / "repro"
    modules = sorted(source.rglob("*.py"))
    assert modules
    for path in modules:
        relative = path.relative_to(source).as_posix()
        assert tracing.module_layer(relative) != tracing.OTHER, relative
    assert tracing.module_layer("newpackage/module.py") == tracing.OTHER


def test_path_time_is_the_sum_of_item_means(tmp_path):
    workload = workloads.Workload(seed=1, scratch=tmp_path)
    workload.samples["slow"]["a"] = [0.1, 0.3]
    workload.samples["slow"]["b"] = [0.2]
    assert workload.path_ms("slow") == pytest.approx(1000.0 * (0.2 + 0.2))


def test_time_is_scaled_by_the_calibration_around_it():
    # The loops around the operation ran twice as long as on the
    # reference host, so it would have taken half as long there.
    loops = [2 * workloads.REFERENCE_CALIBRATION_S] * 3
    assert workloads.Workload.scaled(0.4, loops) == pytest.approx(0.2)


def test_timed_operations_are_bracketed_by_calibration(tmp_path):
    workload = workloads.Workload(seed=1, scratch=tmp_path)
    with workload.timed("slow", "a"):
        assert len(workload.calibration) >= 1
        loops_before = len(workload.calibration)
    assert len(workload.calibration) > loops_before
    assert len(workload.samples["slow"]["a"]) == 1


def test_checkpoints_split_an_operation_but_not_its_time(tmp_path, monkeypatch):
    # Every segment is scaled by its own loops; the loops run at a
    # checkpoint are not part of the operation.
    import time

    workload = workloads.Workload(seed=1, scratch=tmp_path)
    monkeypatch.setattr(workloads.Workload, "scaled", staticmethod(lambda seconds, loops: seconds))
    with workload.timed("slow", "a"):
        time.sleep(0.02)
        loops = len(workload.calibration)
        workload.checkpoint()
        assert len(workload.calibration) > loops
        time.sleep(0.02)
    workload.checkpoint()  # outside an operation: nothing to split
    (seconds,) = workload.samples["slow"]["a"]
    assert 0.04 <= seconds < 0.04 + sum(workload.calibration)


def test_calibration_keeps_its_share_of_the_run(tmp_path):
    import time

    workload = workloads.Workload(seed=1, scratch=tmp_path)
    start = time.perf_counter()
    for _ in range(3):
        with workload.timed("slow", "sleep"):
            time.sleep(0.05)
    workload.calibrate()
    elapsed = time.perf_counter() - start
    assert len(workload.samples["slow"]["sleep"]) == 3
    assert sum(workload.calibration) >= workloads.CALIBRATION_SHARE * elapsed * 0.9


REPRO = "/checkout/src/repro/"
HARNESS = ("/checkout/bench/workloads.py", "round")


@pytest.mark.parametrize(
    "stack, layer",
    [
        # stdlib and builtin frames charge the innermost repro caller
        ([("/usr/lib/python3.11/random.py", "random"), (REPRO + "traces/synthetic.py", "stream"), HARNESS], "traces"),
        ([("/usr/lib/python3.11/heapq.py", "heappush"), (REPRO + "sim/kernel.py", "run"), HARNESS], "sim.kernel"),
        # a recursive deepcopy under a harness clone is clone time...
        (
            [("/usr/lib/python3.11/copy.py", "deepcopy"), ("/usr/lib/python3.11/copy.py", "_deepcopy_dict")] * 3
            + [(REPRO + "check/state.py", "clone"), (REPRO + "check/explorer.py", "_expand_batch"), HARNESS],
            "check.clone",
        ),
        # ...while the rest of check/state.py is not
        ([(REPRO + "check/state.py", "snapshot"), (REPRO + "check/state.py", "clone")], "check.state"),
        # a repro function called back from the stdlib is its own layer
        ([(REPRO + "memory/cache.py", "__deepcopy__"), ("/usr/lib/python3.11/copy.py", "deepcopy"), (REPRO + "check/state.py", "clone")], "memory"),
        ([("/usr/lib/python3.11/threading.py", "wait"), HARNESS], tracing.OTHER),
        # the benchmark's calibration inside a repro call is no layer's
        (
            [("/usr/lib/python3.11/heapq.py", "heappush"), ("/checkout/bench/workloads.py", "_calibration_loop")]
            + [(REPRO + "core/experiment.py", "run_simulation_cached"), HARNESS],
            tracing.OTHER,
        ),
    ],
)
def test_stack_time_goes_to_the_innermost_repro_function(stack, layer):
    assert tracing.stack_layer(stack, REPRO, "/checkout/bench/") == layer


def _spin(seconds: float) -> None:
    import time

    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_sampler_charges_the_cpu_time_of_every_thread():
    sampler = tracing.Sampler(repro_dir=REPRO)
    with sampler:
        worker = threading.Thread(target=_spin, args=(0.2,))
        worker.start()
        worker.join(timeout=10)
        _spin(0.1)
    assert not worker.is_alive()
    assert set(sampler.seconds) == {tracing.OTHER}
    assert 0.25 <= sampler.seconds[tracing.OTHER] <= 0.5


def test_sampler_charges_bursts_to_the_layer_that_ran_them():
    # A thread that works in bursts of a few milliseconds, like the
    # daemon's, is mostly sampled while it waits between them; the
    # waits must not take the blame.
    namespace = {}
    exec(compile(BURST, REPRO + "models/burst.py", "exec"), namespace)
    pause = threading.Event()
    sampler = tracing.Sampler(repro_dir=REPRO)
    with sampler:
        worker = threading.Thread(target=namespace["bursts"], args=(pause, 50))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    total = sum(sampler.seconds.values())
    assert total >= 0.1
    assert sampler.seconds["models"] >= 0.8 * total


BURST = """
import time

def bursts(pause, count):
    for _ in range(count):
        end = time.thread_time() + 0.003
        while time.thread_time() < end:
            pass
        pause.wait(0.002)
"""
