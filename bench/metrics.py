"""Every metric the benchmark prints, computed in one place.

:func:`end_to_end` gives the untraced run's metrics and
:func:`per_layer` the traced run's.  Both return the same names for
every workload -- a layer a workload never enters reads 0 -- and
``BENCHMARK.json`` declares exactly these names with their units.  A
per-layer metric's layer is its name up to its last dot (``check``
for ``check.steps``, ``check.clone`` for ``check.clone.self_s``);
``trace_overhead`` describes the traced run as a whole.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from tracing import LAYERS, OTHER

CHECK_PROTOCOLS = ("snooping", "directory", "linkedlist", "bus", "hierarchical")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class TraceData:
    """What a traced run recorded: counters, wall seconds per call by
    span name, and CPU seconds per layer."""

    counts: Counter = field(default_factory=Counter)
    durations: Dict[str, List[float]] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=dict)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def median_ms(self, name: str) -> float:
        return 1000.0 * median(self.durations.get(name, ()))


def end_to_end(
    setups: Sequence[float], slow_ms: float, fast_ms: float, peak_rss_kb: int
) -> Dict[str, float]:
    """Median set-up time, the workload's slow and fast path, and peak
    memory."""
    return {
        "setup_s": median(setups),
        "slow_ms": slow_ms,
        "fast_ms": fast_ms,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(
    trace: TraceData,
    latency: Sequence[float],
    values: Dict[str, float],
    seconds: float,
    overhead: float,
) -> Dict[str, float]:
    """Work, time and outcome of each layer during the traced rounds,
    which took ``seconds``; ``overhead`` is their traced / untraced
    wall time; ``latency`` holds every served job's seconds."""
    count = trace.counts
    sim_s = trace.total("core.experiment.run_simulation")
    grid_s = trace.total("models.grid.solve_grid")
    grid_points = count["grid.points_converged"] + count["grid.points_failed"]
    explore_s = {p: trace.total(f"check.explore.{p}") for p in CHECK_PROTOCOLS}
    metrics = {f"{layer}.self_s": trace.self_s.get(layer, 0.0) for layer in LAYERS + (OTHER,)}
    metrics.update(
        {
            "traces.refs": count["traces.refs"],
            "sim.kernel.events": count["sim.events"],
            "sim.kernel.relay_hops": count["sim.relay_hops"],
            "sim.kernel.cancelled_wakes": count["sim.cancelled_wakes"],
            "sim.kernel.host_ns_per_event": ratio(1e9 * sim_s, count["sim.events"]),
            "ring.scheduler.slot_util": ratio(count["ring.util_sum"], count["ring.runs"]),
            "ring.scheduler.slot_wait_ns": ratio(count["ring.wait_ns"], count["ring.grants"]),
            "memory.miss_rate_pct": 100.0 * ratio(count["memory.misses"], count["memory.refs"]),
            "proc.instructions": count["proc.instructions"],
            "proc.util": ratio(count["proc.util_sum"], count["proc.runs"]),
            "core.experiment.simulations": count["memo.misses"],
            "core.experiment.sim_s": sim_s,
            "core.experiment.memo_hits": count["memo.memo_hits"],
            "core.experiment.disk_hits": count["memo.disk_hits"],
            "core.experiment.instr_per_s": ratio(count["proc.instructions"], sim_s),
            "core.store.gets": count["store.gets"],
            "core.store.get_s": trace.total("core.store.get"),
            "core.store.puts": count["store.puts"],
            "core.store.put_s": trace.total("core.store.put"),
            "core.store.hit_ratio": ratio(count["store.hits"], count["store.gets"]),
            "core.store.lost_writes": count["store.lost_writes"],
            "models.solves": count["solver.solves"],
            "models.evals": count["solver.model_evals"],
            "models.evals_per_solve": ratio(count["solver.model_evals"], count["solver.solves"]),
            "models.bisection_steps": count["solver.bisection_steps"],
            "models.sweep_s": trace.total("models.sweep"),
            "models.lat_err_pct": values.get("models.lat_err_pct", 0.0),
            "models.grid.points": grid_points,
            "models.grid.evals": count["grid.grid_evals"],
            "models.grid.points_failed": count["grid.points_failed"],
            "models.grid.solve_s": grid_s,
            "models.grid.points_per_s": ratio(grid_points, grid_s),
            "analysis.render_s": trace.total("analysis.render"),
            "check.states": count["check.states"],
            "check.steps": count["check.steps"],
            "check.canonicalized": count["check.canonicalized"],
            "check.steps_per_s": ratio(count["check.steps"], sum(explore_s.values())),
            **{f"check.{p}_s": explore_s[p] for p in CHECK_PROTOCOLS},
            "serve.submit_ms_p50": trace.median_ms("serve.client.submit"),
            "serve.events_ms_p50": trace.median_ms("serve.client.wait"),
            "serve.result_ms_p50": trace.median_ms("serve.client.result"),
            "serve.latency_p99_ms": 1000.0 * percentile(latency, 0.99),
            "serve.latency_samples": len(latency),
            "serve.jobs_per_s": ratio(len(latency), seconds),
            "serve.executions": values.get("serve.executions", 0),
            "serve.coalesced": values.get("serve.coalesced", 0),
            "serve.simulated": values.get("serve.simulated", 0),
            "serve.cache_hits": values.get("serve.cache_hits", 0),
            "trace_overhead": overhead,
        }
    )
    return metrics
