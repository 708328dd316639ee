"""Microbenchmark suites and the perf-regression baseline format.

Three suites cover the hot paths of the reproduction:

* ``kernel`` -- trace-driven simulations (the event kernel, slot
  scheduler and coherence engines), including the saturated
  large-machine configuration where the scheduler fast path matters
  most;
* ``models`` -- analytical-model fixed-point sweeps (the accelerated
  solver of :mod:`repro.models.base`), plus -- when NumPy is
  available -- the vectorized grid engine (``grid.solve``, gated on
  its ``grid_evals`` counter);
* ``check`` -- symmetry-reduced exhaustive state exploration
  (``explore.bfs.*``), gated on canonical state and transition
  counts: those are exact properties of the protocol's reachable
  state graph under the reduction, so *any* growth means the search
  (or the protocol) changed, not the machine.

Every workload reports wall-clock seconds *and* deterministic work
counters (kernel events processed, trace records generated, model
evaluations).  Only the counters are gated in CI: they are exact and
machine-independent, whereas wall time on shared runners is noise.
A >20% growth in a gated counter means the code now does materially
more work for the same result -- precisely the regression the fast
paths exist to prevent.  Wall time is still recorded in the baselines
for local before/after comparisons.

Baselines live at the repository root as ``BENCH_kernel.json``,
``BENCH_models.json`` and ``BENCH_check.json``; regenerate them with
``repro bench --quick
--baseline`` after a deliberate perf-relevant change and commit the
diff.  See ``docs/PERFORMANCE.md`` for the schema.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import (
    cache_counters,
    clear_simulation_cache,
    last_kernel_counters,
    run_simulation,
)
from repro.core.results import SimulationResult
from repro.models.base import SOLVER_STATS, reset_solver_stats

__all__ = [
    "BenchReport",
    "WorkloadResult",
    "check_against_baseline",
    "load_baseline",
    "run_suite",
    "suite_names",
    "write_baseline",
    "BASELINE_SCHEMA",
    "DEFAULT_TOLERANCE",
]

BASELINE_SCHEMA = 1
#: Gated counters may grow by at most this fraction over the baseline.
DEFAULT_TOLERANCE = 0.20

#: Benchmark/size used to extract model inputs for the models suite.
_EXTRACTION_REFS = 1_200
_EXTRACTION_PROCESSORS = 16


@dataclass(frozen=True)
class WorkloadResult:
    """One workload's measurement: wall time plus work counters."""

    name: str
    wall_s: float
    counters: Dict[str, int]
    #: Counter names gated against the baseline (the rest are
    #: informational).
    gate: Tuple[str, ...]


@dataclass
class BenchReport:
    """A full suite run, serialisable as a baseline."""

    suite: str
    mode: str  # "quick" or "full"
    workloads: List[WorkloadResult] = field(default_factory=list)

    def to_jsonable(self) -> Dict:
        return {
            "schema": BASELINE_SCHEMA,
            "suite": self.suite,
            "mode": self.mode,
            "tolerance": DEFAULT_TOLERANCE,
            "workloads": {
                w.name: {
                    "wall_s": round(w.wall_s, 4),
                    "counters": dict(sorted(w.counters.items())),
                    "gate": list(w.gate),
                }
                for w in self.workloads
            },
        }

    def render(self) -> str:
        lines = [f"suite {self.suite} ({self.mode}):"]
        for w in self.workloads:
            gated = ", ".join(
                f"{name}={w.counters[name]:,}" for name in w.gate
            )
            lines.append(f"  {w.name}: {w.wall_s:.3f}s  [{gated}]")
        total = sum(w.wall_s for w in self.workloads)
        lines.append(f"  total: {total:.3f}s")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Kernel suite: trace-driven simulation workloads
# ----------------------------------------------------------------------
def _simulate(
    benchmark: str, processors: int, protocol: Protocol, refs: int
) -> Dict[str, int]:
    result = run_simulation(
        benchmark,
        num_processors=processors,
        protocol=protocol,
        data_refs=refs,
    )
    counters = last_kernel_counters()
    counters["instructions"] = result.instructions
    return counters


def _kernel_workloads(quick: bool):
    scale = 1 if quick else 4
    plans = [
        ("simulate.mp3d.snooping.16p", 16, Protocol.SNOOPING, 1_500 * scale),
        ("simulate.mp3d.directory.16p", 16, Protocol.DIRECTORY, 1_500 * scale),
        # The paper's scalability regime: a saturated large snooping
        # ring, where per-revolution polling used to dominate.
        ("simulate.mp3d.snooping.64p", 64, Protocol.SNOOPING, 800 * scale),
        # Beyond the paper's largest system: rings where the kernel's
        # per-event cost (one generator resumption per wakeup) is the
        # dominant simulator cost.  Fewer refs per processor keep
        # total work bounded; the rings are still fully contended.
        ("simulate.mp3d.snooping.128p", 128, Protocol.SNOOPING, 300 * scale),
        (
            "simulate.mp3d.directory.256p",
            256,
            Protocol.DIRECTORY,
            150 * scale,
        ),
    ]
    for name, processors, protocol, refs in plans:
        yield name, (
            lambda p=processors, proto=protocol, r=refs: _simulate(
                "mp3d", p, proto, r
            )
        )

    def sweep_mixed() -> Dict[str, int]:
        # The three protocols replay one trace set, generated once.
        generated = cache_counters()["trace_refs_generated"]
        totals: Dict[str, int] = {}
        for protocol in (
            Protocol.SNOOPING,
            Protocol.DIRECTORY,
            Protocol.LINKED_LIST,
        ):
            for key, value in _simulate(
                "mp3d", 8, protocol, 600 * scale
            ).items():
                totals[key] = totals.get(key, 0) + value
        totals["trace_refs_generated"] = (
            cache_counters()["trace_refs_generated"] - generated
        )
        return totals

    yield "sweep.mp3d.mixed.8p", sweep_mixed, (
        "events_processed",
        "trace_refs_generated",
    )


# ----------------------------------------------------------------------
# Models suite: analytical fixed-point sweeps
# ----------------------------------------------------------------------
_EXTRACTION_CACHE: Dict[Protocol, SimulationResult] = {}


def _extraction(protocol: Protocol) -> SimulationResult:
    """Model inputs for the sweeps (excluded from workload timing)."""
    result = _EXTRACTION_CACHE.get(protocol)
    if result is None:
        result = run_simulation(
            "mp3d",
            num_processors=_EXTRACTION_PROCESSORS,
            protocol=protocol,
            data_refs=_EXTRACTION_REFS,
        )
        _EXTRACTION_CACHE[protocol] = result
    return result


def _solver_counters(body: Callable[[], None]) -> Dict[str, int]:
    reset_solver_stats()
    body()
    return dict(SOLVER_STATS)


def _models_workloads(quick: bool):
    from repro.models.bus import BusModel
    from repro.models.matching import matching_bus_clock_ns
    from repro.models.ring_directory import DirectoryRingModel
    from repro.models.ring_linkedlist import LinkedListRingModel
    from repro.models.ring_snooping import SnoopingRingModel

    rounds = 3 if quick else 12
    snoop = _extraction(Protocol.SNOOPING)
    directory = _extraction(Protocol.DIRECTORY)
    plans = [
        ("sweep.snooping", SnoopingRingModel, Protocol.SNOOPING, snoop),
        ("sweep.directory", DirectoryRingModel, Protocol.DIRECTORY, directory),
        (
            "sweep.linkedlist",
            LinkedListRingModel,
            Protocol.LINKED_LIST,
            directory,
        ),
        ("sweep.bus", BusModel, Protocol.BUS, snoop),
    ]
    for name, model_type, protocol, extraction in plans:
        config = SystemConfig(
            num_processors=_EXTRACTION_PROCESSORS, protocol=protocol
        )

        def run(
            model_type=model_type, config=config, extraction=extraction
        ) -> Dict[str, int]:
            def body() -> None:
                for _ in range(rounds):
                    model_type(config, extraction.inputs).sweep()

            return _solver_counters(body)

        yield name, run

    def matching() -> Dict[str, int]:
        config = SystemConfig(num_processors=_EXTRACTION_PROCESSORS)
        cycles = (4_000,) if quick else (2_000, 4_000, 10_000)

        def body() -> None:
            for cycle_ps in cycles:
                matching_bus_clock_ns(config, snoop.inputs, cycle_ps)

        return _solver_counters(body)

    yield "matching.table4", matching

    from repro.models import grid as grid_engine

    if grid_engine.grid_available():
        # The vectorized engine's counters are deterministic too: the
        # same grid always takes the same number of vectorized
        # residual evaluations (each counted once however many points
        # it covers), so eval growth gates algorithmic regressions in
        # the masked solver exactly like model_evals does for the
        # scalar one.
        def grid_solve() -> Dict[str, int]:
            clock_step = 200 if quick else 50
            clocks = list(range(1_000, 6_000, clock_step))
            config = SystemConfig(
                num_processors=_EXTRACTION_PROCESSORS,
                protocol=Protocol.SNOOPING,
            )
            grid_engine.reset_grid_stats()
            grid = grid_engine.ModelGrid.from_product(
                "ring_snooping",
                config,
                snoop.inputs,
                parameters={"ring_clock_ps": clocks},
            )
            solution = grid_engine.solve_grid(grid)
            counters = dict(grid_engine.GRID_STATS)
            counters["points"] = solution.size
            return counters

        yield "grid.solve", grid_solve, ("grid_evals",)


# ----------------------------------------------------------------------
# Check suite: exhaustive symmetry-reduced exploration
# ----------------------------------------------------------------------
def _check_workloads(quick: bool):
    from repro.check.explorer import explore

    # The hierarchical ring needs an even processor count (two local
    # rings), so its quick-mode point drops a line instead of a node.
    if quick:
        plans = [
            ("explore.bfs.snooping.3p2l", "snooping", 3, 2),
            ("explore.bfs.directory.3p2l", "directory", 3, 2),
            ("explore.bfs.linkedlist.3p2l", "linkedlist", 3, 2),
            ("explore.bfs.bus.3p2l", "bus", 3, 2),
            ("explore.bfs.hierarchical.4p1l", "hierarchical", 4, 1),
        ]
    else:
        plans = [
            ("explore.bfs.snooping.4p2l", "snooping", 4, 2),
            ("explore.bfs.directory.4p2l", "directory", 4, 2),
            ("explore.bfs.linkedlist.4p2l", "linkedlist", 4, 2),
            ("explore.bfs.bus.4p2l", "bus", 4, 2),
            ("explore.bfs.hierarchical.4p2l", "hierarchical", 4, 2),
        ]
    for name, protocol, nodes, lines in plans:

        def run(protocol=protocol, nodes=nodes, lines=lines):
            report = explore(
                protocol, nodes, lines, max_depth=64, max_states=100_000
            )
            # A bench point that silently stopped exploring (or found
            # a violation) would "pass" the gate with a shrunken
            # counter; fail loudly instead.
            if not report.ok:
                raise AssertionError(report.summary())
            if not report.complete:
                raise AssertionError(
                    f"exploration truncated: {report.summary()}"
                )
            return report.counters()

        yield name, run


_SUITES = {
    "kernel": (_kernel_workloads, ("events_processed",)),
    "models": (_models_workloads, ("model_evals",)),
    "check": (_check_workloads, ("states", "steps_applied")),
}


def suite_names() -> List[str]:
    return list(_SUITES)


def run_suite(suite: str, quick: bool = False) -> BenchReport:
    """Run one suite and return its measurements."""
    try:
        workloads, gate = _SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r} (choose from {', '.join(_SUITES)})"
        ) from None
    report = BenchReport(suite=suite, mode="quick" if quick else "full")
    for entry in workloads(quick):
        # Workloads yield (name, run) to take the suite's default gate
        # or (name, run, gate) to override it (e.g. grid.solve gates
        # grid_evals, not model_evals).
        name, run = entry[0], entry[1]
        workload_gate = entry[2] if len(entry) > 2 else gate
        # Each workload starts from an empty trace cache, so its
        # counters do not depend on the workloads run before it.
        clear_simulation_cache(disk=False)
        start = time.perf_counter()
        counters = run()
        wall = time.perf_counter() - start
        report.workloads.append(
            WorkloadResult(
                name=name, wall_s=wall, counters=counters, gate=workload_gate
            )
        )
    return report


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def baseline_path(suite: str, directory: "str | os.PathLike" = ".") -> str:
    return os.path.join(os.fspath(directory), f"BENCH_{suite}.json")


def write_baseline(
    report: BenchReport, directory: "str | os.PathLike" = "."
) -> str:
    path = baseline_path(report.suite, directory)
    with open(path, "w") as handle:
        json.dump(report.to_jsonable(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_baseline(
    suite: str, directory: "str | os.PathLike" = "."
) -> Optional[Dict]:
    path = baseline_path(suite, directory)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def check_against_baseline(
    report: BenchReport,
    baseline: Dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressions of ``report`` against a committed baseline.

    Returns human-readable problem strings (empty = pass).  Only gated
    counters are compared; a counter above ``baseline * (1 +
    tolerance)`` is a regression.  A missing workload or a mode
    mismatch is also a failure -- silently comparing quick against
    full numbers would make the gate meaningless.
    """
    problems: List[str] = []
    if baseline.get("schema") != BASELINE_SCHEMA:
        problems.append(
            f"baseline schema {baseline.get('schema')!r} != "
            f"{BASELINE_SCHEMA} (regenerate with 'repro bench --baseline')"
        )
        return problems
    if baseline.get("mode") != report.mode:
        problems.append(
            f"baseline mode {baseline.get('mode')!r} != run mode "
            f"{report.mode!r}"
        )
        return problems
    recorded = baseline.get("workloads", {})
    current = {w.name: w for w in report.workloads}
    for name, entry in recorded.items():
        workload = current.get(name)
        if workload is None:
            if name == "grid.solve":
                from repro.models.grid import grid_available

                if not grid_available():
                    # Baselines are generated with NumPy present; a
                    # scalar-only environment legitimately skips the
                    # grid workload (and only that one).
                    continue
            problems.append(f"{name}: workload missing from this run")
            continue
        for counter in entry.get("gate", []):
            old = entry["counters"].get(counter)
            new = workload.counters.get(counter)
            if old is None or new is None:
                problems.append(f"{name}: counter {counter!r} not measured")
                continue
            if new > old * (1.0 + tolerance):
                problems.append(
                    f"{name}: {counter} regressed {old:,} -> {new:,} "
                    f"(+{100.0 * (new - old) / old:.1f}%, "
                    f"tolerance {tolerance:.0%})"
                )
    return problems
