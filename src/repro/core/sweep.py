"""Pre-packaged experiment families matching the paper's figures.

Each function returns the set of model sweeps one of the paper's
figures plots, generated through the hybrid methodology.  The
benchmark harness and the examples share these entry points.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import DEFAULT_DATA_REFS, run_simulation_cached
from repro.core.hybrid import extraction_point, sweep_from_result
from repro.core.parallel import ProgressCallback, SweepReport, execute_points
from repro.core.results import SimulationResult, SweepResult

__all__ = [
    "snooping_vs_directory",
    "ring_vs_bus",
    "miss_breakdown",
    "figure3_panels",
    "FIG3_BENCHMARKS",
    "FIG4_BENCHMARKS",
    "FIG6_BENCHMARKS",
]

#: Figure 3 plots the three SPLASH benchmarks at 8, 16 and 32 procs.
FIG3_BENCHMARKS: Tuple[Tuple[str, int], ...] = tuple(
    (name, procs)
    for name in ("mp3d", "water", "cholesky")
    for procs in (8, 16, 32)
)

#: Figure 4 plots the MIT benchmarks at 64 processors.
FIG4_BENCHMARKS: Tuple[Tuple[str, int], ...] = (
    ("fft", 64),
    ("weather", 64),
    ("simple", 64),
)

#: Figure 6 compares rings and buses on MP3D and WATER at 8/16/32.
FIG6_BENCHMARKS: Tuple[Tuple[str, int], ...] = tuple(
    (name, procs) for name in ("mp3d", "water") for procs in (8, 16, 32)
)


def snooping_vs_directory(
    benchmark: str,
    num_processors: int,
    data_refs: int = DEFAULT_DATA_REFS,
    cycles_ns: Optional[Sequence[float]] = None,
    config: Optional[SystemConfig] = None,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> List[SweepResult]:
    """The two curves of one Figure 3/4 panel (snooping, directory).

    ``jobs > 1`` runs the two underlying trace-driven extractions in
    parallel worker processes; the model sweeps (milliseconds) stay in
    the parent.  Results are bit-identical to the serial path.
    """
    protocols = (Protocol.SNOOPING, Protocol.DIRECTORY)
    points = [
        extraction_point(
            benchmark,
            num_processors,
            protocol,
            config=config,
            data_refs=data_refs,
        )
        for protocol in protocols
    ]
    report = execute_points(points, jobs=jobs, progress=progress)
    return [
        sweep_from_result(
            simulated,
            num_processors,
            protocol,
            config=config,
            cycles_ns=cycles_ns,
        )
        for protocol, simulated in zip(protocols, report.results)
    ]


def figure3_panels(
    panels: Sequence[Tuple[str, int]] = FIG3_BENCHMARKS,
    data_refs: int = DEFAULT_DATA_REFS,
    cycles_ns: Optional[Sequence[float]] = None,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> "Tuple[Dict[Tuple[str, int], List[SweepResult]], SweepReport]":
    """Every snooping-vs-directory panel of a Figure 3/4-style grid.

    One extraction per (benchmark, size, protocol) -- 18 simulations
    for the default Figure 3 grid -- all fanned out together, which is
    where parallel execution pays off most.  Returns the panels keyed
    by (benchmark, size) plus the :class:`SweepReport` describing the
    execution (cache hits, per-point wall time).
    """
    protocols = (Protocol.SNOOPING, Protocol.DIRECTORY)
    points = [
        extraction_point(name, procs, protocol, data_refs=data_refs)
        for name, procs in panels
        for protocol in protocols
    ]
    report = execute_points(points, jobs=jobs, progress=progress)
    results = iter(report.results)
    grid: Dict[Tuple[str, int], List[SweepResult]] = {}
    for name, procs in panels:
        grid[(name, procs)] = [
            sweep_from_result(
                next(results),
                procs,
                protocol,
                cycles_ns=cycles_ns,
            )
            for protocol in protocols
        ]
    return grid, report


def ring_vs_bus(
    benchmark: str,
    num_processors: int,
    data_refs: int = DEFAULT_DATA_REFS,
    cycles_ns: Optional[Sequence[float]] = None,
    ring_clocks_mhz: Sequence[float] = (500.0, 250.0),
    bus_clocks_mhz: Sequence[float] = (100.0, 50.0),
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> List[SweepResult]:
    """The four curves of one Figure 6 panel.

    32-bit rings at the given clocks and 64-bit buses at theirs, all
    running the snooping protocol and sharing one trace extraction.
    With ``jobs > 1`` the per-curve extraction simulations run in
    parallel worker processes (bit-identical results).
    """
    curves: List[Tuple[Protocol, SystemConfig]] = []
    for mhz in ring_clocks_mhz:
        base = SystemConfig(
            num_processors=num_processors, protocol=Protocol.SNOOPING
        )
        config = replace(
            base, ring=replace(base.ring, clock_ps=round(1e6 / mhz))
        )
        curves.append((Protocol.SNOOPING, config))
    for mhz in bus_clocks_mhz:
        base = SystemConfig(
            num_processors=num_processors, protocol=Protocol.BUS
        )
        config = replace(
            base, bus=replace(base.bus, clock_ps=round(1e6 / mhz))
        )
        curves.append((Protocol.BUS, config))
    points = [
        extraction_point(
            benchmark,
            num_processors,
            protocol,
            config=config,
            data_refs=data_refs,
        )
        for protocol, config in curves
    ]
    report = execute_points(points, jobs=jobs, progress=progress)
    return [
        sweep_from_result(
            simulated,
            num_processors,
            protocol,
            config=config,
            cycles_ns=cycles_ns,
        )
        for (protocol, config), simulated in zip(curves, report.results)
    ]


def miss_breakdown(
    configurations: Sequence[Tuple[str, int]],
    data_refs: int = DEFAULT_DATA_REFS,
    jobs: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Figure 5: directory-protocol remote-miss class percentages.

    Returns ``{"mp3d8": {"1-cycle clean": %, "1-cycle dirty": %,
    "2-cycle": %}, ...}`` in configuration order.  ``jobs > 1`` runs
    the directory simulations in parallel first (priming the cache the
    serial loop below then hits).
    """
    from repro.core.metrics import MissClass
    from repro.core.parallel import SweepPoint

    if jobs > 1:
        execute_points(
            [
                SweepPoint(name, processors, Protocol.DIRECTORY, data_refs)
                for name, processors in configurations
            ],
            jobs=jobs,
        )
    breakdown: Dict[str, Dict[str, float]] = {}
    for name, processors in configurations:
        result: SimulationResult = run_simulation_cached(
            name, processors, Protocol.DIRECTORY, data_refs=data_refs
        )
        percentages = result.stats.miss_class_percentages()
        breakdown[f"{name}{processors}"] = {
            "1-cycle clean": percentages.get(MissClass.REMOTE_CLEAN, 0.0),
            "1-cycle dirty": percentages.get(MissClass.DIRTY_ONE_CYCLE, 0.0)
            + percentages.get(MissClass.REMOTE_DIRTY, 0.0),
            "2-cycle": percentages.get(MissClass.TWO_CYCLE, 0.0),
        }
    return breakdown
