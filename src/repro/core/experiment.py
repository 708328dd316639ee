"""Simulation driver: build a system, run traces through it, report.

This is the "detailed trace-driven simulation" half of the paper's
hybrid methodology.  A single call wires together the synthetic trace
generators, the processors, and the selected coherence engine, runs
the event loop to completion, and returns a :class:`SimulationResult`
including the per-instruction event frequencies the analytical models
consume.

Simulations at the same configuration are cached process-wide (the
paper's runs took 6-8 CPU-hours each; ours take seconds, but the
benchmark harness still reuses runs across tables and figures).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.bus.bus import BusSystem
from repro.core.config import BusConfig, Protocol, RingConfig, SystemConfig
from repro.core.results import ModelInputs, SimulationResult
from repro.obs import Histograms
from repro.proc.processor import TraceProcessor
from repro.ring.directory import DirectoryRingSystem
from repro.ring.hierarchical import HierarchicalRingSystem
from repro.ring.linkedlist import LinkedListRingSystem
from repro.ring.snooping import SnoopingRingSystem
from repro.sim.kernel import Simulator
from repro.traces.benchmarks import BenchmarkSpec, benchmark_spec
from repro.traces.stats import characterize
from repro.traces.synthetic import SyntheticTraceGenerator

__all__ = [
    "build_engine",
    "reset_engine_statistics",
    "run_simulation",
    "run_simulation_cached",
    "prime_simulation_cache",
    "cache_counters",
    "last_kernel_counters",
    "clear_simulation_cache",
    "DEFAULT_DATA_REFS",
]

#: Default per-processor trace length for full experiments.  The
#: paper's traces are millions of references; the hybrid methodology
#: only needs stable event frequencies, which converge much sooner.
DEFAULT_DATA_REFS = 20_000

_ENGINE_TYPES = {
    Protocol.SNOOPING: SnoopingRingSystem,
    Protocol.DIRECTORY: DirectoryRingSystem,
    Protocol.LINKED_LIST: LinkedListRingSystem,
    Protocol.BUS: BusSystem,
    Protocol.HIERARCHICAL: HierarchicalRingSystem,
}


def build_engine(sim: Simulator, config: SystemConfig):
    """Instantiate the coherence engine selected by the config."""
    return _ENGINE_TYPES[config.protocol](sim, config)


def run_simulation(
    benchmark: "str | BenchmarkSpec",
    config: Optional[SystemConfig] = None,
    data_refs: int = DEFAULT_DATA_REFS,
    num_processors: Optional[int] = None,
    protocol: Optional[Protocol] = None,
    traces: Optional[List] = None,
    warmup_refs: int = 0,
    tracer=None,
    monitor=None,
    check_invariants: bool = False,
) -> SimulationResult:
    """Run one trace-driven simulation to completion.

    ``benchmark`` is a registered name (with ``num_processors``) or an
    explicit :class:`BenchmarkSpec`.  ``config`` defaults to the
    paper's baseline system sized to the benchmark; ``protocol``
    overrides the config's protocol when given.  ``traces`` -- one
    iterable of :class:`~repro.traces.records.TraceRecord` per
    processor -- replaces the synthetic generation entirely (e.g.
    streams from :func:`repro.traces.io.read_trace_set` or converted
    real traces); ``data_refs`` is then the per-processor record count
    consumed from each stream after warm-up.

    ``warmup_refs`` executes that many leading references per
    processor with full protocol behaviour but discards their
    statistics -- cache contents, directories and slot state stay warm
    while the measurement window starts cold-miss-free (the paper's
    multi-million-reference traces amortise cold misses; short runs
    can use this instead).

    ``tracer`` is an optional :class:`repro.obs.Tracer` (or any object
    with its event-emission interface); when given it receives
    structured events from the kernel, the slot scheduler and the
    protocol engines for the whole run, warm-up included.  Leaving it
    ``None`` (the default) keeps every hook on its no-op path, so
    traced and untraced runs produce bit-identical results.

    ``monitor`` attaches a runtime coherence checker (any object with
    the ``on_commit(engine, node, address, action)`` hook, normally
    :class:`repro.check.InvariantMonitor`) through the same duck-typed
    kernel attribute as the tracer; ``check_invariants=True`` is the
    convenience form that builds one.  The monitor observes every
    coherence commit for the whole run and a strict whole-system check
    runs once the event heap drains; the first violation aborts the
    simulation with the failing node, address and action.  Like the
    tracer, a ``None`` monitor costs one attribute load per commit.
    """
    if check_invariants and monitor is None:
        from repro.check.monitor import InvariantMonitor

        monitor = InvariantMonitor()
    if isinstance(benchmark, str):
        processors = num_processors or (config.num_processors if config else 16)
        spec = benchmark_spec(benchmark, processors)
    else:
        spec = benchmark
    if config is None:
        config = SystemConfig(num_processors=spec.processors)
    if config.num_processors != spec.processors:
        config = replace(config, num_processors=spec.processors)
    if protocol is not None:
        config = replace(config, protocol=protocol)
    if traces is not None and len(traces) != config.num_processors:
        raise ValueError(
            f"{len(traces)} trace streams for "
            f"{config.num_processors} processors"
        )

    sim = Simulator()
    sim.tracer = tracer
    sim.monitor = monitor
    engine = build_engine(sim, config)
    if traces is None:
        generator = SyntheticTraceGenerator(
            spec, engine.address_map, seed=config.seed
        )
        traces = [
            generator.stream(node, warmup_refs + data_refs)
            for node in range(config.num_processors)
        ]
    window_start = 0
    if warmup_refs:
        warmers = [
            TraceProcessor(
                sim,
                node,
                engine,
                itertools.islice(stream, warmup_refs),
                config.processor,
            )
            for node, stream in enumerate(traces)
        ]
        for warmer in warmers:
            sim.spawn(warmer.run(), name=f"warm{warmer.node}")
        sim.run()
        reset_engine_statistics(engine)
        window_start = sim.now
    # Distribution telemetry covers exactly the measurement window
    # (attached after the warm-up statistics reset), mirroring the
    # scalar statistics, so cached and fresh runs report the same
    # histograms.
    histograms = Histograms()
    sim.histograms = histograms
    engine.stats.observer = histograms
    processors = [
        TraceProcessor(
            sim,
            node,
            engine,
            stream,
            config.processor,
        )
        for node, stream in enumerate(traces)
    ]
    for processor in processors:
        sim.spawn(processor.run(), name=f"cpu{processor.node}")
    sim.run()
    finalize = getattr(monitor, "finalize", None)
    if finalize is not None:
        finalize(engine)

    _LAST_KERNEL.clear()
    _LAST_KERNEL.update(
        events_processed=sim.events_processed,
        relay_hops=sim.relay_hops,
        cancelled_wakes=sim.cancelled_wakes,
    )
    return _collect(
        spec, config, engine, processors, sim, window_start, histograms
    )


def reset_engine_statistics(engine) -> None:
    """Zero every statistic an engine accumulates, in place.

    Coherence *state* (cache contents, directories, dirty bits, slot
    occupancy) is untouched: this marks the start of a measurement
    window on a warm machine.
    """
    from repro.core.metrics import CoherenceStats
    from repro.memory.cache import CacheStats

    engine.stats = CoherenceStats()
    for cache in engine.caches:
        cache.stats = CacheStats()
    for bank in engine.banks:
        bank.reset_statistics()
    for attribute in ("scheduler", "global_scheduler"):
        scheduler = getattr(engine, attribute, None)
        if scheduler is not None:
            scheduler.reset_statistics()
    for scheduler in getattr(engine, "local_schedulers", []):
        scheduler.reset_statistics()
    bus = getattr(engine, "bus", None)
    if bus is not None:
        bus.reset_statistics()


def _collect(
    spec: BenchmarkSpec,
    config: SystemConfig,
    engine,
    processors: List[TraceProcessor],
    sim: Simulator,
    window_start: int = 0,
    telemetry: Optional[Histograms] = None,
) -> SimulationResult:
    elapsed = (
        max(p.counters.finished_at_ps for p in processors) - window_start
    )
    stats = engine.stats
    if config.protocol is Protocol.BUS:
        network_utilization = engine.bus_utilization(elapsed)
    else:
        network_utilization = engine.ring_utilization(elapsed)
    instructions = sum(p.counters.instructions for p in processors)
    trace = characterize(spec.name, processors)
    mean_utilization = sum(
        p.counters.utilization for p in processors
    ) / len(processors)

    return SimulationResult(
        config=config,
        benchmark=spec.name,
        elapsed_ps=elapsed,
        processor_utilization=mean_utilization,
        network_utilization=network_utilization,
        shared_miss_latency_ns=stats.shared_miss_latency_ps() / 1000.0,
        miss_latency_ns=stats.mean_latency_ps() / 1000.0,
        upgrade_latency_ns=stats.upgrade_latency.mean_ns,
        stats=stats,
        trace=trace,
        instructions=instructions,
        inputs=_extract_inputs(spec, config, engine, instructions),
        telemetry=telemetry.finalize() if telemetry is not None else None,
    )


def _extract_inputs(
    spec: BenchmarkSpec,
    config: SystemConfig,
    engine,
    instructions: int,
) -> ModelInputs:
    """Per-instruction event frequencies for the analytical models."""
    stats = engine.stats
    per_instr = 1.0 / instructions if instructions else 0.0
    f_miss = {
        klass: acc.count * per_instr
        for klass, acc in stats.miss_latency.items()
    }
    memory_accesses = sum(bank.requests for bank in engine.banks)
    total_data_refs = sum(cache.stats.references for cache in engine.caches)
    return ModelInputs(
        benchmark=spec.name,
        num_processors=config.num_processors,
        protocol=config.protocol,
        data_refs_per_instr=total_data_refs * per_instr,
        f_miss=f_miss,
        f_upgrade_with_sharers=stats.upgrades_with_sharers * per_instr,
        f_upgrade_without_sharers=stats.upgrades_without_sharers * per_instr,
        f_writeback=stats.writebacks * per_instr,
        f_sharing_writeback=stats.sharing_writebacks * per_instr,
        f_probes=stats.probes_sent * per_instr,
        f_broadcast_probes=stats.broadcast_probes * per_instr,
        f_blocks=stats.blocks_sent * per_instr,
        f_memory_accesses=memory_accesses * per_instr,
        f_forwards=stats.forwards * per_instr,
        mean_miss_traversals=stats.miss_traversals.mean(),
        mean_upgrade_traversals=stats.upgrade_traversals.mean(),
    )


# ----------------------------------------------------------------------
# Result caching: in-process memo + persistent content-addressed store
# ----------------------------------------------------------------------
_CACHE: Dict[Tuple, SimulationResult] = {}

#: Lookup counters for cache-effectiveness reporting; see
#: :func:`cache_counters`.
_COUNTERS = {"memo_hits": 0, "disk_hits": 0, "misses": 0}


def _normalised_config(
    benchmark: str,
    num_processors: int,
    protocol: Protocol,
    config: Optional[SystemConfig],
) -> SystemConfig:
    base = config or SystemConfig(
        num_processors=num_processors, protocol=protocol
    )
    return _canonical_config(
        replace(base, num_processors=num_processors, protocol=protocol)
    )


def _canonical_config(config: SystemConfig) -> SystemConfig:
    """``config`` with the interconnect it does not simulate at default.

    The ring engines never read ``config.bus`` and :class:`BusSystem`
    never reads ``config.ring``, so setups differing only there are one
    simulated machine.  Resetting the unused sub-config makes the memo,
    the persistent store and ``result.config`` agree on that: a bus
    curve's snooping extraction (Figure 6) reuses the snooping run the
    tables already made, as the paper's hybrid method intends.
    """
    if config.protocol is Protocol.BUS:
        return replace(config, ring=RingConfig())
    return replace(config, bus=BusConfig())


def _memo_key(
    benchmark: str, data_refs: int, config: SystemConfig
) -> Tuple:
    return (
        benchmark,
        config.num_processors,
        config.protocol,
        data_refs,
        config.seed,
        config.ring,
        config.bus,
        config.cache,
        config.memory,
        config.processor,
    )


def run_simulation_cached(
    benchmark: str,
    num_processors: int,
    protocol: Protocol,
    data_refs: int = DEFAULT_DATA_REFS,
    config: Optional[SystemConfig] = None,
    check_invariants: bool = False,
) -> SimulationResult:
    """Cached :func:`run_simulation` (keyed by the simulated machine).

    The key is the full setup after :func:`_canonical_config` resets
    the interconnect the protocol does not use, so a snooping run with
    a non-default ``config.bus`` is the same entry as the default one
    (and its ``result.config`` carries the default bus).

    Two layers back the memoisation:

    1. an in-process dict (one entry per distinct setup), and
    2. the persistent content-addressed store of
       :mod:`repro.core.store`, shared across worker processes and
       across sessions.

    The benchmark harness regenerates several tables and figures from
    the same underlying runs, exactly as the paper reuses one
    simulation per configuration to drive many model curves; the disk
    layer extends that reuse to repeated harness invocations and to
    parallel sweep workers.

    ``check_invariants`` bypasses both cache layers: checking only
    happens while the simulation actually executes, so serving a
    checked request from a cached (unchecked) result would silently
    skip the verification the caller asked for.  The checked result is
    still published to both layers for later unchecked reuse.
    """
    from repro.core.store import get_result_store

    base = _normalised_config(benchmark, num_processors, protocol, config)
    if check_invariants:
        result = run_simulation(
            benchmark,
            config=base,
            data_refs=data_refs,
            num_processors=num_processors,
            check_invariants=True,
        )
        _CACHE[_memo_key(benchmark, data_refs, base)] = result
        get_result_store().put(benchmark, data_refs, base, result)
        return result
    key = _memo_key(benchmark, data_refs, base)
    result = _CACHE.get(key)
    if result is not None:
        _COUNTERS["memo_hits"] += 1
        return result
    store = get_result_store()
    result = store.get(benchmark, data_refs, base)
    if result is not None:
        _COUNTERS["disk_hits"] += 1
        _CACHE[key] = result
        return result
    _COUNTERS["misses"] += 1
    result = run_simulation(
        benchmark,
        config=base,
        data_refs=data_refs,
        num_processors=num_processors,
    )
    _CACHE[key] = result
    store.put(benchmark, data_refs, base, result)
    return result


def prime_simulation_cache(
    benchmark: str,
    data_refs: int,
    config: SystemConfig,
    result: SimulationResult,
) -> None:
    """Insert an externally computed result into the in-process memo.

    The parallel sweep executor uses this to make worker-produced
    results visible to subsequent :func:`run_simulation_cached` calls
    in the parent even when the persistent store is disabled.  The
    config is canonicalised as :func:`run_simulation_cached` does, so
    the entry is found under every config naming the same machine.
    """
    _CACHE[_memo_key(benchmark, data_refs, _canonical_config(config))] = result


def cache_counters() -> Dict[str, int]:
    """Snapshot of lookup counters: memo_hits / disk_hits / misses."""
    return dict(_COUNTERS)


#: Kernel-level event counters from the most recent (uncached)
#: :func:`run_simulation` in this process; see
#: :func:`last_kernel_counters`.
_LAST_KERNEL: Dict[str, int] = {}


def last_kernel_counters() -> Dict[str, int]:
    """Event-kernel counters of the last :func:`run_simulation` run.

    ``events_processed`` / ``relay_hops`` / ``cancelled_wakes`` from
    the simulator that executed the most recent simulation in this
    process (empty before any run; unchanged by cache hits).  They are
    exact and machine-independent, which makes them the quantities the
    perf-regression harness (:mod:`repro.perf`) gates on -- wall-clock
    comparisons across CI machines are noise.
    """
    return dict(_LAST_KERNEL)


def clear_simulation_cache(disk: bool = True) -> None:
    """Drop all memoised simulation results.

    With ``disk`` (the default) the persistent store is invalidated
    too: its key namespace is bumped so no existing on-disk entry can
    be hit from this process again (files belonging to other sessions
    are not deleted -- use ``get_result_store().purge()`` for that).
    Tests use this, or :func:`repro.core.store.temp_result_store`, to
    isolate cache state.
    """
    _CACHE.clear()
    if disk:
        from repro.core import store as store_module

        if store_module._ACTIVE_STORE is not None:
            store_module._ACTIVE_STORE.invalidate()
