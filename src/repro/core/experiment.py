"""Simulation driver: build a system, run traces through it, report.

This is the "detailed trace-driven simulation" half of the paper's
hybrid methodology.  A single call wires together the synthetic trace
generators, the processors, and the selected coherence engine, runs
the event loop to completion, and returns a :class:`SimulationResult`
including the per-instruction event frequencies the analytical models
consume.

Simulations at the same configuration are cached process-wide (the
paper's runs took 6-8 CPU-hours each; ours take seconds, but the
benchmark harness still reuses runs across tables and figures).  So are
the synthetic traces that drive them: the paper compares every protocol
on the same traces, and a trace set depends only on the workload, the
block size, the seed and the length, never on the protocol.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from collections import OrderedDict
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
    "TRACE_CACHE_BYTES",
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
    consumed from each stream after warm-up.  Without ``traces`` the
    synthetic set comes from the process-wide trace cache (see
    :data:`TRACE_CACHE_BYTES`), so protocols compared on one workload
    share one generation.

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
    length = warmup_refs + data_refs
    if traces is None:
        traces = [
            zip(*columns)
            for columns in _TRACE_SETS.columns(
                spec, engine.address_map, config.seed, length
            )
        ]
    else:
        traces = [itertools.islice(stream, length) for stream in traces]
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
    engine.reset_statistics()


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
    network_utilization = engine.network_utilization(elapsed)
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
# Trace caching: materialised synthetic trace sets, shared by protocols
# ----------------------------------------------------------------------
#: Byte cap on the synthetic trace sets the process holds for reuse,
#: counted as 10 bytes per record (see :class:`_TraceSetCache`).  The
#: twelve (benchmark, processors) sets of ``bench/``'s paper cold pass,
#: 297,600 records, fit at once (about 3 MB); a set larger than the cap
#: is generated and used but not held.
TRACE_CACHE_BYTES = 4 << 20


class _TraceSetCache:
    """Least-recently-used synthetic trace sets, capped by bytes.

    A set is keyed by everything :class:`SyntheticTraceGenerator`
    reads: the spec, the address map's block size (its node count is
    the spec's processor count), the seed and the per-node length.  The
    length must be in the key because a stream is not prefix-stable:
    the last episode's write burst is drawn for its truncated run.

    Each node's stream is held as the three exact-size columns
    :meth:`SyntheticTraceGenerator.columns` writes -- ``instr_before``
    (``'B'``), address (``'Q'``) and ``is_write`` (``'B'``) -- and is
    replayed as ``zip(*columns)``.
    """

    def __init__(self) -> None:
        #: key -> (per-node columns, their bytes), least recent first.
        self._sets: "OrderedDict[Tuple, Tuple[List, int]]" = OrderedDict()
        self.held_bytes = 0
        # The daemon runs jobs on several threads.
        self._lock = threading.Lock()

    def columns(
        self, spec: BenchmarkSpec, address_map, seed: int, length: int
    ) -> List[Tuple[array, ...]]:
        """Per-node ``(instr_before, address, is_write)`` columns."""
        key = (spec, address_map.block_size, seed, length)
        with self._lock:
            held = self._sets.get(key)
            if held is not None:
                self._sets.move_to_end(key)
                return held[0]
            generator = SyntheticTraceGenerator(spec, address_map, seed=seed)
            columns = [
                generator.columns(node, length)
                for node in range(spec.processors)
            ]
            _COUNTERS["trace_sets_built"] += 1
            _COUNTERS["trace_refs_generated"] += spec.processors * length
            size = sum(
                len(column) * column.itemsize
                for node_columns in columns
                for column in node_columns
            )
            # Hold the new set, then drop the least recently used ones
            # until the cap holds again -- the new set last of all, so
            # one larger than the cap is used but never held.
            self._sets[key] = (columns, size)
            self.held_bytes += size
            while self.held_bytes > TRACE_CACHE_BYTES:
                _, (_, evicted) = self._sets.popitem(last=False)
                self.held_bytes -= evicted
            return columns

    def clear(self) -> None:
        with self._lock:
            self._sets.clear()
            self.held_bytes = 0


_TRACE_SETS = _TraceSetCache()


# ----------------------------------------------------------------------
# Result caching: in-process memo + persistent content-addressed store
# ----------------------------------------------------------------------
_CACHE: Dict[Tuple, SimulationResult] = {}

#: Lookup and trace-generation counters for cache-effectiveness
#: reporting; see :func:`cache_counters`.
_COUNTERS = {
    "memo_hits": 0,
    "disk_hits": 0,
    "misses": 0,
    "trace_sets_built": 0,
    "trace_refs_generated": 0,
}


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
    """Snapshot of the process's cache counters.

    ``memo_hits`` / ``disk_hits`` / ``misses`` count
    :func:`run_simulation_cached` lookups; ``trace_sets_built`` and
    ``trace_refs_generated`` count the synthetic trace sets (and their
    records, all nodes) the trace cache had to generate.
    """
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
    """Drop all memoised simulation results and cached trace sets.

    With ``disk`` (the default) the persistent store is invalidated
    too: its key namespace is bumped so no existing on-disk entry can
    be hit from this process again (files belonging to other sessions
    are not deleted -- use ``get_result_store().purge()`` for that).
    Tests use this, or :func:`repro.core.store.temp_result_store`, to
    isolate cache state.
    """
    _CACHE.clear()
    _TRACE_SETS.clear()
    if disk:
        from repro.core import store as store_module

        if store_module._ACTIVE_STORE is not None:
            store_module._ACTIVE_STORE.invalidate()
