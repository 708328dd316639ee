"""Unit tests for the trace-driven processor model."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import ProcessorConfig, Protocol, SystemConfig
from repro.core.experiment import build_engine, reset_engine_statistics
from repro.memory.address import SHARED_BASE
from repro.memory.cache import AccessOutcome, DirectMappedCache
from repro.memory.states import CacheState
from repro.proc.processor import TraceProcessor
from repro.sim.kernel import Simulator
from repro.traces.benchmarks import benchmark_spec
from repro.traces.records import TraceRecord
from repro.traces.synthetic import SyntheticTraceGenerator
from tests.conftest import make_engine


def run_processor(records, protocol=Protocol.SNOOPING, cycle_ps=20_000, node=0):
    sim, engine = make_engine(protocol)
    processor = TraceProcessor(
        sim,
        node,
        engine,
        iter(records),
        ProcessorConfig(cycle_ps=cycle_ps),
    )
    sim.spawn(processor.run(), name="cpu")
    sim.run()
    return sim, engine, processor


def private_record(instr=1, block=0, write=False):
    # Node 0's private region starts at 0.
    return TraceRecord(instr, block * 16, write)


def test_all_hits_time_is_pure_busy():
    # One miss to warm the line, then hits.
    records = [private_record(instr=0)] + [
        private_record(instr=1) for _ in range(9)
    ]
    sim, engine, processor = run_processor(records)
    counters = processor.counters
    assert counters.data_refs == 10
    assert counters.instructions == 9  # instr_before fetches only
    # Busy time: one cycle per instruction fetch.
    assert counters.busy_ps == counters.instructions * 20_000
    assert counters.blocked_ps > 0  # the single cold miss


def test_shared_private_counting():
    records = [
        TraceRecord(0, 0, False),  # private read
        TraceRecord(0, 16, True),  # private write
        TraceRecord(0, SHARED_BASE, False),  # shared read
        TraceRecord(0, SHARED_BASE, True),  # shared write (upgrade)
    ]
    _, _, processor = run_processor(records)
    counters = processor.counters
    assert counters.private_refs == 2
    assert counters.private_writes == 1
    assert counters.shared_refs == 2
    assert counters.shared_writes == 1


def test_shared_fetch_misses_exclude_upgrades():
    records = [
        TraceRecord(0, SHARED_BASE, False),  # read miss (fetch)
        TraceRecord(0, SHARED_BASE, True),  # upgrade (not a fetch miss)
        TraceRecord(0, SHARED_BASE + 16, True),  # write miss (fetch)
    ]
    _, _, processor = run_processor(records)
    assert processor.counters.shared_fetch_misses == 2
    assert processor.counters.shared_miss_rate == pytest.approx(2 / 3)


def test_blocked_time_spans_transactions():
    records = [TraceRecord(0, SHARED_BASE, False)]
    sim, engine, processor = run_processor(records)
    counters = processor.counters
    assert counters.blocked_ps > engine.config.memory.access_ps
    assert counters.elapsed_ps == counters.busy_ps + counters.blocked_ps
    assert counters.finished_at_ps == sim.now


def test_utilization_bounds():
    records = [private_record(instr=3, block=i % 4) for i in range(50)]
    _, _, processor = run_processor(records)
    assert 0.0 < processor.counters.utilization <= 1.0


def test_batching_preserves_totals():
    """Different batch sizes must not change reference accounting or
    total busy time."""
    records = [private_record(instr=1, block=i % 8) for i in range(200)]
    totals = []
    for batch in (1, 16, 1_000):
        sim, engine = make_engine(Protocol.SNOOPING)
        processor = TraceProcessor(
            sim,
            0,
            engine,
            iter(records),
            ProcessorConfig(cycle_ps=20_000, batch_refs=batch),
        )
        sim.spawn(processor.run())
        sim.run()
        totals.append(
            (
                processor.counters.busy_ps,
                processor.counters.data_refs,
                processor.counters.instructions,
            )
        )
    assert totals[0] == totals[1] == totals[2]


def test_faster_processor_finishes_sooner():
    records = [private_record(instr=4, block=i % 4) for i in range(100)]
    _, _, slow = run_processor(records, cycle_ps=20_000)
    _, _, fast = run_processor(records, cycle_ps=5_000)
    assert fast.counters.finished_at_ps < slow.counters.finished_at_ps


def test_mips_property():
    assert ProcessorConfig(cycle_ps=20_000).mips == pytest.approx(50.0)
    assert ProcessorConfig(cycle_ps=1_000).mips == pytest.approx(1_000.0)


def test_empty_trace_finishes_immediately():
    sim, engine, processor = run_processor([])
    assert processor.counters.data_refs == 0
    assert processor.counters.busy_ps == 0


# ----------------------------------------------------------------------
# The inline hit rule and the flushed tallies
# ----------------------------------------------------------------------
class _StubEngine:
    """One cache; every miss completes at once and changes nothing."""

    def __init__(self, cache):
        self.caches = [cache]

    def miss(self, node, address, outcome):
        return
        yield


#: Steps on a 4-line cache: references, and the coherence actions the
#: engines apply (fills, upgrades, remote invalidations and downgrades,
#: replacements), over blocks that conflict in every frame.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["ref", "ref", "ref", "fill", "upgrade", "invalidate",
             "downgrade", "evict"]
        ),
        st.integers(0, 7),
        st.integers(0, 3),
        st.sampled_from([False, True, 0, 1]),
    ),
    min_size=10,
    max_size=200,
)


def _apply(cache, action, address, is_write):
    """Apply one legal coherence action (an illegal one is skipped)."""
    state = cache.state_of(address)
    if action == "fill":
        wanted = CacheState.WE if is_write else CacheState.RS
        if state is CacheState.INV or (state, wanted) == (
            CacheState.RS, CacheState.RS
        ):
            cache.fill(address, wanted)
    elif action == "upgrade":
        if state is CacheState.RS:
            cache.apply_upgrade(address)
    elif action == "invalidate":
        cache.snoop_invalidate(address)
    elif action == "downgrade":
        cache.snoop_downgrade(address)
    else:
        cache.evict(address)


@given(_STEPS, st.integers(1, 4))
# Each leg of the rule: a store to RS, a tag mismatch in the frame, a
# line gone after an invalidation, and hits in RS and WE.
@example([("fill", 0, 0, False), ("ref", 0, 1, True)], 1)
@example([("fill", 0, 0, True), ("ref", 4, 0, False)], 1)
@example([("fill", 1, 0, True), ("invalidate", 1, 0, False),
          ("ref", 1, 0, False)], 1)
@example([("fill", 2, 0, False), ("ref", 2, 3, 0), ("fill", 6, 0, 1),
          ("ref", 6, 2, True), ("downgrade", 6, 0, 0), ("ref", 6, 0, 1)], 2)
@settings(max_examples=200, deadline=None)
def test_inline_hit_rule_agrees_with_classify(steps, batch_refs):
    """The processor calls ``classify`` exactly for the references that
    ``classify`` does not call hits, and its own hit tallies leave the
    cache's stats as ``classify`` alone would have."""
    cache = DirectMappedCache(size_bytes=64, block_size=16)
    mirror = DirectMappedCache(size_bytes=64, block_size=16)
    expected_hits = []
    classified = []

    def spy(address, is_write):
        classified.append(len(expected_hits) - 1)
        return DirectMappedCache.classify(cache, address, is_write)

    cache.classify = spy

    def trace():
        for action, block, word, is_write in steps:
            address = block * 16 + word * 4
            if action != "ref":
                _apply(cache, action, address, is_write)
                _apply(mirror, action, address, is_write)
                continue
            outcome = mirror.classify(address, is_write)
            expected_hits.append(outcome is AccessOutcome.HIT)
            yield 1, address, is_write

    sim = Simulator()
    processor = TraceProcessor(
        sim, 0, _StubEngine(cache), trace(),
        ProcessorConfig(batch_refs=batch_refs),
    )
    sim.spawn(processor.run())
    sim.run()
    assert classified == [
        index for index, hit in enumerate(expected_hits) if not hit
    ]
    assert cache.stats == mirror.stats
    assert processor.counters.data_refs == len(expected_hits)


@pytest.mark.parametrize("warmup_refs", [0, 100])
@pytest.mark.parametrize("weak_ordering", [False, True])
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_tallies_are_exact_whenever_the_processors_are_suspended(
    protocol, weak_ordering, warmup_refs
):
    config = SystemConfig(
        num_processors=8,
        protocol=protocol,
        processor=ProcessorConfig(weak_ordering=weak_ordering),
    )
    sim = Simulator()
    engine = build_engine(sim, config)
    spec = benchmark_spec("mp3d", 8)
    generator = SyntheticTraceGenerator(spec, engine.address_map, seed=3)
    streams = [
        generator.stream(node, warmup_refs + 300) for node in range(8)
    ]
    pauses = []

    def run_and_check(processors):
        for processor in processors:
            sim.spawn(processor.run())
        while sim.peek() is not None:
            sim.run(until=sim.now + 1_000_000)
            pauses.append(sim.peek() is not None)
            for processor in processors:
                counters = processor.counters
                stats = processor.cache.stats
                assert stats.references == counters.data_refs
                assert stats.writes == (
                    counters.private_writes + counters.shared_writes
                )
                assert counters.data_refs == (
                    counters.private_refs + counters.shared_refs
                )

    if warmup_refs:
        run_and_check([
            TraceProcessor(
                sim, node, engine, itertools.islice(stream, warmup_refs),
                config.processor,
            )
            for node, stream in enumerate(streams)
        ])
        reset_engine_statistics(engine)
    processors = [
        TraceProcessor(sim, node, engine, stream, config.processor)
        for node, stream in enumerate(streams)
    ]
    run_and_check(processors)
    assert sum(pauses) >= 3  # paused mid-run, not only after draining
    assert [p.counters.data_refs for p in processors] == [300] * 8
