"""Tests for measurement-window (warm-up) support."""

from dataclasses import replace

import pytest

from repro.core.config import Protocol
from repro.core.experiment import (
    build_engine,
    reset_engine_statistics,
    run_simulation,
)
from repro.core.config import SystemConfig
from repro.ring.slots import SlotType
from repro.sim.kernel import Simulator
from tests.conftest import run_reference


REFS = 1_500


def test_warmup_reduces_measured_miss_rate():
    """Cold misses land in the warm-up window, not the measurement."""
    cold = run_simulation(
        "water", num_processors=4, protocol=Protocol.SNOOPING,
        data_refs=REFS,
    )
    warm = run_simulation(
        "water", num_processors=4, protocol=Protocol.SNOOPING,
        data_refs=REFS, warmup_refs=REFS,
    )
    assert (
        warm.trace.total_miss_rate_percent
        <= cold.trace.total_miss_rate_percent
    )


def test_warmup_counts_only_measured_references():
    warm = run_simulation(
        "mp3d", num_processors=4, protocol=Protocol.SNOOPING,
        data_refs=REFS, warmup_refs=500,
    )
    assert warm.trace.data_refs == 4 * REFS


def test_warmup_zero_is_identity():
    plain = run_simulation(
        "mp3d", num_processors=4, protocol=Protocol.SNOOPING,
        data_refs=REFS,
    )
    explicit = run_simulation(
        "mp3d", num_processors=4, protocol=Protocol.SNOOPING,
        data_refs=REFS, warmup_refs=0,
    )
    assert plain.elapsed_ps == explicit.elapsed_ps
    assert plain.stats.probes_sent == explicit.stats.probes_sent


def test_warmup_metrics_stay_sane():
    for protocol in (Protocol.DIRECTORY, Protocol.BUS):
        result = run_simulation(
            "mp3d", num_processors=4, protocol=protocol,
            data_refs=800, warmup_refs=400,
        )
        assert 0.0 < result.processor_utilization <= 1.0
        assert 0.0 <= result.network_utilization <= 1.0
        assert result.shared_miss_latency_ns > 0.0


def test_reset_engine_statistics_clears_counts_keeps_state():
    sim = Simulator()
    config = SystemConfig(num_processors=4, protocol=Protocol.SNOOPING)
    engine = build_engine(sim, config)
    address = engine.address_map.shared_block_address(1)
    run_reference(sim, engine, 0, address, True)
    assert engine.stats.probes_sent >= 0
    assert engine.caches[0].stats.writes == 1

    reset_engine_statistics(engine)
    assert engine.stats.total_misses() == 0
    assert engine.caches[0].stats.references == 0
    assert all(bank.requests == 0 for bank in engine.banks)
    # Coherence state survives: the warm WE copy still hits.
    from repro.memory.cache import AccessOutcome

    assert engine.caches[0].classify(address, True) is AccessOutcome.HIT
    block = engine.address_map.block_of(address)
    assert block in engine.dirty_owners


def test_reset_statistics_hierarchical_and_bus():
    for protocol in (Protocol.HIERARCHICAL, Protocol.BUS):
        sim = Simulator()
        config = SystemConfig(num_processors=4, protocol=protocol)
        if protocol is Protocol.HIERARCHICAL:
            config = replace(config, ring=replace(config.ring, clusters=2))
        engine = build_engine(sim, config)
        address = engine.address_map.shared_block_address(1)
        run_reference(sim, engine, 0, address, False)
        reset_engine_statistics(engine)
        assert engine.stats.total_misses() == 0


class _EngineCapture:
    """A do-nothing commit monitor that keeps the finished engine."""

    engine = None

    def on_commit(self, engine, node, address, action):
        pass

    def finalize(self, engine):
        self.engine = engine


@pytest.mark.parametrize(
    "protocol",
    [Protocol.SNOOPING, Protocol.DIRECTORY, Protocol.HIERARCHICAL],
)
def test_warmup_resets_per_slot_counters_with_per_type_tallies(protocol):
    """After a warm-up window, every slot's ``busy_cycles``/``grabs``
    count the measurement window only, like the per-type tallies."""
    config = SystemConfig(num_processors=8, protocol=protocol)
    if protocol is Protocol.HIERARCHICAL:
        config = replace(config, ring=replace(config.ring, clusters=2))
    capture = _EngineCapture()
    run_simulation(
        "mp3d", config=config, data_refs=400, warmup_refs=400,
        monitor=capture,
    )
    engine = capture.engine
    assert engine.rings
    for scheduler in engine.rings:
        for slot_type in SlotType:
            slots = scheduler.slots_of(slot_type)
            assert (
                sum(slot.busy_cycles for slot in slots)
                == scheduler.granted_cycles[slot_type]
            )
            assert (
                sum(slot.grabs for slot in slots)
                == scheduler.granted_messages[slot_type]
            )
    assert any(
        scheduler.granted_messages[slot_type]
        for scheduler in engine.rings
        for slot_type in SlotType
    )
