"""Unit tests for configuration objects."""

import pytest

from repro.core.config import (
    BusConfig,
    CacheConfig,
    ProcessorConfig,
    Protocol,
    RingConfig,
    SystemConfig,
)


def test_defaults_match_paper_baseline():
    config = SystemConfig()
    assert config.ring.clock_ps == 2_000  # 500 MHz
    assert config.ring.width_bits == 32
    assert config.cache.size_bytes == 128 * 1024
    assert config.cache.block_size == 16
    assert config.memory.access_ps == 140_000
    assert config.processor.cycle_ps == 20_000  # 50 MIPS
    assert config.bus.width_bits == 64


def test_ring_clock_mhz():
    assert RingConfig(clock_ps=2_000).clock_mhz == pytest.approx(500.0)
    assert RingConfig(clock_ps=4_000).clock_mhz == pytest.approx(250.0)


def test_bus_six_cycle_minimum():
    bus = BusConfig()
    assert bus.request_cycles + bus.reply_cycles == 6


def test_bus_with_clock_mhz():
    bus = BusConfig().with_clock_mhz(100)
    assert bus.clock_ps == 10_000
    assert bus.clock_mhz == pytest.approx(100.0)


def test_processor_mips_roundtrip():
    processor = ProcessorConfig().with_mips(400)
    assert processor.cycle_ps == 2_500
    assert processor.mips == pytest.approx(400.0)


def test_cache_line_count():
    assert CacheConfig().num_lines == 8_192


def test_system_layout_and_topology():
    config = SystemConfig(num_processors=8)
    layout = config.ring_layout()
    topology = config.ring_topology()
    assert layout.frame_stages == 10
    assert topology.total_stages == 30


def test_protocol_uses_ring():
    assert Protocol.SNOOPING.uses_ring
    assert Protocol.DIRECTORY.uses_ring
    assert Protocol.LINKED_LIST.uses_ring
    assert not Protocol.BUS.uses_ring


def test_too_few_processors_rejected():
    with pytest.raises(ValueError):
        SystemConfig(num_processors=1)


def test_hierarchy_must_split_processors_into_equal_clusters():
    hierarchical = Protocol.HIERARCHICAL
    with pytest.raises(ValueError, match="3 processors do not divide into 4"):
        SystemConfig(num_processors=3, protocol=hierarchical)
    with pytest.raises(ValueError, match="at least 2 clusters"):
        SystemConfig(
            num_processors=8, protocol=hierarchical, ring=RingConfig(clusters=1)
        )
    # The cluster count only constrains the hierarchical protocol.
    assert SystemConfig(num_processors=3).num_processors == 3
    assert SystemConfig(
        num_processors=6, protocol=hierarchical, ring=RingConfig(clusters=2)
    ).ring.clusters == 2


def test_ring_layout_respects_slot_mix():
    config = RingConfig(probe_slots=4, block_slots=2)
    layout = config.layout(block_size=16)
    assert layout.probe_slots == 4
    assert layout.block_slots == 2


def test_configs_are_hashable_for_caching():
    a = SystemConfig()
    assert hash(a.ring) == hash(RingConfig())
    assert hash(a.bus) == hash(BusConfig())
