"""Protocol tests for the snooping slotted-ring engine."""

import pytest

from repro.core.config import Protocol
from repro.core.metrics import MissClass
from repro.memory.states import CacheState
from tests.conftest import make_engine, run_reference


@pytest.fixture
def setup():
    sim, engine = make_engine(Protocol.SNOOPING)
    return sim, engine


def shared_address(engine, index=0):
    return engine.address_map.shared_block_address(index)


def remote_shared_address(engine, node, index_start=0):
    """A shared address whose home is NOT `node`."""
    for index in range(index_start, index_start + 10_000):
        address = engine.address_map.shared_block_address(index)
        if engine.address_map.home_of(address) != node:
            return address
    raise AssertionError("no remote shared block found")


def local_shared_address(engine, node, index_start=0):
    for index in range(index_start, index_start + 10_000):
        address = engine.address_map.shared_block_address(index)
        if engine.address_map.home_of(address) == node:
            return address
    raise AssertionError("no local shared block found")


# ----------------------------------------------------------------------
# Basic transactions
# ----------------------------------------------------------------------
def test_cold_read_installs_rs(setup):
    sim, engine = setup
    address = shared_address(engine)
    latency = run_reference(sim, engine, 0, address, False)
    assert engine.caches[0].state_of(address) is CacheState.RS
    assert latency > 0


def test_cold_write_installs_we_and_sets_dirty(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 0, address, True)
    block = engine.address_map.block_of(address)
    assert engine.caches[0].state_of(address) is CacheState.WE
    assert block in engine.dirty_owners
    assert engine.dirty_owners[block] == 0


def test_read_sharing_allows_multiple_rs(setup):
    sim, engine = setup
    address = shared_address(engine)
    for node in range(4):
        run_reference(sim, engine, node, address, False)
    for node in range(4):
        assert engine.caches[node].state_of(address) is CacheState.RS
    engine.check_invariants()


def test_upgrade_invalidates_other_sharers(setup):
    sim, engine = setup
    address = shared_address(engine)
    for node in range(4):
        run_reference(sim, engine, node, address, False)
    run_reference(sim, engine, 2, address, True)  # upgrade
    assert engine.caches[2].state_of(address) is CacheState.WE
    for node in (0, 1, 3):
        assert engine.caches[node].state_of(address) is CacheState.INV
    assert engine.stats.upgrade_latency.count == 1
    assert engine.stats.upgrades_with_sharers == 1
    engine.check_invariants()


def test_upgrade_without_sharers_counted(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 0, address, False)
    run_reference(sim, engine, 0, address, True)
    assert engine.stats.upgrades_without_sharers == 1
    assert engine.stats.upgrades_with_sharers == 0


def test_read_of_dirty_block_downgrades_owner(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 1, address, True)  # P1 owns WE
    run_reference(sim, engine, 3, address, False)  # P3 reads
    assert engine.caches[1].state_of(address) is CacheState.RS
    assert engine.caches[3].state_of(address) is CacheState.RS
    block = engine.address_map.block_of(address)
    assert block not in engine.dirty_owners
    engine.check_invariants()


def test_write_miss_on_dirty_transfers_ownership(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 1, address, True)
    run_reference(sim, engine, 3, address, True)
    block = engine.address_map.block_of(address)
    assert engine.caches[1].state_of(address) is CacheState.INV
    assert engine.caches[3].state_of(address) is CacheState.WE
    assert engine.dirty_owners[block] == 3
    engine.check_invariants()


def test_write_miss_invalidates_all_sharers(setup):
    sim, engine = setup
    address = shared_address(engine)
    for node in range(3):
        run_reference(sim, engine, node, address, False)
    run_reference(sim, engine, 3, address, True)
    for node in range(3):
        assert engine.caches[node].state_of(address) is CacheState.INV
    assert engine.caches[3].state_of(address) is CacheState.WE


# ----------------------------------------------------------------------
# Miss classification
# ----------------------------------------------------------------------
def test_local_clean_read_takes_no_probe(setup):
    sim, engine = setup
    node = 2
    address = local_shared_address(engine, node)
    run_reference(sim, engine, node, address, False)
    assert engine.stats.probes_sent == 0
    counts = engine.stats.counts_by_class()
    assert counts[MissClass.LOCAL_CLEAN] == 1


def test_remote_clean_read_probes_once(setup):
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    run_reference(sim, engine, 0, address, False)
    assert engine.stats.probes_sent == 1
    assert engine.stats.broadcast_probes == 1
    assert engine.stats.blocks_sent == 1
    counts = engine.stats.counts_by_class()
    assert counts[MissClass.REMOTE_CLEAN] == 1


def test_dirty_miss_classified_remote_dirty(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 1, address, True)
    run_reference(sim, engine, 3, address, False)
    counts = engine.stats.counts_by_class()
    assert counts[MissClass.REMOTE_DIRTY] == 1


def test_private_miss_classified_private(setup):
    sim, engine = setup
    address = engine.address_map.private_block_address(0, 7)
    run_reference(sim, engine, 0, address, False)
    counts = engine.stats.counts_by_class()
    assert counts[MissClass.PRIVATE] == 1
    assert engine.stats.probes_sent == 0


def test_private_upgrade_is_silent_and_free(setup):
    sim, engine = setup
    address = engine.address_map.private_block_address(0, 7)
    run_reference(sim, engine, 0, address, False)
    latency = run_reference(sim, engine, 0, address, True)
    assert engine.caches[0].state_of(address) is CacheState.WE
    assert latency == 0
    assert engine.stats.upgrade_latency.count == 0
    assert engine.stats.probes_sent == 0


def test_all_snooping_transactions_take_one_traversal(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 0, address, True)
    run_reference(sim, engine, 1, address, False)
    run_reference(sim, engine, 2, address, True)
    row = engine.stats.miss_traversals.as_paper_row()
    assert row["1"] == pytest.approx(100.0)
    assert row["2"] == 0.0


# ----------------------------------------------------------------------
# Latency structure
# ----------------------------------------------------------------------
def test_remote_miss_latency_includes_ring_and_memory(setup):
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    latency = run_reference(sim, engine, 0, address, False)
    ring_ps = engine.topology.total_stages * engine.clock_ps
    memory_ps = engine.config.memory.access_ps
    assert latency >= ring_ps + memory_ps
    # And it is not wildly above the uncontended path.
    assert latency <= ring_ps * 3 + memory_ps + 50_000


def test_uma_property_latency_position_independent(setup):
    """Snooping miss latency must not depend on who the requester is
    relative to the home (the paper's UMA claim)."""
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    latencies = []
    for node in range(4):
        if engine.address_map.home_of(address) == node:
            continue
        sim_n, engine_n = make_engine(Protocol.SNOOPING)
        latencies.append(run_reference(sim_n, engine_n, node, address, False))
    # All requesters see the same uncontended latency (same slot
    # alignment modulo one frame).
    frame_ps = engine.layout.frame_stages * engine.clock_ps
    assert max(latencies) - min(latencies) <= 2 * frame_ps


def test_upgrade_latency_is_traversal_plus_frame(setup):
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    run_reference(sim, engine, 0, address, False)
    latency = run_reference(sim, engine, 0, address, True)
    ring_ps = engine.topology.total_stages * engine.clock_ps
    frame_ps = engine.layout.frame_stages * engine.clock_ps
    assert ring_ps + frame_ps <= latency <= ring_ps + 3 * frame_ps


# ----------------------------------------------------------------------
# Write-backs
# ----------------------------------------------------------------------
def test_we_eviction_writes_back_and_clears_dirty(setup):
    sim, engine = setup
    num_lines = engine.caches[0].num_lines
    addr_a = shared_address(engine, 0)
    addr_b = engine.address_map.shared_block_address(num_lines)  # conflicts
    run_reference(sim, engine, 0, addr_a, True)
    block_a = engine.address_map.block_of(addr_a)
    assert block_a in engine.dirty_owners
    run_reference(sim, engine, 0, addr_b, False)
    sim.run()  # let the background write-back drain
    assert block_a not in engine.dirty_owners
    assert engine.caches[0].state_of(addr_a) is CacheState.INV


def test_rs_eviction_is_silent(setup):
    sim, engine = setup
    num_lines = engine.caches[0].num_lines
    addr_a = shared_address(engine, 0)
    addr_b = engine.address_map.shared_block_address(num_lines)
    run_reference(sim, engine, 0, addr_a, False)
    blocks_before = engine.stats.blocks_sent
    run_reference(sim, engine, 0, addr_b, False)
    sim.run()
    # Only the fill for addr_b moved a block; no write-back happened.
    assert engine.stats.writebacks == 0
    assert engine.stats.blocks_sent <= blocks_before + 1


def test_write_miss_after_completed_writeback(setup):
    """Writing a block again after its dirty copy was evicted and its
    write-back drained is a plain write miss that takes ownership back
    (the write-back-buffer reclaim is covered in test_engine_commit)."""
    sim, engine = setup
    num_lines = engine.caches[0].num_lines
    addr_a = shared_address(engine, 0)
    addr_b = engine.address_map.shared_block_address(num_lines)
    run_reference(sim, engine, 0, addr_a, True)  # WE
    run_reference(sim, engine, 0, addr_b, False)  # evicts addr_a
    # Each run_reference drains the queued write-back.
    run_reference(sim, engine, 0, addr_b, False)
    run_reference(sim, engine, 0, addr_a, True)
    sim.run()
    assert engine.caches[0].state_of(addr_a) is CacheState.WE
    engine.check_invariants()


def test_sharing_writeback_traffic_counted(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 1, address, True)
    run_reference(sim, engine, 3, address, False)
    sim.run()
    assert engine.stats.sharing_writebacks == 1
