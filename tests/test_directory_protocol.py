"""Protocol tests for the full-map directory slotted-ring engine."""

import pytest

from repro.core.config import Protocol
from repro.core.metrics import MissClass
from repro.memory.states import CacheState
from tests.conftest import make_engine, run_reference
from tests.test_snooping import local_shared_address, remote_shared_address


@pytest.fixture
def setup():
    sim, engine = make_engine(Protocol.DIRECTORY)
    return sim, engine


def shared_address(engine, index=0):
    return engine.address_map.shared_block_address(index)


def directory_entry(engine, address):
    return engine.directory_for(address).entry(
        engine.address_map.block_of(address)
    )


# ----------------------------------------------------------------------
# Directory bookkeeping
# ----------------------------------------------------------------------
def test_read_registers_sharer(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 0, address, False)
    entry = directory_entry(engine, address)
    assert entry.sharers == {0}
    assert not entry.dirty


def test_multiple_readers_accumulate_presence_bits(setup):
    sim, engine = setup
    address = shared_address(engine)
    for node in range(4):
        run_reference(sim, engine, node, address, False)
    assert directory_entry(engine, address).sharers == {0, 1, 2, 3}


def test_write_sets_exclusive(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 2, address, True)
    entry = directory_entry(engine, address)
    assert entry.dirty
    assert entry.owner == 2


def test_write_after_sharing_invalidates_precisely(setup):
    sim, engine = setup
    address = shared_address(engine)
    for node in range(3):
        run_reference(sim, engine, node, address, False)
    run_reference(sim, engine, 3, address, True)
    entry = directory_entry(engine, address)
    assert entry.owner == 3
    for node in range(3):
        assert engine.caches[node].state_of(address) is CacheState.INV
    engine.check_invariants()


def test_read_of_dirty_downgrades_and_reshapes_directory(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 1, address, True)
    run_reference(sim, engine, 3, address, False)
    entry = directory_entry(engine, address)
    assert not entry.dirty
    assert entry.sharers == {1, 3}
    assert engine.caches[1].state_of(address) is CacheState.RS


def test_upgrade_with_sharers_multicasts(setup):
    sim, engine = setup
    address = shared_address(engine)
    for node in range(4):
        run_reference(sim, engine, node, address, False)
    broadcasts_before = engine.stats.broadcast_probes
    run_reference(sim, engine, 0, address, True)
    assert engine.stats.broadcast_probes == broadcasts_before + 1
    assert engine.stats.upgrades_with_sharers == 1
    for node in (1, 2, 3):
        assert engine.caches[node].state_of(address) is CacheState.INV
    engine.check_invariants()


def test_upgrade_without_sharers_skips_multicast(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 0, address, False)
    broadcasts_before = engine.stats.broadcast_probes
    run_reference(sim, engine, 0, address, True)
    assert engine.stats.broadcast_probes == broadcasts_before
    assert engine.stats.upgrades_without_sharers == 1


# ----------------------------------------------------------------------
# Miss classification (Figure 5 semantics)
# ----------------------------------------------------------------------
def test_remote_clean_is_one_traversal(setup):
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    run_reference(sim, engine, 0, address, False)
    counts = engine.stats.counts_by_class()
    assert counts[MissClass.REMOTE_CLEAN] == 1
    assert engine.stats.miss_traversals.as_paper_row()["1"] == 100.0


def test_local_clean_uses_no_ring(setup):
    sim, engine = setup
    node = 1
    address = local_shared_address(engine, node)
    run_reference(sim, engine, node, address, False)
    assert engine.stats.probes_sent == 0
    assert engine.stats.counts_by_class()[MissClass.LOCAL_CLEAN] == 1


def test_dirty_miss_classification_matches_geometry(setup):
    """A dirty miss is 1-cycle when the dirty node is NOT between the
    requester and the home, 2-cycle when it is (paper Fig. 2.b)."""
    sim, engine = setup
    address = shared_address(engine)
    home = engine.address_map.home_of(address)
    # Pick an owner and requester relative to the home.
    others = [n for n in range(4) if n != home]
    owner, requester = others[0], others[1]
    run_reference(sim, engine, owner, address, True)
    run_reference(sim, engine, requester, address, False)
    counts = engine.stats.counts_by_class()
    expected_two_cycle = engine.topology.is_on_path(requester, owner, home)
    if expected_two_cycle:
        assert counts[MissClass.TWO_CYCLE] == 1
    else:
        assert counts[MissClass.DIRTY_ONE_CYCLE] == 1


def test_write_with_sharers_is_two_cycle_when_remote(setup):
    sim, engine = setup
    address = remote_shared_address(engine, 3)
    home = engine.address_map.home_of(address)
    readers = [n for n in range(4) if n not in (3,)]
    for node in readers:
        run_reference(sim, engine, node, address, False)
    run_reference(sim, engine, 3, address, True)
    counts = engine.stats.counts_by_class()
    assert counts[MissClass.TWO_CYCLE] == 1


def test_traversal_histogram_never_exceeds_two(setup):
    """Full-map transactions need at most 2 traversals (Table 1 shows
    0.0% at '3 or more')."""
    sim, engine = setup
    addresses = [shared_address(engine, i) for i in range(6)]
    for round_number in range(3):
        for node in range(4):
            for address in addresses:
                run_reference(
                    sim, engine, node, address, (node + round_number) % 3 == 0
                )
    assert engine.stats.miss_traversals.percentage_at_least(3) == 0.0
    assert engine.stats.upgrade_traversals.percentage_at_least(3) == 0.0
    engine.check_invariants()


# ----------------------------------------------------------------------
# Latency ordering
# ----------------------------------------------------------------------
def test_dirty_one_cycle_slower_than_clean_one_cycle(setup):
    """Three hops cost more than two at equal traversal count."""
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    clean_latency = run_reference(sim, engine, 0, address, False)

    sim2, engine2 = make_engine(Protocol.DIRECTORY)
    address2 = remote_shared_address(engine2, 0)
    home2 = engine2.address_map.home_of(address2)
    owner_candidates = [
        n
        for n in range(4)
        if n not in (0, home2)
        and not engine2.topology.is_on_path(0, n, home2)
    ]
    if not owner_candidates:
        pytest.skip("no 1-cycle dirty geometry available at 4 nodes")
    run_reference(sim2, engine2, owner_candidates[0], address2, True)
    dirty_latency = run_reference(sim2, engine2, 0, address2, False)
    assert dirty_latency > clean_latency


def test_writeback_clears_directory(setup):
    sim, engine = setup
    num_lines = engine.caches[0].num_lines
    addr_a = shared_address(engine, 0)
    addr_b = engine.address_map.shared_block_address(num_lines)
    run_reference(sim, engine, 0, addr_a, True)
    run_reference(sim, engine, 0, addr_b, False)
    sim.run()
    block_a = engine.address_map.block_of(addr_a)
    entry = engine.directory_for(addr_a).peek(block_a)
    assert entry is None or not entry.dirty


def test_write_miss_after_completed_writeback_sets_directory(setup):
    """The evicted block's write-back drains before the next reference,
    so writing it again is a plain write miss."""
    sim, engine = setup
    num_lines = engine.caches[0].num_lines
    addr_a = shared_address(engine, 0)
    addr_b = engine.address_map.shared_block_address(num_lines)
    run_reference(sim, engine, 0, addr_a, True)
    run_reference(sim, engine, 0, addr_b, False)
    run_reference(sim, engine, 0, addr_a, True)  # write miss
    sim.run()
    entry = directory_entry(engine, addr_a)
    assert entry.dirty
    assert entry.owner == 0
    assert engine.caches[0].state_of(addr_a) is CacheState.WE
    engine.check_invariants()


def test_stale_presence_bits_after_silent_rs_eviction(setup):
    """RS replacements do not notify the home; the stale presence bit
    is tolerated (invalidation of an absent copy is a no-op)."""
    sim, engine = setup
    num_lines = engine.caches[1].num_lines
    addr_a = shared_address(engine, 0)
    addr_b = engine.address_map.shared_block_address(num_lines)
    run_reference(sim, engine, 1, addr_a, False)
    run_reference(sim, engine, 1, addr_b, False)  # silently evicts addr_a
    assert 1 in directory_entry(engine, addr_a).sharers  # stale
    run_reference(sim, engine, 2, addr_a, True)  # multicast covers node 1
    sim.run()
    assert engine.caches[1].state_of(addr_a) is CacheState.INV
    assert directory_entry(engine, addr_a).owner == 2
    engine.check_invariants()


def test_private_misses_skip_directory(setup):
    sim, engine = setup
    address = engine.address_map.private_block_address(2, 11)
    run_reference(sim, engine, 2, address, True)
    assert engine.stats.probes_sent == 0
    assert engine.stats.counts_by_class()[MissClass.PRIVATE] == 1
