"""Property-based protocol tests: random traffic, hard invariants.

For any interleaving of reads and writes from any processors, after
all transactions drain every engine must satisfy:

* single-writer / multiple-reader (at most one WE copy, never WE + RS);
* a writer's own cache ends in WE;
* engine bookkeeping (dirty bits, directories, sharing lists) agrees
  with the caches;
* snooping transactions never take more than one ring traversal, and
  full-map transactions never more than two.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import Protocol
from repro.memory.states import CacheState
from tests.conftest import make_engine, run_reference

#: A random access: (processor, block index, is_write).
ACCESS = st.tuples(
    st.integers(0, 3), st.integers(0, 7), st.booleans()
)

PROTOCOL_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def drive_sequence(protocol, accesses):
    sim, engine = make_engine(protocol)
    for node, block_index, is_write in accesses:
        address = engine.address_map.shared_block_address(block_index)
        run_reference(sim, engine, node, address, is_write)
    sim.run()  # drain background write-backs / detaches
    return sim, engine


def check_common_invariants(engine, accesses):
    engine.check_invariants()
    # The last writer of every block either still holds WE or was
    # legitimately invalidated/downgraded by someone later; at minimum
    # the *final* access's own guarantee must hold:
    if accesses:
        node, block_index, is_write = accesses[-1]
        address = engine.address_map.shared_block_address(block_index)
        state = engine.caches[node].state_of(address)
        if is_write:
            assert state is CacheState.WE
        else:
            assert state in (CacheState.RS, CacheState.WE)


@given(st.lists(ACCESS, min_size=1, max_size=40))
@PROTOCOL_SETTINGS
def test_snooping_invariants_under_random_traffic(accesses):
    sim, engine = drive_sequence(Protocol.SNOOPING, accesses)
    check_common_invariants(engine, accesses)
    # Snooping: everything commits in exactly one traversal.
    assert engine.stats.miss_traversals.percentage_at_least(2) == 0.0
    assert engine.stats.upgrade_traversals.percentage_at_least(2) == 0.0
    # Dirty-bit bookkeeping agrees with the caches.
    for node, cache in enumerate(engine.caches):
        for block_address, state in cache.resident_blocks().items():
            block = engine.address_map.block_of(block_address)
            if state is CacheState.WE and engine.address_map.is_shared(
                block_address
            ):
                assert block in engine.dirty_owners
                assert engine.dirty_owners[block] == node


@given(st.lists(ACCESS, min_size=1, max_size=40))
@PROTOCOL_SETTINGS
def test_directory_invariants_under_random_traffic(accesses):
    sim, engine = drive_sequence(Protocol.DIRECTORY, accesses)
    check_common_invariants(engine, accesses)
    # Full map never needs three traversals (paper Table 1).
    assert engine.stats.miss_traversals.percentage_at_least(3) == 0.0
    assert engine.stats.upgrade_traversals.percentage_at_least(3) == 0.0
    # Directory state is a superset of cache state (silent RS
    # replacements may leave stale presence bits, never missing ones),
    # and dirty entries are exact.
    for node, cache in enumerate(engine.caches):
        for block_address, state in cache.resident_blocks().items():
            if not engine.address_map.is_shared(block_address):
                continue
            block = engine.address_map.block_of(block_address)
            entry = engine.directory_for(block_address).entry(block)
            assert node in entry.sharers
            if state is CacheState.WE:
                assert entry.dirty and entry.owner == node


@given(st.lists(ACCESS, min_size=1, max_size=40))
@PROTOCOL_SETTINGS
def test_linkedlist_invariants_under_random_traffic(accesses):
    sim, engine = drive_sequence(Protocol.LINKED_LIST, accesses)
    check_common_invariants(engine, accesses)
    for node, cache in enumerate(engine.caches):
        for block_address, state in cache.resident_blocks().items():
            if not engine.address_map.is_shared(block_address):
                continue
            block = engine.address_map.block_of(block_address)
            entry = engine.directory_for(block_address).entry(block)
            assert node in entry.sharers
            if state is CacheState.WE:
                assert entry.dirty and entry.head == node
    # Sharing lists never contain duplicates.
    for directory in engine.directories:
        for block, entry in directory._entries.items():
            assert len(entry.sharers) == len(set(entry.sharers))


@given(st.lists(ACCESS, min_size=1, max_size=40))
@PROTOCOL_SETTINGS
def test_bus_invariants_under_random_traffic(accesses):
    sim, engine = drive_sequence(Protocol.BUS, accesses)
    check_common_invariants(engine, accesses)
    # Bus never left held.
    assert not engine.bus.busy


@given(st.lists(ACCESS, min_size=1, max_size=25))
@settings(max_examples=15, deadline=None)
def test_protocols_agree_on_final_cache_state(accesses):
    """All four protocols implement the same abstract write-invalidate
    machine: driven sequentially (transactions fully drained between
    references), the final cache states must agree exactly."""
    finals = []
    for protocol in (
        Protocol.SNOOPING,
        Protocol.DIRECTORY,
        Protocol.LINKED_LIST,
        Protocol.BUS,
    ):
        sim, engine = drive_sequence(protocol, accesses)
        snapshot = tuple(
            frozenset(cache.resident_blocks().items())
            for cache in engine.caches
        )
        finals.append(snapshot)
    assert all(final == finals[0] for final in finals[1:])
