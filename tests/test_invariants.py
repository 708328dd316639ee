"""Protocol-invariant suite: randomized workloads, machine-checked state.

Formal protocol modelling work (e.g. Meunier et al.'s CSP/FDR ring
models) checks coherence protocols by exhausting small state spaces;
this suite approximates that with seeded randomized workloads over the
snooping, full-map directory and linked-list engines, asserting the
core invariants after every drained transaction:

* **Single-writer / multi-reader** -- at most one cache holds a block
  WE, and never concurrently with RS copies elsewhere (the engines'
  own ``check_invariants`` plus direct assertions here).
* **Directory-cache agreement** -- each protocol's ownership metadata
  (dirty bit + owner hint, presence bits, sharing list) matches the
  actual cache states.  The full map is allowed stale presence bits
  for silently replaced RS lines (the paper's protocol replaces shared
  lines without notifying the home), so its sharer set is checked as a
  superset; the linked list rolls nodes out on replacement, so its
  chain is checked exactly.
* **No lost writes** -- after a write transaction drains, the writer
  is the sole WE holder and every ownership record names it, so any
  later read must source its data.

Workloads are deterministic (seeded ``random.Random``), use a small
cache to force conflict evictions and write-backs, and run both
one-reference-at-a-time (strongest assertions) and concurrent-batch
(interleaving stress) schedules.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import CacheConfig, Protocol, SystemConfig
from repro.core.experiment import build_engine
from repro.memory.cache import AccessOutcome
from repro.memory.states import CacheState
from repro.sim.kernel import Simulator

#: Engines under test (bus/hierarchical have their own suites).
PROTOCOLS = (Protocol.SNOOPING, Protocol.DIRECTORY, Protocol.LINKED_LIST)

NODES = 4
#: 512 B / 16 B = 32 lines: a pool of 48 blocks forces evictions.
SMALL_CACHE = CacheConfig(size_bytes=512, block_size=16)
POOL_BLOCKS = 48
REFS_PER_RUN = 400
BATCHES = 60
SEEDS = (1, 2026)


def fresh_engine(protocol: Protocol):
    sim = Simulator()
    config = SystemConfig(
        num_processors=NODES, protocol=protocol, cache=SMALL_CACHE
    )
    return sim, build_engine(sim, config)


def drive(sim, engine, node: int, address: int, is_write: bool) -> None:
    """One reference through the engine, event loop drained after."""
    outcome = engine.caches[node].classify(address, is_write)
    if outcome is AccessOutcome.HIT:
        return
    sim.spawn(
        engine.miss(node, address, outcome), name=f"ref:n{node}"
    )
    sim.run()


def holders(engine, address: int):
    """{node: state} for every cache holding the block."""
    return {
        node: cache.state_of(address)
        for node, cache in enumerate(engine.caches)
        if cache.state_of(address) is not CacheState.INV
    }


def writers(engine, address: int):
    return [
        node
        for node, state in holders(engine, address).items()
        if state is CacheState.WE
    ]


# ----------------------------------------------------------------------
# Per-protocol directory-cache agreement
# ----------------------------------------------------------------------
def assert_agreement(engine, protocol: Protocol, address: int) -> None:
    block = engine.address_map.block_of(address)
    held = holders(engine, address)
    writing = writers(engine, address)
    # Single-writer / multi-reader, directly.
    assert len(writing) <= 1, f"block {block}: multiple writers {writing}"
    if writing:
        assert held == {writing[0]: CacheState.WE}, (
            f"block {block}: WE at {writing[0]} alongside sharers {held}"
        )

    if protocol is Protocol.SNOOPING:
        dirty = block in engine.dirty_owners
        if dirty:
            owner = engine.dirty_owners.get(block)
            assert writing == [owner], (
                f"block {block}: dirty bit names {owner}, caches say "
                f"{writing}"
            )
        else:
            assert not writing, (
                f"block {block}: WE at {writing} but dirty bit clear"
            )
        return

    directory = engine.directory_for(address)
    entry = directory.peek(block)
    sharers = set(entry.sharers) if entry is not None else set()
    dirty = bool(entry.dirty) if entry is not None else False

    # Every actual holder must be visible to the home.
    assert set(held) <= sharers, (
        f"block {block}: caches {set(held)} unknown to directory "
        f"{sharers}"
    )
    if protocol is Protocol.LINKED_LIST:
        # Rollout on replacement keeps the list exact and duplicate-free.
        assert entry is None or len(entry.sharers) == len(set(entry.sharers))
        assert sharers == set(held), (
            f"block {block}: chain {sharers} vs caches {set(held)}"
        )
    if dirty:
        assert len(sharers) == 1, (
            f"block {block}: dirty with sharer set {sharers}"
        )
        (owner,) = sharers
        assert writing == [owner], (
            f"block {block}: directory owner {owner}, caches say {writing}"
        )
    else:
        assert not writing, (
            f"block {block}: WE at {writing} but directory clean"
        )


def assert_all_agreement(engine, protocol: Protocol, addresses) -> None:
    engine.check_invariants()
    for address in addresses:
        assert_agreement(engine, protocol, address)


# ----------------------------------------------------------------------
# Randomized sequential workload (strongest per-step assertions)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_sequential_workload(protocol, seed):
    sim, engine = fresh_engine(protocol)
    rng = random.Random(seed)
    pool = [
        engine.address_map.shared_block_address(index)
        for index in range(POOL_BLOCKS)
    ]
    last_writer = {}
    for _ in range(REFS_PER_RUN):
        node = rng.randrange(NODES)
        address = rng.choice(pool)
        is_write = rng.random() < 0.35
        drive(sim, engine, node, address, is_write)
        assert_all_agreement(engine, protocol, pool)
        block = engine.address_map.block_of(address)
        if is_write:
            last_writer[block] = node
            # No lost write: the writer is the sole WE holder, so a
            # subsequent read anywhere must source from it.
            assert engine.caches[node].state_of(address) is CacheState.WE
            for other in range(NODES):
                if other != node:
                    assert (
                        engine.caches[other].state_of(address)
                        is CacheState.INV
                    )
            assert engine.owned_by(address, node)
        else:
            # A read never destroys the last write: if the block is
            # still dirty anywhere, ownership is coherent with caches
            # (checked above); if the writer was downgraded, it holds
            # RS data -- the write survives in some cache or at home
            # after its write-back, never silently in an INV line.
            writer = last_writer.get(block)
            if writer is not None and writers(engine, address):
                assert writers(engine, address) == [writer]


# ----------------------------------------------------------------------
# Concurrent batches (interleaving stress)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
def test_randomized_concurrent_batches(protocol):
    sim, engine = fresh_engine(protocol)
    rng = random.Random(90_93)
    pool = [
        engine.address_map.shared_block_address(index)
        for index in range(POOL_BLOCKS)
    ]
    for _ in range(BATCHES):
        spawned = 0
        for node in range(NODES):
            address = rng.choice(pool)
            is_write = rng.random() < 0.35
            outcome = engine.caches[node].classify(address, is_write)
            if outcome is AccessOutcome.HIT:
                continue
            sim.spawn(
                engine.miss(node, address, outcome), name=f"batch:n{node}"
            )
            spawned += 1
        if spawned:
            sim.run()
        # After the batch drains, every invariant must hold again.
        assert_all_agreement(engine, protocol, pool)


# ----------------------------------------------------------------------
# Directed no-lost-write scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
def test_write_then_remote_read_preserves_ownership_chain(protocol):
    """W(0) -> R(1) -> R(2): the dirty copy is downgraded, never lost."""
    sim, engine = fresh_engine(protocol)
    address = engine.address_map.shared_block_address(0)
    drive(sim, engine, 0, address, True)
    assert engine.caches[0].state_of(address) is CacheState.WE
    drive(sim, engine, 1, address, False)
    # The writer's data survived: node 0 holds RS (sharing write-back
    # semantics) or the home took the block back -- never a lost line.
    assert engine.caches[1].state_of(address) is CacheState.RS
    assert engine.caches[0].state_of(address) in (
        CacheState.RS,
        CacheState.INV,
    )
    drive(sim, engine, 2, address, False)
    assert engine.caches[2].state_of(address) is CacheState.RS
    assert_all_agreement(engine, protocol, [address])


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
def test_ping_pong_writes_alternate_exclusivity(protocol):
    """Alternating writers: exactly one WE holder after each write."""
    sim, engine = fresh_engine(protocol)
    address = engine.address_map.shared_block_address(3)
    for turn in range(8):
        node = turn % NODES
        drive(sim, engine, node, address, True)
        assert writers(engine, address) == [node]
        assert engine.owned_by(address, node)
        assert_all_agreement(engine, protocol, [address])


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
def test_eviction_pressure_keeps_directories_consistent(protocol):
    """Conflict-miss churn (pool >> cache) never desyncs the home."""
    sim, engine = fresh_engine(protocol)
    rng = random.Random(7)
    pool = [
        engine.address_map.shared_block_address(index)
        for index in range(POOL_BLOCKS * 2)
    ]
    for _ in range(300):
        drive(
            sim,
            engine,
            rng.randrange(NODES),
            rng.choice(pool),
            rng.random() < 0.5,
        )
    assert_all_agreement(engine, protocol, pool)
    # Something actually churned.
    total_writebacks = sum(
        cache.stats.writebacks for cache in engine.caches
    )
    assert total_writebacks > 0


# ----------------------------------------------------------------------
# The checker's dirty-owner agreement, on every organisation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_check_block_catches_dirty_owner_disagreement(protocol):
    """The three dirty-owner checks ``check_block`` writes once fire on
    the dirty-bit, full-map and list views alike."""
    from repro.check.invariants import InvariantViolation, check_block

    def disagreement(**kwargs):
        with pytest.raises(InvariantViolation) as raised:
            check_block(engine, address, **kwargs)
        assert raised.value.kind == "agreement"
        return str(raised.value)

    sim, engine = fresh_engine(protocol)
    address = engine.address_map.shared_block_address(5)
    block = f"{engine.address_map.block_of(address):#x}"
    drive(sim, engine, 0, address, True)
    check_block(engine, address, strict=True)

    # A writer that is not the recorded owner.
    engine.track_exclusive(1, address)
    message = disagreement()
    assert block in message and "owner 1" in message and "[0]" in message

    # A writer while the metadata says clean.
    engine.release_ownership(address)
    message = disagreement()
    assert block in message and "[0]" in message

    # At quiescence the dirty owner must itself hold the block WE.
    engine.track_exclusive(0, address)
    engine.caches[0].snoop_downgrade(address)
    check_block(engine, address)
    message = disagreement(strict=True)
    assert block in message and "owner 0" in message and "[]" in message
