"""The protocol-neutral coherence engine every interconnect builds on.

A protocol engine owns the caches, memory banks and coherence
bookkeeping for one simulated machine.  Processors call
:meth:`CoherenceEngine.miss` (a generator to ``yield from``) for every
reference that does not hit; the engine plays out the whole coherence
transaction -- arbitration or slot waits, message hops, memory
accesses, snoop side effects -- and returns when the processor may
resume.

The flat rings, the two-level ring hierarchy and the split-transaction
bus run the same three-state write-invalidate machinery and differ only
in how messages travel.  This module holds that machinery once; an
engine supplies

* :meth:`~CoherenceEngine.shared_miss` and
  :meth:`~CoherenceEngine.upgrade` -- the transaction bodies for misses
  and upgrades on shared data, which :meth:`~CoherenceEngine.miss`
  calls directly;
* :meth:`~CoherenceEngine.carry_block` -- the transport of one block
  from a node to another (a ring block slot, a bus hold, or the
  hierarchy's three-segment route), used by write-backs and memory
  updates;
* :meth:`~CoherenceEngine.network_utilization` and any statistics of
  its own interconnect (:meth:`~CoherenceEngine.reset_statistics`).

Ownership state lives in one of two layers below the engines, which
supply the ownership queries (:meth:`~CoherenceEngine.owned_by`,
:meth:`~CoherenceEngine.dirty_hint`,
:meth:`~CoherenceEngine.coherence_view`) and the hooks the spec's
bookkeeping ops run through (:meth:`~CoherenceEngine.track_shared`,
:meth:`~CoherenceEngine.track_exclusive`,
:meth:`~CoherenceEngine.memory_writeback`,
:meth:`~CoherenceEngine.release_ownership`):

* :class:`DirtyBitEngine` -- one ``block -> dirty owner`` map, for the
  snooping ring, the bus and the ring hierarchy;
* :class:`DirectoryEngine` -- one
  :class:`~repro.memory.directory_store.HomeDirectory` per home node,
  for the full map and the linked list.

Transactions come from the spec
-------------------------------
At import this module derives one table per protocol from
:data:`repro.spec.SPECS` (:data:`COMMIT_TABLES`).  A transaction body
reads its cell's remote ops (:meth:`~CoherenceEngine.remote_ops`: whom
to invalidate or downgrade), the ownership layer names their nodes
(:meth:`~CoherenceEngine.remote_targets`, ``sharer_targets``), and the
interconnect only delivers them, with its own timing.  Then one
:meth:`~CoherenceEngine.commit` runs the rule's other ops.

Concurrency discipline
----------------------
Transactions on *different* blocks proceed concurrently and contend
only for the interconnect and memory banks.  Transactions on the *same*
block are serialised by a per-block lock, which stands in for the
transient states and NAK/retry mechanisms a hardware implementation
would use.  Write-backs run as background processes holding the victim
block's lock; a write-back finding that ownership moved while it waited
simply aborts (the new owner has the only valid copy).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple, Type

from repro.core.config import SystemConfig
from repro.core.metrics import CoherenceStats, MissClass
from repro.memory.address import AddressMap
from repro.memory.bank import MemoryBank, build_banks
from repro.memory.cache import (
    AccessOutcome,
    CacheStats,
    DirectMappedCache,
    sharers_other_than,
)
from repro.memory.directory_store import HomeDirectory
from repro.memory.states import CacheState
from repro.sim.kernel import Simulator
from repro.sim.queues import ReadWriteLock
from repro.spec.core import SPECS, ProtocolSpec

__all__ = [
    "COMMIT_TABLES",
    "CoherenceEngine",
    "DirectoryEngine",
    "DirtyBitEngine",
    "ProtocolError",
    "Step",
    "commit_rules",
]

#: Generator type of every protocol step: yields kernel requests.
Step = Generator[Any, Any, Any]

#: Spec ops, in the order they run.
Ops = Tuple[str, ...]

#: A protocol's commit table: ``(is_write, requester's line state,
#: line dirty?)`` -> ``(remote ops, commit ops)``.
CommitTable = Dict[Tuple[bool, CacheState, bool], Tuple[Ops, Ops]]

#: The spec ops a body delivers to other caches before it commits.
REMOTE_OPS = ("invalidate-sharers", "invalidate-owner", "downgrade-owner")

#: The nodes a cell's remote ops reach: ``(invalidated, downgraded)``.
Targets = Tuple[Sequence[int], Sequence[int]]

#: The spec ops :meth:`CoherenceEngine.commit` runs, in the order it
#: runs them: the ownership bookkeeping first, then the requester's
#: line.
COMMIT_OPS = (
    "memory-writeback",
    "track-shared",
    "track-exclusive",
    "fill-shared",
    "fill-exclusive",
    "upgrade-line",
)


def commit_rules(spec: ProtocolSpec) -> CommitTable:
    """Derive one protocol's commit table from its spec.

    A miss or upgrade rule fills its cell for each dirty-guard value it
    is enabled under: its remote ops in spec order, then its commit ops.
    Hits and evictions commit nothing here, so their cells stay empty,
    as does every cell no rule covers (an upgrade of a dirty line):
    :meth:`CoherenceEngine.commit` raises on those.
    """
    table: CommitTable = {}
    for rule in spec.rules:
        bound = [spec.op_of(action) for action in rule.actions]
        ops = tuple(op for op in COMMIT_OPS if op in bound)
        if not ops:
            continue
        remote = tuple(op for op in bound if op in REMOTE_OPS)
        if rule.guard == "always":
            guards = (False, True)
        else:
            guards = (rule.guard == "line-dirty",)
        for dirty in guards:
            table[(rule.event == "write", rule.state, dirty)] = remote, ops
    return table


#: One commit table per protocol, keyed like :data:`repro.spec.SPECS`.
COMMIT_TABLES: Dict[str, CommitTable] = {
    name: commit_rules(spec) for name, spec in SPECS.items()
}


class ProtocolError(RuntimeError):
    """A coherence invariant was violated (always a bug)."""


class CoherenceEngine:
    """Caches + banks + the transaction skeleton shared by every protocol."""

    #: Telemetry component name for this engine's events.
    trace_category: str

    #: The :data:`repro.spec.SPECS` entry whose commit table this
    #: engine runs.
    spec_name: str

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        self.sim = sim
        self.config = config
        self.num_nodes = config.num_processors
        self.address_map = AddressMap(
            self.num_nodes, config.block_size, seed=config.seed
        )
        self.caches: List[DirectMappedCache] = [
            DirectMappedCache(config.cache.size_bytes, config.cache.block_size)
            for _ in range(self.num_nodes)
        ]
        self.banks: List[MemoryBank] = build_banks(
            sim, self.num_nodes, config.memory.access_ps
        )
        self.stats = CoherenceStats()
        self._locks: Dict[int, ReadWriteLock] = {}

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    @property
    def clock_ps(self) -> int:
        """Period of the interconnect clock (subclass provides)."""
        raise NotImplementedError

    def wait_until_cycle(self, cycle: int) -> Step:
        """Advance the calling process to interconnect cycle ``cycle``."""
        target_ps = cycle * self.clock_ps
        if target_ps > self.sim.now:
            yield self.sim.timeout(target_ps - self.sim.now)

    # ------------------------------------------------------------------
    # Per-block serialisation and ownership
    # ------------------------------------------------------------------
    def block_lock(self, block: int) -> ReadWriteLock:
        lock = self._locks.get(block)
        if lock is None:
            lock = ReadWriteLock(self.sim, name=f"block:{block:#x}")
            self._locks[block] = lock
        return lock

    def dirty_hint(self, address: int) -> bool:
        """Whether the block is currently write-owned somewhere.

        Subclasses consult their own ownership state (dirty bit,
        directory entry, or sharing-list head).
        """
        raise NotImplementedError

    def owned_by(self, address: int, node: int) -> bool:
        """Whether ``node`` currently write-owns the block.

        Used to pick the lock mode: read misses take the block lock
        *shared* -- concurrent read misses pipeline their responses at
        the owner or home, exactly as probes do in hardware -- unless
        the requester itself owns the block (write-back-buffer reclaim
        mutates ownership and needs exclusivity).  Writes, upgrades and
        write-backs always take the lock exclusive.  A write-back goes
        ahead only while its node still owns the block.
        """
        raise NotImplementedError

    def release_ownership(self, address: int) -> None:
        """Return a written-back block to its home: memory owns it."""
        raise NotImplementedError

    def coherence_view(self, block: int) -> tuple:
        """Canonical, hashable ownership metadata for ``block``.

        The first element tags the directory organisation
        (``"dirty-bit"``, ``"full-map"`` or ``"list"``); the rest is
        that organisation's state in a deterministic order.  The
        ``repro.check`` subsystem uses this both to canonicalize
        abstract system states and to check directory--cache agreement;
        it must be cheap and strictly read-only.
        """
        raise NotImplementedError

    def track_shared(self, node: int, address: int) -> None:
        """The ``track-shared`` op: record ``node``'s new RS copy."""
        raise NotImplementedError

    def track_exclusive(self, node: int, address: int) -> None:
        """The ``track-exclusive`` op: ``node`` is the dirty owner."""
        raise NotImplementedError

    def memory_writeback(self, owner: int, address: int) -> None:
        """The ``memory-writeback`` op: ``owner`` served a read of its
        dirty block, which goes clean; memory is updated off the
        critical path.  Gated: of several concurrent shared-mode
        readers, exactly one clears the dirty state and issues the
        update."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Remote ops: the spec names them, the ownership layer names their
    # nodes, the interconnect delivers them
    # ------------------------------------------------------------------
    def remote_ops(
        self, is_write: bool, owner: Optional[int], upgrade: bool = False
    ) -> Ops:
        """The remote ops, in spec order, of the cell for a miss (or an
        upgrade) of a block dirty at ``owner`` (``None``: clean).  A
        cell no rule covers has none; :meth:`commit` raises on it."""
        state = CacheState.RS if upgrade else CacheState.INV
        cell = COMMIT_TABLES[self.spec_name].get((is_write, state, owner is not None))
        return () if cell is None else cell[0]

    def remote_targets(
        self, ops: Ops, node: int, address: int, owner: Optional[int]
    ) -> Targets:
        """The nodes ``ops`` reach, ``(invalidated, downgraded)``: the
        sharers the ownership layer names (``sharer_targets``), or the
        owner -- to invalidate, only while its cache holds the line (an
        owner whose line left for its write-back buffer has none)."""
        invalidated: List[int] = []
        downgraded: List[int] = []
        for op in ops:
            if op == "invalidate-sharers":
                invalidated.extend(self.sharer_targets(node, address))
            elif op == "downgrade-owner":
                downgraded.append(owner)
            elif self.caches[owner].contains(address):
                invalidated.append(owner)
        return invalidated, downgraded

    def snoop_now(self, address: int, targets: Targets) -> None:
        """Deliver remote ops at once: each target's cache snoops now
        (a no-op where the line is absent)."""
        invalidated, downgraded = targets
        for target in invalidated:
            self.caches[target].snoop_invalidate(address)
        for target in downgraded:
            self.caches[target].snoop_downgrade(address)

    def schedule_invalidate(self, node: int, address: int, at_cycle: int) -> None:
        """Invalidate ``node``'s copy when the probe passes it."""
        snoop = self.caches[node].snoop_invalidate
        self.sim.spawn(self._at_cycle(at_cycle, snoop, address), name=f"inv:n{node}")

    def schedule_downgrade(self, node: int, address: int, at_cycle: int) -> None:
        """Downgrade ``node``'s WE copy to RS when the probe passes."""
        snoop = self.caches[node].snoop_downgrade
        self.sim.spawn(self._at_cycle(at_cycle, snoop, address), name=f"dgr:n{node}")

    def _at_cycle(self, cycle: int, snoop: Callable[[int], Any], address: int) -> Step:
        yield from self.wait_until_cycle(cycle)
        snoop(address)

    # ------------------------------------------------------------------
    # Fills and victims
    # ------------------------------------------------------------------
    def prepare_victim(self, node: int, address: int) -> None:
        """Evict the frame's victim ahead of the fill.

        A WE victim is moved to the node's (conceptual) write-back
        buffer: the line leaves the cache immediately, and a background
        process performs the write-back.
        """
        victim = self.caches[node].victim_for(address)
        if victim is None:
            return
        victim_address, state = victim
        self.caches[node].evict(victim_address)
        self.caches[node].stats.writebacks += state is CacheState.WE
        if state is CacheState.WE:
            self.sim.spawn(
                self.writeback(node, victim_address), name=f"wb:n{node}"
            )
        else:
            self.on_clean_eviction(node, victim_address)

    def on_clean_eviction(self, node: int, address: int) -> None:
        """Hook for protocols that must react to RS replacements.

        The snooping and full-map protocols replace shared lines
        silently (stale presence bits are harmless); the linked-list
        protocol overrides this to roll the node out of the sharing
        list.
        """

    def fill(self, node: int, address: int, state: CacheState) -> None:
        """Install the block; the victim was handled by prepare_victim.

        Under weak ordering a background upgrade may have re-claimed
        the frame between this transaction's victim handling and its
        fill; such a late arrival is evicted through the normal victim
        path (write-back and all).
        """
        if self.caches[node].victim_for(address) is not None:
            self.prepare_victim(node, address)
        self.caches[node].fill(address, state)

    def commit(
        self, node: int, address: int, is_write: bool, owner: Optional[int]
    ) -> None:
        """Commit a granted miss or upgrade at the requester by the
        spec's rule for the reference, the line's state now and the
        dirty guard.

        ``owner`` is the dirty owner the transaction found (``None`` if
        the line was clean): the guard, and the node a
        ``memory-writeback`` clears.  Under weak ordering the processor
        keeps running, and its own fills may evict an upgrading line
        mid-transaction; the write miss's rule then re-installs it WE
        from the store buffer (the permission was granted either way).
        """
        state = self.caches[node].state_of(address)
        dirty = owner is not None
        cell = COMMIT_TABLES[self.spec_name].get((is_write, state, dirty))
        if cell is None:
            raise ProtocolError(
                f"{self.spec_name}: no rule commits "
                f"({'write' if is_write else 'read'}, {state.name}, "
                f"{'line-dirty' if dirty else 'line-clean'}) "
                f"at node {node} for {address:#x}"
            )
        for op in cell[1]:
            if op == "memory-writeback":
                self.memory_writeback(owner, address)
            elif op == "track-shared":
                self.track_shared(node, address)
            elif op == "track-exclusive":
                self.track_exclusive(node, address)
            elif op == "upgrade-line":
                self.caches[node].apply_upgrade(address)
            elif op == "fill-shared":
                self.fill(node, address, CacheState.RS)
            else:
                self.fill(node, address, CacheState.WE)

    def reclaim_victim(self, node: int, address: int) -> Step:
        """Evict the victim of a write-back-buffer reclaim's fill."""
        self.prepare_victim(node, address)
        yield from ()

    def _reclaim_from_buffer(
        self, node: int, address: int, outcome: AccessOutcome, start_ps: int
    ) -> Step:
        """Re-acquire a block pending in the node's own write-back buffer.

        No interconnect transaction: the commit is the dirty miss's
        rule with the node itself as the owner.  A write keeps the
        ownership (the queued write-back aborts when it finds the new
        WE copy); a read turns the buffered data into a memory update.
        """
        yield from self.reclaim_victim(node, address)
        yield self.sim.timeout(self.config.memory.cache_response_ps)
        is_write = outcome is not AccessOutcome.READ_MISS
        self.commit(node, address, is_write, node)
        self.stats.record_miss(MissClass.LOCAL_CLEAN, self.sim.now - start_ps)

    # ------------------------------------------------------------------
    # Transaction entry point
    # ------------------------------------------------------------------
    def miss(self, node: int, address: int, outcome: AccessOutcome) -> Step:
        """Handle a non-hit reference; returns the latency in ps.

        The tracer's and the monitor's hooks name the outcome the
        processor asked for; a re-resolved or already-satisfied request
        is reported under that same name.
        """
        start_ps = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.miss_start(
                start_ps, self.trace_category, node, address, outcome.name
            )
        block = self.address_map.block_of(address)
        lock = self.block_lock(block)
        # Read misses run under a shared lock (only the requester's own
        # buffered ownership forces exclusivity, and only the node's
        # own transactions can create that state, so the mode cannot be
        # invalidated while queued).  Ownership-transfer commits in the
        # read paths are gated so concurrent readers of a dirty block
        # apply them once.
        shared_mode = (
            outcome is AccessOutcome.READ_MISS
            and not self.owned_by(address, node)
        )
        yield lock.acquire(exclusive=not shared_mode)
        try:
            effective = self._reresolve(node, address, outcome)
            if effective is None:
                pass  # satisfied while queued behind the block lock
            elif not self.address_map.is_shared(address):
                if effective is AccessOutcome.UPGRADE:
                    # Private data needs no coherence: a store to a
                    # clean private line just sets the dirty state.
                    self.caches[node].apply_upgrade(address)
                else:
                    yield from self.private_miss(
                        node,
                        address,
                        effective is AccessOutcome.WRITE_MISS,
                        start_ps,
                    )
            elif self.owned_by(address, node):
                # Evicted, and its write-back has not drained yet.
                yield from self._reclaim_from_buffer(
                    node, address, effective, start_ps
                )
            elif effective is AccessOutcome.UPGRADE:
                yield from self.upgrade(node, address, start_ps)
            else:
                yield from self.shared_miss(
                    node,
                    address,
                    effective is AccessOutcome.WRITE_MISS,
                    start_ps,
                )
        finally:
            lock.release()
        if tracer is not None:
            tracer.miss_commit(
                start_ps,
                self.sim.now,
                self.trace_category,
                node,
                address,
                outcome.name,
            )
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_commit(self, node, address, outcome.name)
        return self.sim.now - start_ps

    def _reresolve(
        self, node: int, address: int, outcome: AccessOutcome
    ) -> Optional[AccessOutcome]:
        """Re-check the local state after the block lock was granted.

        While waiting, a remote transaction may have invalidated the RS
        copy backing a pending upgrade (it becomes a write miss), or --
        with weak ordering -- a background upgrade may have satisfied a
        foreground request for the same block (MSHR-merge behaviour).
        Returns ``None`` if no action is needed any more.
        """
        state = self.caches[node].state_of(address)
        if outcome is AccessOutcome.UPGRADE:
            if state is CacheState.RS:
                return AccessOutcome.UPGRADE
            if state is CacheState.INV:
                return AccessOutcome.WRITE_MISS
            return None  # already WE
        if outcome is AccessOutcome.READ_MISS and state.readable:
            return None  # satisfied while queued
        if outcome is AccessOutcome.WRITE_MISS:
            if state is CacheState.WE:
                return None
            if state is CacheState.RS:
                return AccessOutcome.UPGRADE
        if state is not CacheState.INV:
            raise ProtocolError(
                f"miss at node {node} for {address:#x} found state {state}"
            )
        return outcome

    def shared_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        """Shared-data read or write miss body (subclass provides)."""
        raise NotImplementedError

    def upgrade(self, node: int, address: int, start_ps: int) -> Step:
        """Shared-data RS -> WE upgrade body (subclass provides)."""
        raise NotImplementedError

    def private_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        """Miss on private data: local bank access, no coherence."""
        self.prepare_victim(node, address)
        yield self.banks[node].access()
        self.fill(node, address, CacheState.WE if is_write else CacheState.RS)
        self.stats.record_miss(MissClass.PRIVATE, self.sim.now - start_ps)

    def local_clean_read(self, node: int, address: int, start_ps: int) -> Step:
        """Read miss on a clean block homed at the requester: a local
        bank access, no interconnect transaction."""
        yield self.banks[node].access()
        self.commit(node, address, False, None)
        self.stats.record_miss(MissClass.LOCAL_CLEAN, self.sim.now - start_ps)

    # ------------------------------------------------------------------
    # Background block traffic
    # ------------------------------------------------------------------
    def carry_block(self, src: int, dst: int) -> Step:
        """Move one block message from ``src`` to ``dst`` (``src !=
        dst``) over the interconnect (subclass provides)."""
        raise NotImplementedError

    def writeback(self, node: int, address: int) -> Step:
        """Write a WE victim back to its home and release ownership."""
        if not self.address_map.is_shared(address):
            # Private victim: plain local memory write.
            yield self.banks[node].access()
            return
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        lock = self.block_lock(block)
        yield lock.acquire(exclusive=True)
        try:
            if not self.owned_by(address, node):
                return  # ownership moved while queued: nothing to do
            if self.caches[node].contains(address):
                return  # the node reclaimed the block from its buffer
            if home != node:
                yield from self.carry_block(node, home)
            yield self.banks[home].access()
            self.release_ownership(address)
            self.stats.writebacks += 1
        finally:
            lock.release()
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_commit(self, node, address, "WRITEBACK")

    def sharing_writeback(self, owner: int, block: int) -> Step:
        """Memory update after a dirty block was downgraded to shared.

        The coherence state change already committed under the block
        lock; this process only accounts for the block traffic and the
        memory-write bank time the update costs.
        """
        address = block * self.config.block_size
        home = self.address_map.home_of(address)
        if home != owner:
            yield from self.carry_block(owner, home)
        yield self.banks[home].access()
        self.stats.sharing_writebacks += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.sim.now,
                self.trace_category,
                "sharing-writeback",
                f"node{owner}",
                block=f"{block:#x}",
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def network_utilization(self, elapsed_ps: int) -> float:
        """The paper's network utilisation (subclass provides)."""
        raise NotImplementedError

    def reset_statistics(self) -> None:
        """Zero every statistic the engine accumulates, in place.

        Coherence *state* (cache contents, directories, dirty bits,
        slot occupancy) is untouched: this marks the start of a
        measurement window on a warm machine.  Engines extend it with
        their interconnect's counters.
        """
        self.stats = CoherenceStats()
        for cache in self.caches:
            cache.stats = CacheStats()
        for bank in self.banks:
            bank.reset_statistics()

    def check_invariants(self) -> None:
        """Verify cross-cache coherence invariants (tests call this)."""
        owners: Dict[int, List[int]] = {}
        sharers: Dict[int, List[int]] = {}
        for node, cache in enumerate(self.caches):
            for block_address, state in cache.resident_blocks().items():
                if state is CacheState.WE:
                    owners.setdefault(block_address, []).append(node)
                else:
                    sharers.setdefault(block_address, []).append(node)
        for block_address, holding in owners.items():
            if len(holding) > 1:
                raise ProtocolError(
                    f"block {block_address:#x} WE at nodes {holding}"
                )
            if block_address in sharers:
                raise ProtocolError(
                    f"block {block_address:#x} WE at {holding} and RS at "
                    f"{sharers[block_address]}"
                )


class DirtyBitEngine(CoherenceEngine):
    """Ownership kept as one dirty bit per block at its home.

    The snooping ring, the bus and the ring hierarchy all keep it this
    way: when the bit is clear the home memory owns the block and
    answers; when it is set the dirty node does.
    """

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        #: block -> the node holding it WE.  A block's presence here is
        #: its dirty bit, conceptually held at its home memory (one map
        #: is state-equivalent).  A hardware snooper recognises itself
        #: as the owner; the simulator needs the identity to route the
        #: response.
        self.dirty_owners: Dict[int, int] = {}

    def dirty_hint(self, address: int) -> bool:
        return self.address_map.block_of(address) in self.dirty_owners

    def owned_by(self, address: int, node: int) -> bool:
        return self.dirty_owners.get(self.address_map.block_of(address)) == node

    def coherence_view(self, block: int) -> tuple:
        owner = self.dirty_owners.get(block)
        return ("dirty-bit", owner is not None, owner)

    def dirty_owner(self, block: int) -> Optional[int]:
        """The node whose cache owns ``block``, or ``None`` for the home.

        Transactions snapshot this before their first yield: concurrent
        shared-mode readers may transfer ownership while the
        transaction is in flight, in which case the snapshot still
        names a valid data supplier (the old owner keeps an RS copy).
        """
        return self.dirty_owners.get(block)

    def sharer_targets(self, node: int, address: int) -> List[int]:
        """With no presence bits, a probe reaches every other cache that
        holds the block: the dirty-bit layer's one sharer query."""
        return sharers_other_than(self.caches, address, node)

    def track_exclusive(self, node: int, address: int) -> None:
        self.dirty_owners[self.address_map.block_of(address)] = node

    def release_ownership(self, address: int) -> None:
        self.dirty_owners.pop(self.address_map.block_of(address), None)

    def memory_writeback(self, owner: int, address: int) -> None:
        block = self.address_map.block_of(address)
        if self.dirty_owners.get(block) == owner:
            del self.dirty_owners[block]
            self.sim.spawn(
                self.sharing_writeback(owner, block), name=f"swb:n{owner}"
            )


class DirectoryEngine(CoherenceEngine):
    """Ownership kept in a home directory at every node.

    The full-map and linked-list engines keep it this way: the home's
    entry for a block names its sharers and, while the block is dirty,
    its single owner.  The engine picks the directory kind; the sharer
    container and how a sharer is added are the directory's.
    """

    #: The home-directory kind every node keeps.
    directory_type: Type[HomeDirectory]

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        #: One directory per home node.
        self.directories: List[HomeDirectory] = [
            self.directory_type(self.num_nodes) for _ in range(self.num_nodes)
        ]

    def directory_for(self, address: int) -> HomeDirectory:
        return self.directories[self.address_map.home_of(address)]

    def dirty_hint(self, address: int) -> bool:
        entry = self.directory_for(address).peek(
            self.address_map.block_of(address)
        )
        return entry is not None and entry.dirty

    def owned_by(self, address: int, node: int) -> bool:
        entry = self.directory_for(address).peek(
            self.address_map.block_of(address)
        )
        return entry is not None and entry.owner == node

    def coherence_view(self, block: int) -> tuple:
        return self.directory_for(block * self.config.block_size).view(block)

    def release_ownership(self, address: int) -> None:
        self.directory_for(address).clear(self.address_map.block_of(address))

    def sharer_targets(self, node: int, address: int) -> Sequence[int]:
        """The home entry's sharers but ``node``: presence bits, or the
        sharing list in chain order."""
        return self.directory_for(address).invalidation_targets(
            self.address_map.block_of(address), node
        )

    def track_shared(self, node: int, address: int) -> None:
        self.directory_for(address).add_sharer(
            self.address_map.block_of(address), node
        )

    def track_exclusive(self, node: int, address: int) -> None:
        self.directory_for(address).set_exclusive(
            self.address_map.block_of(address), node
        )

    def memory_writeback(self, owner: int, address: int) -> None:
        """Clear the dirty bit; the owner stays a sharer."""
        block = self.address_map.block_of(address)
        entry = self.directory_for(address).entry(block)
        if entry.dirty:
            entry.dirty = False
            self.sim.spawn(
                self.sharing_writeback(owner, block), name=f"swb:n{owner}"
            )
