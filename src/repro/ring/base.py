"""Shared machinery for the three ring coherence engines.

A protocol engine owns the caches, memory banks, slot scheduler and
coherence bookkeeping for one simulated machine.  Processors call
:meth:`RingSystemBase.miss` (a generator to ``yield from``) for every
reference that does not hit; the engine plays out the whole coherence
transaction -- slot waits, ring hops, memory accesses, snoop side
effects -- and returns when the processor may resume.

Concurrency discipline
----------------------
Transactions on *different* blocks proceed concurrently and contend
only for slots and memory banks.  Transactions on the *same* block are
serialised by a per-block lock, which stands in for the transient
states and NAK/retry mechanisms a hardware implementation would use.
Write-backs run as background processes holding the victim block's
lock; a write-back finding that ownership moved while it waited simply
aborts (the new owner has the only valid copy).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.core.config import SystemConfig
from repro.core.metrics import CoherenceStats, MissClass
from repro.memory.address import AddressMap
from repro.memory.bank import MemoryBank, build_banks
from repro.memory.cache import AccessOutcome, DirectMappedCache
from repro.memory.states import CacheState
from repro.ring.scheduler import SlotGrant, SlotScheduler
from repro.ring.slots import SlotType
from repro.sim.kernel import Simulator, Timeout
from repro.sim.queues import ReadWriteLock

__all__ = ["RingSystemBase", "ProtocolError"]

#: Generator type of every protocol step: yields kernel requests.
Step = Generator[Any, Any, Any]


class ProtocolError(RuntimeError):
    """A coherence invariant was violated (always a bug)."""


class RingSystemBase:
    """Caches + banks + slotted ring shared by all three ring protocols."""

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        self.sim = sim
        self.config = config
        self.num_nodes = config.num_processors
        self.layout = config.ring_layout()
        self.topology = config.ring_topology()
        self.scheduler = SlotScheduler(
            sim,
            self.topology,
            self.layout,
            clock_ps=config.ring.clock_ps,
            enforce_fairness=config.ring.enforce_fairness,
        )
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
        #: Engine bookkeeping: block -> node currently holding WE
        #: ownership (valid while the home's dirty state is set).  A
        #: hardware snooper identifies itself; the simulator needs the
        #: identity to route the response.
        self._dirty_node: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    @property
    def clock_ps(self) -> int:
        return self.config.ring.clock_ps

    @property
    def trace_category(self) -> str:
        """Telemetry component name for this engine's events."""
        return f"ring.{self.protocol.value}"

    def cycles_ps(self, cycles: int) -> int:
        return cycles * self.clock_ps

    def wait_until_cycle(self, cycle: int) -> Step:
        """Advance the calling process to ring-cycle ``cycle``."""
        target_ps = self.scheduler.cycle_to_ps(cycle)
        if target_ps > self.sim.now:
            yield self.sim.timeout(target_ps - self.sim.now)

    def probe_type_for(self, address: int) -> SlotType:
        return self.layout.probe_type_for_parity(
            self.address_map.parity_of(address)
        )

    # ------------------------------------------------------------------
    # Per-block serialisation
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
        write-backs always take the lock exclusive.
        """
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

    # ------------------------------------------------------------------
    # Message primitives (run inline in the transaction's process)
    # ------------------------------------------------------------------
    def send_probe(self, src: int, dst: int, address: int) -> Step:
        """Unicast a probe; returns the cycle its tail reaches ``dst``.

        A probe to oneself is free (no ring message): the current
        cycle is returned unchanged.
        """
        if src == dst:
            return self.scheduler.ps_to_next_cycle(self.sim.now)
        distance = self.topology.distance(src, dst)
        grant: SlotGrant = yield from self.scheduler.acquire(
            src,
            self.probe_type_for(address),
            occupancy_cycles=distance,
            removed_by=dst,
        )
        self.stats.probes_sent += 1
        arrival = grant.grab_cycle + distance + self.layout.probe_stages
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.message(
                self.scheduler.cycle_to_ps(grant.grab_cycle),
                self.scheduler.cycle_to_ps(arrival - grant.grab_cycle),
                self.trace_category,
                "probe",
                src,
                dst,
            )
        # wait_until_cycle(arrival), inlined: one generator fewer per
        # message.
        target_ps = arrival * self.scheduler.clock_ps
        if target_ps > self.sim.now:
            yield Timeout(target_ps - self.sim.now)
        return arrival

    def send_block(self, src: int, dst: int) -> Step:
        """Unicast a block message; returns tail-arrival cycle at ``dst``."""
        if src == dst:
            return self.scheduler.ps_to_next_cycle(self.sim.now)
        distance = self.topology.distance(src, dst)
        grant: SlotGrant = yield from self.scheduler.acquire(
            src,
            SlotType.BLOCK,
            occupancy_cycles=distance,
            removed_by=dst,
        )
        self.stats.blocks_sent += 1
        arrival = grant.grab_cycle + distance + self.layout.block_stages
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.message(
                self.scheduler.cycle_to_ps(grant.grab_cycle),
                self.scheduler.cycle_to_ps(arrival - grant.grab_cycle),
                self.trace_category,
                "block",
                src,
                dst,
            )
        # wait_until_cycle(arrival), inlined: one generator fewer per
        # message.
        target_ps = arrival * self.scheduler.clock_ps
        if target_ps > self.sim.now:
            yield Timeout(target_ps - self.sim.now)
        return arrival

    def broadcast_probe(self, src: int, address: int) -> SlotGrant:
        """Acquire a probe slot for a full-traversal broadcast.

        Returns the grant; the caller schedules snoop side effects at
        per-node passage times via :meth:`passage_cycle`.
        (This is itself a generator -- use ``yield from``.)
        """
        grant: SlotGrant = yield from self.scheduler.acquire(
            src,
            self.probe_type_for(address),
            occupancy_cycles=self.topology.total_stages,
            removed_by=src,
        )
        self.stats.probes_sent += 1
        self.stats.broadcast_probes += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.message(
                self.scheduler.cycle_to_ps(grant.grab_cycle),
                self.scheduler.cycle_to_ps(self.topology.total_stages),
                self.trace_category,
                "probe.broadcast",
                src,
                src,
            )
        return grant

    def passage_cycle(self, grant: SlotGrant, src: int, node: int) -> int:
        """Cycle at which ``grant``'s broadcast probe passes ``node``."""
        return grant.grab_cycle + self.topology.distance(src, node)

    # ------------------------------------------------------------------
    # Snoop side effects applied at probe passage time
    # ------------------------------------------------------------------
    def schedule_invalidate(self, node: int, address: int, at_cycle: int) -> None:
        """Invalidate ``node``'s copy when the probe passes it."""
        self.sim.spawn(
            self._deferred_invalidate(node, address, at_cycle),
            name=f"inv:n{node}",
        )

    def _deferred_invalidate(self, node: int, address: int, at_cycle: int) -> Step:
        yield from self.wait_until_cycle(at_cycle)
        self.caches[node].snoop_invalidate(address)

    def schedule_downgrade(self, node: int, address: int, at_cycle: int) -> None:
        """Downgrade ``node``'s WE copy to RS when the probe passes."""
        self.sim.spawn(
            self._deferred_downgrade(node, address, at_cycle),
            name=f"dgr:n{node}",
        )

    def _deferred_downgrade(self, node: int, address: int, at_cycle: int) -> Step:
        yield from self.wait_until_cycle(at_cycle)
        self.caches[node].snoop_downgrade(address)

    # ------------------------------------------------------------------
    # Fills and victim write-backs
    # ------------------------------------------------------------------
    def prepare_victim(self, node: int, address: int) -> Optional[int]:
        """Evict the frame's victim ahead of the fill.

        A WE victim is moved to the node's (conceptual) write-back
        buffer: the line leaves the cache immediately, and a background
        process performs the write-back.  Returns the victim address
        when a write-back was started.
        """
        victim = self.caches[node].victim_for(address)
        if victim is None:
            return None
        victim_address, state = victim
        self.caches[node].evict(victim_address)
        self.caches[node].stats.writebacks += state is CacheState.WE
        if state is CacheState.WE:
            self.sim.spawn(
                self.writeback(node, victim_address), name=f"wb:n{node}"
            )
            return victim_address
        self.on_clean_eviction(node, victim_address)
        return None

    def on_clean_eviction(self, node: int, address: int) -> None:
        """Hook for protocols that must react to RS replacements.

        The snooping and full-map protocols replace shared lines
        silently (stale presence bits are harmless); the linked-list
        protocol overrides this to roll the node out of the sharing
        list.
        """

    def writeback(self, node: int, address: int) -> Step:
        """Background write-back of a WE victim (subclass provides)."""
        raise NotImplementedError

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

    def commit_upgrade(self, node: int, address: int) -> None:
        """Commit a granted RS -> WE upgrade at the requester.

        The line is normally still RS, but under weak ordering the
        processor keeps running and its own conflicting fills may have
        evicted it mid-transaction; the store buffer's data then
        re-installs the line WE (the permission was granted either
        way).
        """
        state = self.caches[node].state_of(address)
        if state is CacheState.RS:
            self.caches[node].apply_upgrade(address)
        elif state is CacheState.INV:
            self.prepare_victim(node, address)
            self.fill(node, address, CacheState.WE)

    # ------------------------------------------------------------------
    # Transaction entry point
    # ------------------------------------------------------------------
    def miss(self, node: int, address: int, outcome: AccessOutcome) -> Step:
        """Handle a non-hit reference; returns the latency in ps."""
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
            elif (
                effective is AccessOutcome.UPGRADE
                and not self.address_map.is_shared(address)
            ):
                # Private data needs no coherence: a store to a clean
                # private line just sets the dirty state locally.
                self.caches[node].apply_upgrade(address)
            else:
                yield from self.transact(node, address, effective, start_ps)
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

    def transact(
        self, node: int, address: int, outcome: AccessOutcome, start_ps: int
    ) -> Step:
        """Protocol-specific transaction body (subclass provides)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Private data (identical in every protocol: local memory access)
    # ------------------------------------------------------------------
    def private_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        """Miss on private data: local bank access, no coherence."""
        self.prepare_victim(node, address)
        yield self.banks[node].access()
        self.fill(node, address, CacheState.WE if is_write else CacheState.RS)
        self.stats.record_miss(MissClass.PRIVATE, self.sim.now - start_ps)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def ring_utilization(self, elapsed_ps: int) -> float:
        return self.scheduler.aggregate_utilization(elapsed_ps)

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
