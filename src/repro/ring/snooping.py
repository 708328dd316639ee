"""Snooping write-invalidate protocol for the slotted ring (paper §3.1).

Key properties reproduced here:

* Miss and invalidation requests are **broadcast** in probe slots; the
  probe is snooped at every node *without being removed*, and the
  requester strips it after one full traversal.  No transaction ever
  traverses the ring more than once, so miss latency is independent of
  node positions -- the ring behaves as a UMA interconnect.
* Memory keeps one **dirty bit** per block.  When clear, the home node
  owns the block and answers; when set, the dirty node answers.
* The owner acknowledges a probe in an **ack field of the following
  probe slot of the same type**, which trails the probe by one frame;
  upgrade (pure invalidation) requests complete when that ack returns.
* Write-backs and the memory update after a dirty block is downgraded
  ("sharing write-back") travel in block slots off the critical path.
"""

from __future__ import annotations

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.memory.cache import AccessOutcome
from repro.memory.directory_store import DirtyBitDirectory
from repro.memory.states import CacheState
from repro.ring.base import ProtocolError, RingSystemBase, Step
from repro.sim.kernel import Simulator

__all__ = ["SnoopingRingSystem"]


class SnoopingRingSystem(RingSystemBase):
    """The paper's snooping protocol on the slotted ring."""

    protocol = Protocol.SNOOPING

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        #: One dirty bit per block, conceptually held at each block's
        #: home memory (a single container is state-equivalent).
        self.dirty_bits = DirtyBitDirectory()

    def dirty_hint(self, address: int) -> bool:
        return self.dirty_bits.is_dirty(self.address_map.block_of(address))

    def owned_by(self, address: int, node: int) -> bool:
        block = self.address_map.block_of(address)
        return (
            self.dirty_bits.is_dirty(block)
            and self._dirty_node.get(block) == node
        )

    def coherence_view(self, block: int) -> tuple:
        dirty = self.dirty_bits.is_dirty(block)
        return ("dirty-bit", dirty, self._dirty_node.get(block) if dirty else None)

    # ------------------------------------------------------------------
    # Transaction body
    # ------------------------------------------------------------------
    def transact(
        self, node: int, address: int, outcome: AccessOutcome, start_ps: int
    ) -> Step:
        if not self.address_map.is_shared(address):
            yield from self.private_miss(
                node, address, outcome is not AccessOutcome.READ_MISS, start_ps
            )
            return
        if outcome is AccessOutcome.UPGRADE:
            yield from self._upgrade(node, address, start_ps)
        elif outcome is AccessOutcome.READ_MISS:
            yield from self._shared_miss(node, address, False, start_ps)
        else:
            yield from self._shared_miss(node, address, True, start_ps)

    # ------------------------------------------------------------------
    # Shared-data misses
    # ------------------------------------------------------------------
    def _shared_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        # Snapshot ownership before the first yield: concurrent shared-
        # mode readers may transfer it while this transaction is in
        # flight, in which case the snapshot still names a valid data
        # supplier (the old owner keeps an RS copy).
        dirty = self.dirty_bits.is_dirty(block)
        owner = self._dirty_node.get(block) if dirty else None
        if dirty and owner is None:
            # A concurrent reader committed the transfer between our
            # lock grant and this slice: the home now serves.
            dirty = False

        if dirty and owner == node:
            # The block sits in this node's own write-back buffer (it
            # was evicted and the write-back has not drained yet):
            # reclaim it locally, no ring transaction.
            yield from self._reclaim_from_buffer(node, address, is_write, start_ps)
            return

        self.prepare_victim(node, address)

        if not dirty and home == node and not is_write:
            # Local clean read miss: memory access only, no probe.
            yield self.banks[node].access()
            self.fill(node, address, CacheState.RS)
            self.stats.record_miss(
                MissClass.LOCAL_CLEAN, self.sim.now - start_ps
            )
            return

        if not dirty and home == node and is_write:
            yield from self._local_clean_write_miss(node, address, start_ps)
            return

        yield from self._remote_sourced_miss(
            node, address, is_write, dirty, owner if dirty else home, start_ps
        )

    def _reclaim_from_buffer(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        """Re-acquire a block pending in the local write-back buffer.

        A write keeps the dirty ownership (the queued write-back will
        abort when it finds the new WE copy); a read surrenders it and
        turns the buffered data into a memory update.
        """
        block = self.address_map.block_of(address)
        self.prepare_victim(node, address)
        yield self.sim.timeout(self.config.memory.cache_response_ps)
        if is_write:
            self.fill(node, address, CacheState.WE)
        else:
            self.dirty_bits.clear_dirty(block)
            self._dirty_node.pop(block, None)
            self.sim.spawn(
                self._sharing_writeback(node, block), name=f"swb:n{node}"
            )
            self.fill(node, address, CacheState.RS)
        self.stats.record_miss(MissClass.LOCAL_CLEAN, self.sim.now - start_ps)

    def _local_clean_write_miss(
        self, node: int, address: int, start_ps: int
    ) -> Step:
        """Write miss served by local memory, but the invalidation
        probe must still circle the ring (other caches may hold RS
        copies -- without presence bits the home cannot know)."""
        block = self.address_map.block_of(address)
        grant = yield from self.broadcast_probe(node, address)
        for sharer in self.sharers_other_than(address, node):
            self.schedule_invalidate(
                sharer, address, self.passage_cycle(grant, node, sharer)
            )
        memory_done = self.banks[node].access()
        ack_cycle = (
            grant.grab_cycle
            + self.scheduler.broadcast_cycles()
            + self.scheduler.ack_delay_cycles()
        )
        yield memory_done
        yield from self.wait_until_cycle(ack_cycle)
        self.dirty_bits.set_dirty(block)
        self._dirty_node[block] = node
        self.fill(node, address, CacheState.WE)
        self.stats.record_miss(
            MissClass.LOCAL_CLEAN, self.sim.now - start_ps, traversals=None
        )

    def _remote_sourced_miss(
        self,
        node: int,
        address: int,
        is_write: bool,
        dirty: bool,
        owner: int,
        start_ps: int,
    ) -> Step:
        """Miss whose data comes over the ring (remote home or any
        dirty owner).  One broadcast probe + one block reply; exactly
        one ring traversal end to end."""
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        grant = yield from self.broadcast_probe(node, address)
        owner_cycle = self.passage_cycle(grant, node, owner)

        # Snoop side effects as the probe sweeps the ring.
        if is_write:
            for sharer in self.sharers_other_than(address, node):
                self.schedule_invalidate(
                    sharer, address, self.passage_cycle(grant, node, sharer)
                )
        elif dirty and owner != node:
            self.schedule_downgrade(owner, address, owner_cycle)

        # The owner's response: memory fetch at the home, or a cache
        # (or write-back buffer) access at the dirty node.
        yield from self.wait_until_cycle(owner_cycle)
        if dirty:
            yield self.sim.timeout(self.config.memory.cache_response_ps)
        else:
            yield self.banks[home].access()

        arrival = yield from self.send_block(owner, node)
        yield from self.wait_until_cycle(arrival)

        # Commit: bookkeeping mirrors what the home's dirty bit and the
        # new copy's state would be in hardware.
        if is_write:
            self.dirty_bits.set_dirty(block)
            self._dirty_node[block] = node
            # A write miss must also observe the invalidation ack (the
            # probe completed its traversal before the block arrives in
            # all but degenerate cases; enforce the ordering anyway).
            ack_cycle = (
                grant.grab_cycle
                + self.scheduler.broadcast_cycles()
                + self.scheduler.ack_delay_cycles()
            )
            yield from self.wait_until_cycle(ack_cycle)
            self.fill(node, address, CacheState.WE)
        else:
            if dirty and self._dirty_node.get(block) == owner:
                # Downgrade commit -- gated so that of several
                # concurrent shared-mode readers of the dirty block,
                # exactly one clears the home's dirty bit and issues
                # the off-critical-path memory update.
                self.dirty_bits.clear_dirty(block)
                self._dirty_node.pop(block, None)
                self.sim.spawn(
                    self._sharing_writeback(owner, block),
                    name=f"swb:n{owner}",
                )
            self.fill(node, address, CacheState.RS)

        klass = MissClass.REMOTE_DIRTY if dirty else MissClass.REMOTE_CLEAN
        self.stats.record_miss(klass, self.sim.now - start_ps, traversals=1)

    # ------------------------------------------------------------------
    # Upgrades (pure invalidations)
    # ------------------------------------------------------------------
    def _upgrade(self, node: int, address: int, start_ps: int) -> Step:
        """RS -> WE permission request: broadcast probe, wait for the
        ack in the following probe slot of the same type."""
        block = self.address_map.block_of(address)
        if self.dirty_bits.is_dirty(block):
            raise ProtocolError(
                f"upgrade of {address:#x} while dirty elsewhere"
            )
        sharers = self.sharers_other_than(address, node)
        grant = yield from self.broadcast_probe(node, address)
        for sharer in sharers:
            self.schedule_invalidate(
                sharer, address, self.passage_cycle(grant, node, sharer)
            )
        ack_cycle = (
            grant.grab_cycle
            + self.scheduler.broadcast_cycles()
            + self.scheduler.ack_delay_cycles()
        )
        yield from self.wait_until_cycle(ack_cycle)
        self.dirty_bits.set_dirty(block)
        self._dirty_node[block] = node
        self.commit_upgrade(node, address)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.sim.now,
                self.trace_category,
                "upgrade.ack",
                f"node{node}",
                address=f"{address:#x}",
                sharers=len(sharers),
            )
        self.stats.record_upgrade(
            self.sim.now - start_ps, traversals=1, had_sharers=bool(sharers)
        )

    # ------------------------------------------------------------------
    # Background block traffic
    # ------------------------------------------------------------------
    def writeback(self, node: int, address: int) -> Step:
        """Write a WE victim back to its home and clear the dirty bit."""
        if not self.address_map.is_shared(address):
            # Private victim: plain local memory write.
            yield self.banks[node].access()
            return
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        lock = self.block_lock(block)
        yield lock.acquire(exclusive=True)
        try:
            if not (
                self.dirty_bits.is_dirty(block)
                and self._dirty_node.get(block) == node
            ):
                return  # ownership moved while queued: nothing to do
            if self.caches[node].contains(address):
                return  # the node reclaimed the block from its buffer
            if home != node:
                arrival = yield from self.send_block(node, home)
                yield from self.wait_until_cycle(arrival)
            yield self.banks[home].access()
            self.dirty_bits.clear_dirty(block)
            self._dirty_node.pop(block, None)
            self.stats.writebacks += 1
        finally:
            lock.release()
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_commit(self, node, address, "WRITEBACK")

    def _sharing_writeback(self, owner: int, block: int) -> Step:
        """Memory update after a dirty block was downgraded to shared.

        The coherence state change already committed under the block
        lock; this process only accounts for the block-slot traffic and
        the memory-write bank time the update costs.
        """
        address = block * self.config.block_size
        home = self.address_map.home_of(address)
        if home != owner:
            arrival = yield from self.send_block(owner, home)
            yield from self.wait_until_cycle(arrival)
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
