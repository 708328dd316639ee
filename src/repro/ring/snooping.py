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

from repro.core.config import Protocol
from repro.core.metrics import MissClass
from repro.memory.cache import sharers_other_than
from repro.ring.base import RingSystemBase, Step
from repro.sim.engine import DirtyBitEngine

__all__ = ["SnoopingRingSystem"]


class SnoopingRingSystem(DirtyBitEngine, RingSystemBase):
    """The paper's snooping protocol on the slotted ring."""

    protocol = Protocol.SNOOPING
    spec_name = "snooping"

    # ------------------------------------------------------------------
    # Shared-data misses
    # ------------------------------------------------------------------
    def shared_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        owner = self.dirty_owner(block)
        dirty = owner is not None

        self.prepare_victim(node, address)

        if not dirty and home == node and not is_write:
            yield from self.local_clean_read(node, address, start_ps)
            return

        if not dirty and home == node and is_write:
            yield from self._local_clean_write_miss(node, address, start_ps)
            return

        yield from self._remote_sourced_miss(
            node, address, is_write, dirty, owner if dirty else home, start_ps
        )

    def _local_clean_write_miss(
        self, node: int, address: int, start_ps: int
    ) -> Step:
        """Write miss served by local memory, but the invalidation
        probe must still circle the ring (other caches may hold RS
        copies -- without presence bits the home cannot know)."""
        grant = yield from self.broadcast_probe(node, address)
        for sharer in sharers_other_than(self.caches, address, node):
            self.schedule_invalidate(
                sharer, address, self.passage_cycle(grant, node, sharer)
            )
        yield self.banks[node].access()
        yield from self._await_ack(0, grant)
        self.commit(node, address, True, None)
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
        home = self.address_map.home_of(address)
        grant = yield from self.broadcast_probe(node, address)
        owner_cycle = self.passage_cycle(grant, node, owner)

        # Snoop side effects as the probe sweeps the ring.
        if is_write:
            for sharer in sharers_other_than(self.caches, address, node):
                self.schedule_invalidate(
                    sharer, address, self.passage_cycle(grant, node, sharer)
                )
        elif dirty:
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

        if is_write:
            # A write miss must also observe the invalidation ack (the
            # probe completed its traversal before the block arrives in
            # all but degenerate cases; enforce the ordering anyway).
            yield from self._await_ack(0, grant)
        self.commit(node, address, is_write, owner if dirty else None)

        klass = MissClass.REMOTE_DIRTY if dirty else MissClass.REMOTE_CLEAN
        self.stats.record_miss(klass, self.sim.now - start_ps, traversals=1)

    # ------------------------------------------------------------------
    # Upgrades (pure invalidations)
    # ------------------------------------------------------------------
    def upgrade(self, node: int, address: int, start_ps: int) -> Step:
        """RS -> WE permission request: broadcast probe, wait for the
        ack in the following probe slot of the same type."""
        owner = self.dirty_owner(self.address_map.block_of(address))
        sharers = sharers_other_than(self.caches, address, node)
        grant = yield from self.broadcast_probe(node, address)
        for sharer in sharers:
            self.schedule_invalidate(
                sharer, address, self.passage_cycle(grant, node, sharer)
            )
        yield from self._await_ack(0, grant)
        self.commit(node, address, True, owner)
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
