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
        """One broadcast probe, snooped as it passes; unless local
        memory serves the miss, one block reply: exactly one ring
        traversal end to end."""
        home = self.address_map.home_of(address)
        owner = self.dirty_owner(self.address_map.block_of(address))
        dirty = owner is not None

        self.prepare_victim(node, address)

        if not dirty and home == node and not is_write:
            yield from self.local_clean_read(node, address, start_ps)
            return

        grant = yield from self.broadcast_probe(node, address)
        ops = self.remote_ops(is_write, owner)
        targets = self.remote_targets(ops, node, address, owner)
        self.snoop_passing(grant, 0, node, address, targets)

        if not dirty and home == node:
            # A write miss served by local memory: the probe still circles
            # the ring (the home keeps no presence bits).
            yield self.banks[node].access()
            yield from self._await_ack(0, grant)
            self.commit(node, address, True, None)
            self.stats.record_miss(
                MissClass.LOCAL_CLEAN, self.sim.now - start_ps, traversals=None
            )
            return

        # The supplier's response: memory fetch at the home, or a cache
        # (or write-back buffer) access at the dirty node.
        supplier = owner if dirty else home
        yield from self.wait_until_cycle(
            grant.grab_cycle + self.topology.distance(node, supplier)
        )
        if dirty:
            yield self.sim.timeout(self.config.memory.cache_response_ps)
        else:
            yield self.banks[home].access()

        yield from self.send_block(supplier, node)  # waits for its tail

        if is_write:
            # A write miss must also observe the invalidation ack (the
            # probe completed its traversal before the block arrives in
            # all but degenerate cases; enforce the ordering anyway).
            yield from self._await_ack(0, grant)
        self.commit(node, address, is_write, owner)

        klass = MissClass.REMOTE_DIRTY if dirty else MissClass.REMOTE_CLEAN
        self.stats.record_miss(klass, self.sim.now - start_ps, traversals=1)

    # ------------------------------------------------------------------
    # Upgrades (pure invalidations)
    # ------------------------------------------------------------------
    def upgrade(self, node: int, address: int, start_ps: int) -> Step:
        """RS -> WE permission request: broadcast probe, wait for the
        ack in the following probe slot of the same type."""
        owner = self.dirty_owner(self.address_map.block_of(address))
        ops = self.remote_ops(True, owner, upgrade=True)
        targets = self.remote_targets(ops, node, address, owner)
        grant = yield from self.broadcast_probe(node, address)
        self.snoop_passing(grant, 0, node, address, targets)
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
                sharers=len(targets[0]),
            )
        self.stats.record_upgrade(
            self.sim.now - start_ps, traversals=1, had_sharers=bool(targets[0])
        )
