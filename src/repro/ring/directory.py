"""Full-map directory protocol for the slotted ring (paper §3.2).

Every coherence request is unicast to the block's **home node**, which
holds one presence bit per node plus a dirty bit (a full-map directory
after Censier & Feautrier).  The home either answers from memory,
forwards the request to the dirty node, or multicasts an invalidation
before answering.

Latency classes (Figure 5 of the paper):

* **1-cycle clean** -- remote home, clean block: requester -> home ->
  requester, exactly one ring traversal.
* **1-cycle dirty** -- dirty block whose owner is *not* on the ring
  path between requester and home: the three hops
  requester -> home -> dirty -> requester still sum to one traversal,
  but need three slot acquisitions, so the latency is higher.
* **2-cycle** -- the dirty node sits between requester and home (the
  three hops wrap the ring twice, Figure 2.b), or the write requires a
  multicast invalidation round before the home can answer.

The multicast invalidation is a single broadcast probe issued by the
home: it sweeps the whole ring, each sharer invalidates as it passes,
and its return to the home is the acknowledgment.
"""

from __future__ import annotations

from repro.core.config import Protocol
from repro.memory.directory_store import FullMapDirectory
from repro.ring.base import RingSystemBase, Step
from repro.sim.engine import DirectoryEngine

__all__ = ["DirectoryRingSystem"]


class DirectoryRingSystem(DirectoryEngine, RingSystemBase):
    """The paper's full-map directory protocol on the slotted ring."""

    protocol = Protocol.DIRECTORY
    spec_name = "directory"
    directory_type = FullMapDirectory

    def memory_writeback(self, owner: int, address: int) -> None:
        """The owner keeps its presence bit only if it still caches the
        block (it keeps an RS copy unless the line already left for its
        write-back buffer)."""
        block = self.address_map.block_of(address)
        directory = self.directory_for(address)
        dirty = directory.entry(block).dirty
        super().memory_writeback(owner, address)
        if dirty and not self.caches[owner].contains(address):
            directory.remove_sharer(block, owner)

    # ------------------------------------------------------------------
    # Misses
    # ------------------------------------------------------------------
    def shared_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        home = self.address_map.home_of(address)
        # Snapshot ownership before the first yield: read misses run
        # under a shared lock, so a concurrent reader may commit the
        # dirty->shared transition while this one is in flight (the
        # snapshot still names a valid supplier).
        owner = self.directories[home].entry(self.address_map.block_of(address)).owner
        self.prepare_victim(node, address)

        arcs = yield from self.request_home(node, home, address)
        ops = self.remote_ops(is_write, owner)
        targets = self.remote_targets(ops, node, address, owner)

        if owner is not None:
            arcs += yield from self._fetch_from_owner(home, owner, node, address)
            # The owner snoops the forwarded request (a downgraded owner
            # keeps an RS copy; memory is refreshed off the critical path).
            self.snoop_now(address, targets)
        else:
            if targets[0]:
                # Overlap the memory fetch with the multicast round;
                # the home replies only after both complete.
                multicast = self.sim.spawn(
                    self._multicast_invalidate(home, address, targets[0]),
                    name=f"mcast:n{home}",
                )
                yield self.banks[home].access()
                yield multicast.done
                arcs += self.topology.total_stages
            else:
                yield self.banks[home].access()
            if home != node:
                yield from self.send_block(home, node)
                arcs += self.topology.distance(home, node)

        self.commit(node, address, is_write, owner)
        self.record_arc_miss(owner is not None, arcs, start_ps)

    # ------------------------------------------------------------------
    # Upgrades
    # ------------------------------------------------------------------
    def upgrade(self, node: int, address: int, start_ps: int) -> Step:
        home = self.address_map.home_of(address)
        owner = self.directories[home].entry(self.address_map.block_of(address)).owner

        arcs = yield from self.request_home(node, home, address)

        ops = self.remote_ops(True, owner, upgrade=True)
        invalidated, _ = self.remote_targets(ops, node, address, owner)
        if invalidated:
            yield from self._multicast_invalidate(home, address, invalidated)
            arcs += self.topology.total_stages
        if home != node:
            # The home's reply is a short acknowledgment probe.
            yield from self.send_probe(home, node, address)
            arcs += self.topology.distance(home, node)
        self.commit(node, address, True, owner)

        self.record_arc_upgrade(arcs, start_ps, bool(invalidated))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _fetch_from_owner(
        self, home: int, owner: int, requester: int, address: int
    ) -> Step:
        """Forward the request to the dirty node and ship the block to
        the requester.  Returns the ring arcs travelled (as a generator
        return value)."""
        arcs = 0
        if owner != home:
            yield from self.send_probe(home, owner, address)
            arcs += self.topology.distance(home, owner)
            self.stats.forwards += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(
                    self.sim.now,
                    self.trace_category,
                    "forward",
                    f"node{home}",
                    owner=owner,
                    requester=requester,
                    address=f"{address:#x}",
                )
        yield self.sim.timeout(self.config.memory.cache_response_ps)
        if owner != requester:
            yield from self.send_block(owner, requester)
            arcs += self.topology.distance(owner, requester)
        return arcs

    def _multicast_invalidate(
        self, home: int, address: int, targets: "list[int]"
    ) -> Step:
        """One broadcast probe from the home sweeping the whole ring;
        sharers invalidate as it passes, its return is the ack."""
        block = self.address_map.block_of(address)
        directory = self.directories[home]
        grant = yield from self.broadcast_probe(home, address)
        self.snoop_passing(grant, 0, home, address, (targets, ()))
        for target in targets:
            directory.remove_sharer(block, target)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                self.rings[0].cycle_to_ps(grant.grab_cycle),
                self.rings[0].cycle_to_ps(self.topology.total_stages),
                self.trace_category,
                "multicast.invalidate",
                f"node{home}",
                targets=sorted(targets),
                address=f"{address:#x}",
            )
        yield from self.wait_until_cycle(
            grant.grab_cycle + self.topology.total_stages
        )
