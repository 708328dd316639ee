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

from typing import List

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.memory.cache import AccessOutcome
from repro.memory.directory_store import FullMapDirectory
from repro.memory.states import CacheState
from repro.ring.base import ProtocolError, RingSystemBase, Step
from repro.sim.kernel import Simulator

__all__ = ["DirectoryRingSystem"]


class DirectoryRingSystem(RingSystemBase):
    """The paper's full-map directory protocol on the slotted ring."""

    protocol = Protocol.DIRECTORY

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        #: One directory per home node.
        self.directories: List[FullMapDirectory] = [
            FullMapDirectory(self.num_nodes) for _ in range(self.num_nodes)
        ]

    def directory_for(self, address: int) -> FullMapDirectory:
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
        return entry is not None and entry.dirty and entry.owner == node

    def coherence_view(self, block: int) -> tuple:
        entry = self.directory_for(block * self.config.block_size).peek(block)
        if entry is None:
            return ("full-map", False, ())
        return ("full-map", entry.dirty, tuple(sorted(entry.sharers)))

    def release_ownership(self, address: int) -> None:
        self.directory_for(address).clear(self.address_map.block_of(address))

    # ------------------------------------------------------------------
    # Transaction body
    # ------------------------------------------------------------------
    def transact(
        self, node: int, address: int, outcome: AccessOutcome, start_ps: int
    ) -> Step:
        if outcome is AccessOutcome.UPGRADE:
            return self._upgrade(node, address, start_ps)
        if outcome is AccessOutcome.READ_MISS:
            return self._read_miss(node, address, start_ps)
        return self._write_miss(node, address, start_ps)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _read_miss(self, node: int, address: int, start_ps: int) -> Step:
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        directory = self.directories[home]
        entry = directory.entry(block)
        # Snapshot ownership before the first yield: read misses run
        # under a shared lock, so a concurrent reader may commit the
        # dirty->shared transition while this one is in flight (the
        # snapshot still names a valid supplier).
        dirty = entry.dirty
        owner = entry.owner if dirty else None
        if dirty and owner == node:
            yield from self._reclaim_from_buffer(node, address, False, start_ps)
            return
        self.prepare_victim(node, address)

        arcs = 0
        if home != node:
            yield from self.send_probe(node, home, address)
            arcs += self.topology.distance(node, home)
        if self.config.memory.directory_lookup_ps:
            yield self.sim.timeout(self.config.memory.directory_lookup_ps)

        if dirty:
            arcs += yield from self._fetch_from_owner(home, owner, node, address)
            # Downgrade: the owner keeps an RS copy if it still caches
            # the block; memory is refreshed off the critical path.
            # Gated commit: of several concurrent readers, exactly one
            # flips the directory state and issues the memory update.
            kept = self.caches[owner].snoop_downgrade(address)
            if directory.entry(block).dirty:
                directory.entry(block).dirty = False
                if kept is CacheState.INV:
                    directory.remove_sharer(block, owner)
                self.sim.spawn(
                    self.sharing_writeback(owner, block), name=f"swb:n{owner}"
                )
            directory.add_sharer(block, node)
        else:
            yield self.banks[home].access()
            if home != node:
                yield from self.send_block(home, node)
                arcs += self.topology.distance(home, node)
            directory.add_sharer(block, node)
            dirty = False

        self.fill(node, address, CacheState.RS)
        self._record_miss(node, home, dirty, arcs, start_ps)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _write_miss(self, node: int, address: int, start_ps: int) -> Step:
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        directory = self.directories[home]
        entry = directory.entry(block)
        if entry.dirty and entry.owner == node:
            yield from self._reclaim_from_buffer(node, address, True, start_ps)
            return
        self.prepare_victim(node, address)

        arcs = 0
        if home != node:
            yield from self.send_probe(node, home, address)
            arcs += self.topology.distance(node, home)
        if self.config.memory.directory_lookup_ps:
            yield self.sim.timeout(self.config.memory.directory_lookup_ps)

        if entry.dirty:
            owner = entry.owner
            if owner is None or owner == node:
                raise ProtocolError(
                    f"write miss on dirty block {block:#x}: bad owner {owner}"
                )
            arcs += yield from self._fetch_from_owner(home, owner, node, address)
            # Ownership transfer: the old owner invalidates.
            self.caches[owner].snoop_invalidate(address)
            directory.set_exclusive(block, node)
            dirty = True
        else:
            targets = directory.invalidation_targets(block, node)
            if targets:
                # Overlap the memory fetch with the multicast round;
                # the home replies only after both complete.
                multicast = self.sim.spawn(
                    self._multicast_invalidate(home, address, targets),
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
            directory.set_exclusive(block, node)
            dirty = False

        self.fill(node, address, CacheState.WE)
        self._record_miss(node, home, dirty, arcs, start_ps)

    # ------------------------------------------------------------------
    # Upgrades
    # ------------------------------------------------------------------
    def _upgrade(self, node: int, address: int, start_ps: int) -> Step:
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        directory = self.directories[home]

        arcs = 0
        if home != node:
            yield from self.send_probe(node, home, address)
            arcs += self.topology.distance(node, home)
        if self.config.memory.directory_lookup_ps:
            yield self.sim.timeout(self.config.memory.directory_lookup_ps)

        targets = directory.invalidation_targets(block, node)
        if targets:
            yield from self._multicast_invalidate(home, address, targets)
            arcs += self.topology.total_stages
        if home != node:
            # The home's reply is a short acknowledgment probe.
            yield from self.send_probe(home, node, address)
            arcs += self.topology.distance(home, node)
        directory.set_exclusive(block, node)
        self.commit_upgrade(node, address)

        traversals = arcs // self.topology.total_stages
        self.stats.record_upgrade(
            self.sim.now - start_ps,
            traversals=traversals if traversals else None,
            had_sharers=bool(targets),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _reclaim_from_buffer(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        """Re-acquire a block pending in the local write-back buffer."""
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        directory = self.directories[home]
        self.prepare_victim(node, address)
        yield self.sim.timeout(self.config.memory.cache_response_ps)
        if is_write:
            directory.set_exclusive(block, node)
            self.fill(node, address, CacheState.WE)
        else:
            directory.entry(block).dirty = False
            directory.add_sharer(block, node)
            self.sim.spawn(
                self.sharing_writeback(node, block), name=f"swb:n{node}"
            )
            self.fill(node, address, CacheState.RS)
        self.stats.record_miss(MissClass.LOCAL_CLEAN, self.sim.now - start_ps)

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
        self, home: int, address: int, targets: "set[int]"
    ) -> Step:
        """One broadcast probe from the home sweeping the whole ring;
        sharers invalidate as it passes, its return is the ack."""
        block = self.address_map.block_of(address)
        directory = self.directories[home]
        grant = yield from self.broadcast_probe(home, address)
        for target in targets:
            self.schedule_invalidate(
                target, address, self.passage_cycle(grant, home, target)
            )
            directory.remove_sharer(block, target)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                self.scheduler.cycle_to_ps(grant.grab_cycle),
                self.scheduler.cycle_to_ps(self.topology.total_stages),
                self.trace_category,
                "multicast.invalidate",
                f"node{home}",
                targets=sorted(targets),
                address=f"{address:#x}",
            )
        yield from self.wait_until_cycle(
            grant.grab_cycle + self.topology.total_stages
        )

    def _record_miss(
        self, node: int, home: int, dirty: bool, arcs: int, start_ps: int
    ) -> None:
        latency = self.sim.now - start_ps
        total = self.topology.total_stages
        traversals = arcs // total
        if arcs % total:
            raise ProtocolError(
                f"transaction arcs {arcs} not a multiple of ring size {total}"
            )
        if traversals == 0:
            # Local home, clean block, no invalidations: never left the
            # node (or used the ring at all).
            self.stats.record_miss(MissClass.LOCAL_CLEAN, latency)
        elif traversals >= 2:
            self.stats.record_miss(MissClass.TWO_CYCLE, latency, traversals)
        elif dirty:
            self.stats.record_miss(
                MissClass.DIRTY_ONE_CYCLE, latency, traversals
            )
        else:
            self.stats.record_miss(
                MissClass.REMOTE_CLEAN, latency, traversals
            )
