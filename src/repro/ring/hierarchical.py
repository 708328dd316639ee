"""Two-level hierarchy of slotted rings with snooping coherence.

The paper's related-work section describes two machines built this
way: Hector (hierarchical slotted rings, with the later Farkas et al.
broadcast-based cache protocol) and the Kendall Square Research KSR1
(a commercial two-level slotted-ring hierarchy with snooping).  This
module implements that organisation on top of the same slot machinery
as the flat ring:

* ``clusters`` **local rings**, each carrying ``P / clusters``
  processing nodes plus one **inter-ring interface (IRI)**;
* one **global ring** connecting the IRIs.

Coherence is the flat snooping protocol lifted one level (Farkas-style
request broadcasting):

* a miss probe first sweeps the requester's local ring; if the owner
  (home memory, or the dirty node) lives in the same cluster, the
  transaction completes locally -- one local traversal, exactly like a
  small flat ring;
* otherwise the IRI forwards the probe onto the global ring and the
  owning cluster's IRI re-broadcasts it locally; the block returns
  over the same three-segment path;
* writes and upgrades must invalidate every cluster holding copies:
  the global probe sweep triggers a local invalidation sweep in each
  sharing cluster (concurrently), and the transaction commits when the
  slowest of them completes.

The headline effect -- the reason hierarchical machines were built --
is diameter reduction: each segment's traversal is a fraction of a
flat 64-node ring's, while per-ring bandwidth stays one slot per stage
per cycle, so cluster-local traffic gets flat-8-like latency and even
uniform traffic sees a shorter end-to-end path.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import CoherenceStats, MissClass
from repro.memory.address import AddressMap
from repro.memory.bank import MemoryBank, build_banks
from repro.memory.cache import (
    AccessOutcome,
    DirectMappedCache,
    sharers_other_than,
)
from repro.memory.directory_store import DirtyBitDirectory
from repro.memory.states import CacheState
from repro.ring.scheduler import SlotGrant, SlotScheduler
from repro.ring.slots import SlotType
from repro.ring.topology import RingTopology
from repro.sim.kernel import Simulator
from repro.sim.queues import ReadWriteLock

__all__ = ["HierarchicalRingSystem"]

Step = Generator[Any, Any, Any]


class HierarchicalRingSystem:
    """KSR1/Hector-style two-level snooping ring machine."""

    protocol = Protocol.HIERARCHICAL

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        # SystemConfig guarantees at least 2 clusters of equal size.
        clusters = config.ring.clusters
        self.sim = sim
        self.config = config
        self.num_nodes = config.num_processors
        self.clusters = clusters
        self.per_cluster = config.num_processors // clusters
        self.layout = config.ring_layout()
        # Each local ring carries its nodes plus the IRI (one extra
        # position, placed last); the global ring carries the IRIs.
        self.local_topology = RingTopology.for_layout(
            self.per_cluster + 1, self.layout, config.ring.stages_per_node
        )
        self.global_topology = RingTopology.for_layout(
            max(2, clusters), self.layout, config.ring.stages_per_node
        )
        self.local_schedulers = [
            SlotScheduler(
                sim,
                self.local_topology,
                self.layout,
                clock_ps=config.ring.clock_ps,
                enforce_fairness=config.ring.enforce_fairness,
            )
            for _ in range(clusters)
        ]
        self.global_scheduler = SlotScheduler(
            sim,
            self.global_topology,
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
        self.dirty_bits = DirtyBitDirectory()
        self._dirty_node: Dict[int, int] = {}
        self._locks: Dict[int, ReadWriteLock] = {}
        #: Transactions completed without leaving the cluster.
        self.local_transactions = 0
        #: Transactions that crossed the global ring.
        self.global_transactions = 0

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def cluster_of(self, node: int) -> int:
        return node // self.per_cluster

    def local_position(self, node: int) -> int:
        """Position of a processing node on its local ring."""
        return node % self.per_cluster

    @property
    def iri_position(self) -> int:
        """The IRI's position on every local ring (placed last)."""
        return self.per_cluster

    @property
    def clock_ps(self) -> int:
        return self.config.ring.clock_ps

    def probe_type_for(self, address: int) -> SlotType:
        return self.layout.probe_type_for_parity(
            self.address_map.parity_of(address)
        )

    def wait_until_cycle(self, cycle: int) -> Step:
        target = cycle * self.clock_ps
        if target > self.sim.now:
            yield self.sim.timeout(target - self.sim.now)

    # ------------------------------------------------------------------
    # Locks (same discipline as the flat engines)
    # ------------------------------------------------------------------
    def block_lock(self, block: int) -> ReadWriteLock:
        lock = self._locks.get(block)
        if lock is None:
            lock = ReadWriteLock(self.sim, name=f"block:{block:#x}")
            self._locks[block] = lock
        return lock

    def dirty_hint(self, address: int) -> bool:
        return self.dirty_bits.is_dirty(self.address_map.block_of(address))

    def owned_by(self, address: int, node: int) -> bool:
        block = self.address_map.block_of(address)
        return (
            self.dirty_bits.is_dirty(block)
            and self._dirty_node.get(block) == node
        )

    # ------------------------------------------------------------------
    # Ring message primitives
    # ------------------------------------------------------------------
    def _local_broadcast(self, cluster: int, position: int, address: int) -> Step:
        """Broadcast a probe on one local ring; returns the grant."""
        grant: SlotGrant = yield from self.local_schedulers[cluster].acquire(
            position,
            self.probe_type_for(address),
            occupancy_cycles=self.local_topology.total_stages,
            removed_by=position,
        )
        self.stats.probes_sent += 1
        self.stats.broadcast_probes += 1
        return grant

    def _global_broadcast(self, cluster: int, address: int) -> Step:
        grant: SlotGrant = yield from self.global_scheduler.acquire(
            cluster,
            self.probe_type_for(address),
            occupancy_cycles=self.global_topology.total_stages,
            removed_by=cluster,
        )
        self.stats.probes_sent += 1
        self.stats.broadcast_probes += 1
        return grant

    def _local_block(self, cluster: int, src: int, dst: int) -> Step:
        """Block message on a local ring; returns tail-arrival cycle."""
        if src == dst:
            return self.local_schedulers[cluster].ps_to_next_cycle(self.sim.now)
        distance = self.local_topology.distance(src, dst)
        grant: SlotGrant = yield from self.local_schedulers[cluster].acquire(
            src, SlotType.BLOCK, occupancy_cycles=distance, removed_by=dst
        )
        self.stats.blocks_sent += 1
        arrival = grant.grab_cycle + distance + self.layout.block_stages
        yield from self.wait_until_cycle(arrival)
        return arrival

    def _global_block(self, src_cluster: int, dst_cluster: int) -> Step:
        if src_cluster == dst_cluster:
            return self.global_scheduler.ps_to_next_cycle(self.sim.now)
        distance = self.global_topology.distance(src_cluster, dst_cluster)
        grant: SlotGrant = yield from self.global_scheduler.acquire(
            src_cluster,
            SlotType.BLOCK,
            occupancy_cycles=distance,
            removed_by=dst_cluster,
        )
        self.stats.blocks_sent += 1
        arrival = grant.grab_cycle + distance + self.layout.block_stages
        yield from self.wait_until_cycle(arrival)
        return arrival

    # ------------------------------------------------------------------
    # Snoop side effects
    # ------------------------------------------------------------------
    def _invalidate_cluster(self, cluster: int, address: int, node: int) -> Step:
        """One local invalidation sweep: broadcast a probe on the
        cluster's ring, invalidating resident copies at passage."""
        grant = yield from self._local_broadcast(
            cluster, self.iri_position, address
        )
        for sharer in sharers_other_than(self.caches, address, node):
            if self.cluster_of(sharer) != cluster:
                continue
            passage = grant.grab_cycle + self.local_topology.distance(
                self.iri_position, self.local_position(sharer)
            )
            self.sim.spawn(
                self._deferred_invalidate(sharer, address, passage),
                name=f"inv:c{cluster}",
            )
        yield from self.wait_until_cycle(
            grant.grab_cycle + self.local_topology.total_stages
        )

    def _deferred_invalidate(self, node: int, address: int, cycle: int) -> Step:
        yield from self.wait_until_cycle(cycle)
        self.caches[node].snoop_invalidate(address)

    # ------------------------------------------------------------------
    # Victims and write-backs
    # ------------------------------------------------------------------
    def _prepare_victim(self, node: int, address: int) -> None:
        victim = self.caches[node].victim_for(address)
        if victim is None:
            return
        victim_address, state = victim
        self.caches[node].evict(victim_address)
        if state is CacheState.WE:
            self.caches[node].stats.writebacks += 1
            self.sim.spawn(
                self.writeback(node, victim_address), name=f"wb:n{node}"
            )

    def _fill(self, node: int, address: int, state: CacheState) -> None:
        if self.caches[node].victim_for(address) is not None:
            self._prepare_victim(node, address)
        self.caches[node].fill(address, state)

    def writeback(self, node: int, address: int) -> Step:
        """Write a WE victim back over up to three ring segments."""
        if not self.address_map.is_shared(address):
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
                return
            if self.caches[node].contains(address):
                return
            src_cluster = self.cluster_of(node)
            dst_cluster = self.cluster_of(home)
            if home != node:
                if src_cluster == dst_cluster:
                    arrival = yield from self._local_block(
                        src_cluster,
                        self.local_position(node),
                        self.local_position(home),
                    )
                else:
                    yield from self._local_block(
                        src_cluster, self.local_position(node), self.iri_position
                    )
                    yield from self._global_block(src_cluster, dst_cluster)
                    arrival = yield from self._local_block(
                        dst_cluster, self.iri_position, self.local_position(home)
                    )
                yield from self.wait_until_cycle(arrival)
            yield self.banks[home].access()
            self.dirty_bits.clear_dirty(block)
            self._dirty_node.pop(block, None)
            self.stats.writebacks += 1
        finally:
            lock.release()

    def _sharing_writeback(self, owner: int, block: int) -> Step:
        address = block * self.config.block_size
        home = self.address_map.home_of(address)
        if home != owner:
            src, dst = self.cluster_of(owner), self.cluster_of(home)
            if src == dst:
                yield from self._local_block(
                    src, self.local_position(owner), self.local_position(home)
                )
            else:
                yield from self._local_block(
                    src, self.local_position(owner), self.iri_position
                )
                yield from self._global_block(src, dst)
                yield from self._local_block(
                    dst, self.iri_position, self.local_position(home)
                )
        yield self.banks[home].access()
        self.stats.sharing_writebacks += 1

    # ------------------------------------------------------------------
    # Transaction entry point
    # ------------------------------------------------------------------
    def miss(self, node: int, address: int, outcome: AccessOutcome) -> Step:
        start_ps = self.sim.now
        block = self.address_map.block_of(address)
        lock = self.block_lock(block)
        shared_mode = (
            outcome is AccessOutcome.READ_MISS
            and not self.owned_by(address, node)
        )
        yield lock.acquire(exclusive=not shared_mode)
        try:
            state = self.caches[node].state_of(address)
            if outcome is AccessOutcome.UPGRADE and state is CacheState.INV:
                outcome = AccessOutcome.WRITE_MISS
            elif outcome is AccessOutcome.WRITE_MISS and state is CacheState.RS:
                outcome = AccessOutcome.UPGRADE
            satisfied = (
                (outcome is AccessOutcome.READ_MISS and state.readable)
                or (
                    outcome is not AccessOutcome.READ_MISS
                    and state is CacheState.WE
                )
            )
            if satisfied:
                pass
            elif not self.address_map.is_shared(address):
                if outcome is AccessOutcome.UPGRADE:
                    self.caches[node].apply_upgrade(address)
                else:
                    self._prepare_victim(node, address)
                    yield self.banks[node].access()
                    self._fill(
                        node,
                        address,
                        CacheState.WE
                        if outcome is AccessOutcome.WRITE_MISS
                        else CacheState.RS,
                    )
                    self.stats.record_miss(
                        MissClass.PRIVATE, self.sim.now - start_ps
                    )
            elif outcome is AccessOutcome.UPGRADE:
                yield from self._upgrade(node, address, start_ps)
            else:
                yield from self._shared_miss(
                    node,
                    address,
                    outcome is AccessOutcome.WRITE_MISS,
                    start_ps,
                )
        finally:
            lock.release()
        return self.sim.now - start_ps

    # ------------------------------------------------------------------
    # Shared misses
    # ------------------------------------------------------------------
    def _shared_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        dirty = self.dirty_bits.is_dirty(block)
        owner = self._dirty_node.get(block) if dirty else None
        if dirty and owner is None:
            dirty = False
        if dirty and owner == node:
            # Write-back-buffer reclaim, as in the flat engines.
            self._prepare_victim(node, address)
            yield self.sim.timeout(self.config.memory.cache_response_ps)
            if not is_write:
                self.dirty_bits.clear_dirty(block)
                self._dirty_node.pop(block, None)
                self.sim.spawn(
                    self._sharing_writeback(node, block), name=f"swb:n{node}"
                )
            self._fill(
                node, address, CacheState.WE if is_write else CacheState.RS
            )
            self.stats.record_miss(
                MissClass.LOCAL_CLEAN, self.sim.now - start_ps
            )
            return

        self._prepare_victim(node, address)
        supplier = owner if dirty else home
        cluster = self.cluster_of(node)
        supplier_cluster = self.cluster_of(supplier)

        if not dirty and home == node and not is_write:
            yield self.banks[node].access()
            self._fill(node, address, CacheState.RS)
            self.stats.record_miss(
                MissClass.LOCAL_CLEAN, self.sim.now - start_ps
            )
            return

        # Local probe sweep (always: the cluster snoops first).
        grant = yield from self._local_broadcast(
            cluster, self.local_position(node), address
        )

        if is_write:
            # Invalidate local sharers at probe passage; remote
            # clusters are swept below.
            for sharer in sharers_other_than(self.caches, address, node):
                if self.cluster_of(sharer) == cluster:
                    passage = grant.grab_cycle + self.local_topology.distance(
                        self.local_position(node),
                        self.local_position(sharer),
                    )
                    self.sim.spawn(
                        self._deferred_invalidate(sharer, address, passage),
                        name=f"inv:n{sharer}",
                    )

        if supplier_cluster == cluster and supplier != node:
            # Cluster-local transaction: flat-ring behaviour at local
            # ring scale.
            self.local_transactions += 1
            passage = grant.grab_cycle + self.local_topology.distance(
                self.local_position(node), self.local_position(supplier)
            )
            yield from self.wait_until_cycle(passage)
            if dirty:
                if not is_write:
                    self.caches[supplier].snoop_downgrade(address)
                yield self.sim.timeout(self.config.memory.cache_response_ps)
            else:
                yield self.banks[home].access()
            arrival = yield from self._local_block(
                cluster,
                self.local_position(supplier),
                self.local_position(node),
            )
            yield from self.wait_until_cycle(arrival)
        else:
            # Three-segment remote transaction via the IRIs.
            self.global_transactions += 1
            iri_pass = grant.grab_cycle + self.local_topology.distance(
                self.local_position(node), self.iri_position
            )
            yield from self.wait_until_cycle(iri_pass)
            global_grant = yield from self._global_broadcast(cluster, address)
            target_pass = global_grant.grab_cycle + (
                self.global_topology.distance(cluster, supplier_cluster)
                if supplier_cluster != cluster
                else 0
            )
            yield from self.wait_until_cycle(target_pass)
            remote_grant = yield from self._local_broadcast(
                supplier_cluster, self.iri_position, address
            )
            supplier_pass = remote_grant.grab_cycle + (
                self.local_topology.distance(
                    self.iri_position, self.local_position(supplier)
                )
                if supplier != node
                else 0
            )
            yield from self.wait_until_cycle(supplier_pass)
            if dirty:
                if not is_write and supplier != node:
                    self.caches[supplier].snoop_downgrade(address)
                yield self.sim.timeout(self.config.memory.cache_response_ps)
            else:
                yield self.banks[home].access()
            # Block return: supplier -> its IRI -> our IRI -> us.
            yield from self._local_block(
                supplier_cluster,
                self.local_position(supplier),
                self.iri_position,
            )
            yield from self._global_block(supplier_cluster, cluster)
            arrival = yield from self._local_block(
                cluster, self.iri_position, self.local_position(node)
            )
            yield from self.wait_until_cycle(arrival)

        if is_write:
            # Remote sharing clusters are swept concurrently; commit
            # waits for the slowest sweep (the global probe already
            # notified their IRIs).
            yield from self._remote_invalidations(node, address, cluster)
            self.dirty_bits.set_dirty(block)
            self._dirty_node[block] = node
            self._fill(node, address, CacheState.WE)
        else:
            if dirty and self._dirty_node.get(block) == owner:
                self.dirty_bits.clear_dirty(block)
                self._dirty_node.pop(block, None)
                self.sim.spawn(
                    self._sharing_writeback(owner, block),
                    name=f"swb:n{owner}",
                )
            self._fill(node, address, CacheState.RS)

        klass = MissClass.REMOTE_DIRTY if dirty else MissClass.REMOTE_CLEAN
        self.stats.record_miss(klass, self.sim.now - start_ps, traversals=1)

    def _remote_invalidations(
        self, node: int, address: int, home_cluster: int
    ) -> Step:
        """Sweep every other cluster holding copies, concurrently."""
        sharer_clusters = sorted(
            {
                self.cluster_of(sharer)
                for sharer in sharers_other_than(self.caches, address, node)
            }
            - {home_cluster}
        )
        if not sharer_clusters:
            return
        sweeps = [
            self.sim.spawn(
                self._invalidate_cluster(cluster, address, node),
                name=f"sweep:c{cluster}",
            )
            for cluster in sharer_clusters
        ]
        for sweep in sweeps:
            yield sweep.done

    # ------------------------------------------------------------------
    # Upgrades
    # ------------------------------------------------------------------
    def _upgrade(self, node: int, address: int, start_ps: int) -> Step:
        block = self.address_map.block_of(address)
        cluster = self.cluster_of(node)
        sharers = sharers_other_than(self.caches, address, node)
        remote = any(self.cluster_of(s) != cluster for s in sharers)
        home_cluster = self.cluster_of(self.address_map.home_of(address))

        grant = yield from self._local_broadcast(
            cluster, self.local_position(node), address
        )
        for sharer in sharers:
            if self.cluster_of(sharer) == cluster:
                passage = grant.grab_cycle + self.local_topology.distance(
                    self.local_position(node), self.local_position(sharer)
                )
                self.sim.spawn(
                    self._deferred_invalidate(sharer, address, passage),
                    name=f"inv:n{sharer}",
                )
        completion = (
            grant.grab_cycle
            + self.local_topology.total_stages
            + self.layout.frame_stages
        )
        yield from self.wait_until_cycle(completion)

        if remote or home_cluster != cluster:
            # The upgrade must reach the home (dirty bit) and every
            # sharing cluster: one global sweep plus concurrent local
            # sweeps, acked back through the IRI.
            yield from self._global_broadcast(cluster, address)
            yield from self._remote_invalidations(node, address, cluster)
            yield self.sim.timeout(self.layout.frame_stages * self.clock_ps)

        self.dirty_bits.set_dirty(block)
        self._dirty_node[block] = node
        state = self.caches[node].state_of(address)
        if state is CacheState.RS:
            self.caches[node].apply_upgrade(address)
        elif state is CacheState.INV:
            self._fill(node, address, CacheState.WE)
        self.stats.record_upgrade(
            self.sim.now - start_ps,
            traversals=1 if not remote else 2,
            had_sharers=bool(sharers),
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def ring_utilization(self, elapsed_ps: int) -> float:
        """Stage-weighted mean utilisation over all rings."""
        schedulers = list(self.local_schedulers) + [self.global_scheduler]
        total = sum(
            scheduler.aggregate_utilization(elapsed_ps)
            for scheduler in schedulers
        )
        return total / len(schedulers)

    def global_ring_utilization(self, elapsed_ps: int) -> float:
        return self.global_scheduler.aggregate_utilization(elapsed_ps)

    @property
    def locality_fraction(self) -> float:
        """Share of ring transactions that stayed inside a cluster."""
        total = self.local_transactions + self.global_transactions
        return self.local_transactions / total if total else 0.0

    def check_invariants(self) -> None:
        owners: Dict[int, List[int]] = {}
        sharers: Dict[int, List[int]] = {}
        for node, cache in enumerate(self.caches):
            for block_address, state in cache.resident_blocks().items():
                if state is CacheState.WE:
                    owners.setdefault(block_address, []).append(node)
                else:
                    sharers.setdefault(block_address, []).append(node)
        for block_address, holding in owners.items():
            if len(holding) > 1 or block_address in sharers:
                raise RuntimeError(
                    f"coherence violation on block {block_address:#x}"
                )
