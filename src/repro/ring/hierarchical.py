"""Two-level hierarchy of slotted rings with snooping coherence.

The paper's related-work section describes two machines built this
way: Hector (hierarchical slotted rings, with the later Farkas et al.
broadcast-based cache protocol) and the Kendall Square Research KSR1
(a commercial two-level slotted-ring hierarchy with snooping).  This
module implements that organisation on the flat rings' slotted-ring
layer (:class:`~repro.ring.base.RingSystemBase`): the same message
primitives, sent on one of several rings:

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

from typing import List

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.memory.cache import sharers_other_than
from repro.ring.base import RingSystemBase
from repro.ring.slots import BLOCK_SLOT
from repro.ring.topology import RingTopology
from repro.sim.engine import DirtyBitEngine, Step
from repro.sim.kernel import Simulator

__all__ = ["HierarchicalRingSystem"]


class HierarchicalRingSystem(DirtyBitEngine, RingSystemBase):
    """KSR1/Hector-style two-level snooping ring machine.

    ``rings[c]`` is cluster ``c``'s local ring and ``rings[clusters]``
    the global ring; every message goes through the shared
    :meth:`~RingSystemBase.send` and :meth:`~RingSystemBase.broadcast`.
    All local rings share one topology, :attr:`topology`.
    """

    protocol = Protocol.HIERARCHICAL
    spec_name = "hierarchical"

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        # SystemConfig guarantees at least 2 clusters of equal size.
        self.clusters = config.ring.clusters
        self.per_cluster = config.num_processors // self.clusters
        #: Transactions completed without leaving the cluster.
        self.local_transactions = 0
        #: Transactions that crossed the global ring.
        self.global_transactions = 0

    def ring_topologies(self) -> List[RingTopology]:
        """The ``clusters`` local rings, sharing one topology, then the
        global ring.  Each local ring carries its nodes plus the IRI
        (one extra position, placed last); the global ring carries the
        IRIs."""
        ring = self.config.ring
        stages = ring.stages_per_node
        local = RingTopology.for_layout(
            self.config.num_processors // ring.clusters + 1, self.layout, stages
        )
        return [local] * ring.clusters + [
            RingTopology.for_layout(ring.clusters, self.layout, stages)
        ]

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
    def global_ring(self) -> int:
        """The global ring's index in :attr:`rings` (after the local
        rings); its positions are the clusters."""
        return self.clusters

    def ring_node(self, ring: int, position: int) -> int:
        """The node a traced message names for a ring position: the
        processing node, or ``P + cluster`` for a cluster's IRI (the
        global ring's positions are those IRIs)."""
        if ring == self.global_ring:
            return self.config.num_processors + position
        if position == self.per_cluster:
            return self.config.num_processors + ring
        return ring * self.per_cluster + position

    # ------------------------------------------------------------------
    # Snoop side effects
    # ------------------------------------------------------------------
    def _invalidate_cluster(self, cluster: int, address: int, node: int) -> Step:
        """One local invalidation sweep: broadcast a probe on the
        cluster's ring, invalidating resident copies at passage."""
        grant = yield from self.broadcast(cluster, self.iri_position, address)
        for sharer in sharers_other_than(self.caches, address, node):
            if self.cluster_of(sharer) != cluster:
                continue
            passage = grant.grab_cycle + self.topology.distance(
                self.iri_position, self.local_position(sharer)
            )
            self.schedule_invalidate(sharer, address, passage)
        yield from self.wait_until_cycle(
            grant.grab_cycle + self.topology.total_stages
        )

    # ------------------------------------------------------------------
    # Write-backs and memory updates
    # ------------------------------------------------------------------
    def carry_block(self, src: int, dst: int) -> Step:
        """A block over up to three ring segments: the local ring, or
        local ring -> IRI -> global ring -> IRI -> local ring."""
        src_cluster = self.cluster_of(src)
        dst_cluster = self.cluster_of(dst)
        if src_cluster == dst_cluster:
            yield from self.send(
                src_cluster,
                self.local_position(src),
                self.local_position(dst),
                BLOCK_SLOT,
            )
        else:
            yield from self.send(
                src_cluster,
                self.local_position(src),
                self.iri_position,
                BLOCK_SLOT,
            )
            yield from self.send(
                self.global_ring, src_cluster, dst_cluster, BLOCK_SLOT
            )
            yield from self.send(
                dst_cluster,
                self.iri_position,
                self.local_position(dst),
                BLOCK_SLOT,
            )

    # ------------------------------------------------------------------
    # Shared misses
    # ------------------------------------------------------------------
    def shared_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        home = self.address_map.home_of(address)
        owner = self.dirty_owner(self.address_map.block_of(address))
        dirty = owner is not None

        self.prepare_victim(node, address)
        supplier = owner if dirty else home
        cluster = self.cluster_of(node)
        supplier_cluster = self.cluster_of(supplier)

        if not dirty and home == node and not is_write:
            yield from self.local_clean_read(node, address, start_ps)
            return

        # Local probe sweep (always: the cluster snoops first).
        grant = yield from self.broadcast(
            cluster, self.local_position(node), address
        )

        if is_write:
            # Invalidate local sharers at probe passage; remote
            # clusters are swept below.
            for sharer in sharers_other_than(self.caches, address, node):
                if self.cluster_of(sharer) == cluster:
                    passage = grant.grab_cycle + self.topology.distance(
                        self.local_position(node),
                        self.local_position(sharer),
                    )
                    self.schedule_invalidate(sharer, address, passage)

        if supplier_cluster == cluster and supplier != node:
            # Cluster-local transaction: flat-ring behaviour at local
            # ring scale.
            self.local_transactions += 1
            passage = grant.grab_cycle + self.topology.distance(
                self.local_position(node), self.local_position(supplier)
            )
            yield from self.wait_until_cycle(passage)
            if dirty:
                if not is_write:
                    self.caches[supplier].snoop_downgrade(address)
                yield self.sim.timeout(self.config.memory.cache_response_ps)
            else:
                yield self.banks[home].access()
            arrival = yield from self.send(
                cluster,
                self.local_position(supplier),
                self.local_position(node),
                BLOCK_SLOT,
            )
            yield from self.wait_until_cycle(arrival)
        else:
            # Three-segment remote transaction via the IRIs.
            self.global_transactions += 1
            iri_pass = grant.grab_cycle + self.topology.distance(
                self.local_position(node), self.iri_position
            )
            yield from self.wait_until_cycle(iri_pass)
            global_grant = yield from self.broadcast(
                self.global_ring, cluster, address
            )
            target_pass = global_grant.grab_cycle + (
                self.rings[self.global_ring].topology.distance(
                    cluster, supplier_cluster
                )
                if supplier_cluster != cluster
                else 0
            )
            yield from self.wait_until_cycle(target_pass)
            remote_grant = yield from self.broadcast(
                supplier_cluster, self.iri_position, address
            )
            supplier_pass = remote_grant.grab_cycle + (
                self.topology.distance(
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
            yield from self.send(
                supplier_cluster,
                self.local_position(supplier),
                self.iri_position,
                BLOCK_SLOT,
            )
            yield from self.send(
                self.global_ring, supplier_cluster, cluster, BLOCK_SLOT
            )
            arrival = yield from self.send(
                cluster,
                self.iri_position,
                self.local_position(node),
                BLOCK_SLOT,
            )
            yield from self.wait_until_cycle(arrival)

        if is_write:
            # Remote sharing clusters are swept concurrently; commit
            # waits for the slowest sweep (the global probe already
            # notified their IRIs).
            yield from self._remote_invalidations(node, address, cluster)
        self.commit(node, address, is_write, owner)

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
    def upgrade(self, node: int, address: int, start_ps: int) -> Step:
        owner = self.dirty_owner(self.address_map.block_of(address))
        cluster = self.cluster_of(node)
        sharers = sharers_other_than(self.caches, address, node)
        remote = any(self.cluster_of(s) != cluster for s in sharers)
        home_cluster = self.cluster_of(self.address_map.home_of(address))

        grant = yield from self.broadcast(
            cluster, self.local_position(node), address
        )
        for sharer in sharers:
            if self.cluster_of(sharer) == cluster:
                passage = grant.grab_cycle + self.topology.distance(
                    self.local_position(node), self.local_position(sharer)
                )
                self.schedule_invalidate(sharer, address, passage)
        yield from self._await_ack(cluster, grant)

        if remote or home_cluster != cluster:
            # The upgrade must reach the home (dirty bit) and every
            # sharing cluster: one global sweep plus concurrent local
            # sweeps, acked back through the IRI.
            yield from self.broadcast(self.global_ring, cluster, address)
            yield from self._remote_invalidations(node, address, cluster)
            yield self.sim.timeout(self.layout.frame_stages * self.clock_ps)

        self.commit(node, address, True, owner)
        self.stats.record_upgrade(
            self.sim.now - start_ps,
            traversals=1 if not remote else 2,
            had_sharers=bool(sharers),
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        super().reset_statistics()
        self.local_transactions = 0
        self.global_transactions = 0

    def global_ring_utilization(self, elapsed_ps: int) -> float:
        return self.rings[self.global_ring].aggregate_utilization(elapsed_ps)

    @property
    def locality_fraction(self) -> float:
        """Share of ring transactions that stayed inside a cluster."""
        total = self.local_transactions + self.global_transactions
        return self.local_transactions / total if total else 0.0
