"""One slotted-ring layer for every ring coherence engine.

Every ring of a machine lives here: :attr:`RingSystemBase.rings` holds
one :class:`~repro.ring.scheduler.SlotScheduler` per ring -- the flat
ring of the snooping, directory and linked-list engines, or the local
rings and the global ring of the hierarchy.  The paper's slotted-ring
message (acquire a slot, count it, trace it, wait for its tail) is
written once, as the unicast :meth:`~RingSystemBase.send` and the
full-traversal :meth:`~RingSystemBase.broadcast`, on top of the
protocol-neutral :class:`~repro.sim.engine.CoherenceEngine`, which
holds the transaction skeleton, victims, write-backs and the
per-block locks.  The flat rings' probes and blocks are ring 0's
messages; a block message is the ring's :meth:`carry_block`.
"""

from __future__ import annotations

from typing import List

from repro.core.config import SystemConfig
from repro.core.metrics import MissClass
from repro.ring.scheduler import SlotGrant, SlotScheduler
from repro.ring.slots import BLOCK_SLOT, SlotType
from repro.ring.topology import RingTopology
from repro.sim.engine import CoherenceEngine, ProtocolError, Step, Targets
from repro.sim.kernel import Simulator, Timeout

__all__ = ["RingSystemBase", "ProtocolError"]


class RingSystemBase(CoherenceEngine):
    """Caches + banks + the slotted rings shared by every ring protocol."""

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        self.layout = config.ring_layout()
        #: Every ring of the machine, indexed by the ``ring`` argument
        #: of :meth:`send` and :meth:`broadcast`.
        self.rings: List[SlotScheduler] = [
            SlotScheduler(
                sim,
                topology,
                self.layout,
                clock_ps=config.ring.clock_ps,
                enforce_fairness=config.ring.enforce_fairness,
            )
            for topology in self.ring_topologies()
        ]
        #: Ring 0's topology: the flat ring's, or the one every local
        #: ring of the hierarchy shares.
        self.topology = self.rings[0].topology

    def ring_topologies(self) -> List[RingTopology]:
        """One topology per ring of the machine: one flat ring."""
        return [self.config.ring_topology()]

    def ring_node(self, ring: int, position: int) -> int:
        """The node a traced message names for ``position`` on ``ring``
        (on a flat ring, the node at that position)."""
        return position

    def cluster_of(self, node: int) -> int:
        """The ring ``node`` sits on (a flat ring is ring 0)."""
        return 0

    def local_position(self, node: int) -> int:
        """``node``'s position on its ring (on a flat ring, ``node``)."""
        return node

    @property
    def clock_ps(self) -> int:
        return self.config.ring.clock_ps

    @property
    def trace_category(self) -> str:
        """Telemetry component name for this engine's events."""
        return f"ring.{self.protocol.value}"

    def probe_type_for(self, address: int) -> SlotType:
        return self.layout.probe_type_for_parity(
            self.address_map.parity_of(address)
        )

    # ------------------------------------------------------------------
    # Message primitives (run inline in the transaction's process)
    # ------------------------------------------------------------------
    def send(self, ring: int, src: int, dst: int, slot_type: SlotType) -> Step:
        """Unicast one message on ``ring`` from position ``src`` to
        ``dst``; returns the cycle its tail reaches ``dst``.

        A message to oneself is free (no ring message): the current
        cycle is returned unchanged.
        """
        scheduler = self.rings[ring]
        if src == dst:
            return scheduler.ps_to_next_cycle(self.sim.now)
        distance = scheduler.topology.distance(src, dst)
        grant: SlotGrant = yield from scheduler.acquire(
            src, slot_type, occupancy_cycles=distance, removed_by=dst
        )
        # Counted through the engine now: a statistics reset replaces
        # ``self.stats``.
        block = slot_type is BLOCK_SLOT
        if block:
            self.stats.blocks_sent += 1
            stages = self.layout.block_stages
        else:
            self.stats.probes_sent += 1
            stages = self.layout.probe_stages
        arrival = grant.grab_cycle + distance + stages
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.message(
                scheduler.cycle_to_ps(grant.grab_cycle),
                scheduler.cycle_to_ps(arrival - grant.grab_cycle),
                self.trace_category,
                "block" if block else "probe",
                self.ring_node(ring, src),
                self.ring_node(ring, dst),
            )
        # wait_until_cycle(arrival), inlined: one generator fewer per
        # message.
        target_ps = arrival * scheduler.clock_ps
        if target_ps > self.sim.now:
            yield Timeout(target_ps - self.sim.now)
        return arrival

    def broadcast(self, ring: int, src: int, address: int) -> Step:
        """Acquire a probe slot on ``ring`` for a full-traversal
        broadcast from position ``src``; returns the grant.

        The caller schedules snoop side effects at per-position passage
        times (``grant.grab_cycle`` plus the distance from ``src``).
        """
        scheduler = self.rings[ring]
        stages = scheduler.topology.total_stages
        grant: SlotGrant = yield from scheduler.acquire(
            src,
            self.probe_type_for(address),
            occupancy_cycles=stages,
            removed_by=src,
        )
        self.stats.probes_sent += 1
        self.stats.broadcast_probes += 1
        tracer = self.sim.tracer
        if tracer is not None:
            node = self.ring_node(ring, src)
            tracer.message(
                scheduler.cycle_to_ps(grant.grab_cycle),
                scheduler.cycle_to_ps(stages),
                self.trace_category,
                "probe.broadcast",
                node,
                node,
            )
        return grant

    def _await_ack(self, ring: int, grant: SlotGrant) -> Step:
        """Wait for the owner's ack to the broadcast probe of ``grant``
        on ``ring``: it rides the following probe slot of the same
        type, one frame behind the probe's full traversal."""
        scheduler = self.rings[ring]
        yield from self.wait_until_cycle(
            grant.grab_cycle
            + scheduler.broadcast_cycles()
            + scheduler.ack_delay_cycles()
        )

    # The flat ring's messages are ring 0's.  They return the layer's
    # generator rather than delegate to it with ``yield from``, so the
    # flat hot path runs no extra generator frame per message.
    def send_probe(self, src: int, dst: int, address: int) -> Step:
        """Unicast a probe on the flat ring (see :meth:`send`)."""
        return self.send(0, src, dst, self.probe_type_for(address))

    def send_block(self, src: int, dst: int) -> Step:
        """Unicast a block message on the flat ring (see :meth:`send`)."""
        return self.send(0, src, dst, BLOCK_SLOT)

    def broadcast_probe(self, src: int, address: int) -> Step:
        """Broadcast a probe on the flat ring (see :meth:`broadcast`)."""
        return self.broadcast(0, src, address)

    def request_home(self, node: int, home: int, address: int) -> Step:
        """A directory request: a probe to the block's home and the
        home's directory lookup.  Returns the ring arcs travelled."""
        arcs = 0
        if home != node:
            yield from self.send_probe(node, home, address)
            arcs = self.topology.distance(node, home)
        if self.config.memory.directory_lookup_ps:
            yield self.sim.timeout(self.config.memory.directory_lookup_ps)
        return arcs

    def snoop_passing(
        self, grant: SlotGrant, ring: int, src: int, address: int, targets: Targets
    ) -> None:
        """Deliver remote ops as ``grant``'s broadcast probe from
        position ``src`` passes each target on ``ring``; targets on
        other rings are left to the engine's other deliveries."""
        for nodes, schedule in zip(
            targets, (self.schedule_invalidate, self.schedule_downgrade)
        ):
            for target in nodes:
                if self.cluster_of(target) == ring:
                    passage = grant.grab_cycle + self.topology.distance(
                        src, self.local_position(target)
                    )
                    schedule(target, address, passage)

    #: Write-backs and memory updates travel in one block slot.
    carry_block = send_block

    # ------------------------------------------------------------------
    # Recording by ring arcs (the directory protocols' Table 1 classes)
    # ------------------------------------------------------------------
    def _traversals(self, arcs: int) -> int:
        total = self.topology.total_stages
        if arcs % total:
            raise ProtocolError(
                f"transaction arcs {arcs} not a multiple of ring size {total}"
            )
        return arcs // total

    def record_arc_miss(self, dirty: bool, arcs: int, start_ps: int) -> None:
        """Record a miss that travelled ``arcs`` ring stages."""
        latency = self.sim.now - start_ps
        traversals = self._traversals(arcs)
        if traversals == 0:
            # Local home, clean block, no invalidations: never left the
            # node (or used the ring at all).
            self.stats.record_miss(MissClass.LOCAL_CLEAN, latency)
        elif traversals >= 2:
            self.stats.record_miss(MissClass.TWO_CYCLE, latency, traversals)
        elif dirty:
            self.stats.record_miss(MissClass.DIRTY_ONE_CYCLE, latency, traversals)
        else:
            self.stats.record_miss(MissClass.REMOTE_CLEAN, latency, traversals)

    def record_arc_upgrade(
        self, arcs: int, start_ps: int, had_sharers: bool
    ) -> None:
        """Record an upgrade that travelled ``arcs`` ring stages."""
        traversals = self._traversals(arcs)
        self.stats.record_upgrade(
            self.sim.now - start_ps,
            traversals=traversals if traversals else None,
            had_sharers=had_sharers,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def network_utilization(self, elapsed_ps: int) -> float:
        """The plain mean of every ring's aggregate utilisation: each
        ring counts once, whatever its number of stages (so for the
        hierarchy this is not a stage-weighted mean)."""
        total = sum(ring.aggregate_utilization(elapsed_ps) for ring in self.rings)
        return total / len(self.rings)

    def reset_statistics(self) -> None:
        super().reset_statistics()
        for ring in self.rings:
            ring.reset_statistics()
