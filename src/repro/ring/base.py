"""Shared machinery for the three flat-ring coherence engines.

The slotted ring's message primitives -- unicast probes and blocks,
full-traversal broadcasts and their per-node passage times -- on top of
the protocol-neutral :class:`~repro.sim.engine.CoherenceEngine`, which
holds the transaction skeleton, victims, write-backs and the per-block
locks.  A block message is the ring's :meth:`carry_block`.
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.metrics import MissClass
from repro.ring.scheduler import SlotGrant, SlotScheduler
from repro.ring.slots import SlotType
from repro.sim.engine import CoherenceEngine, ProtocolError, Step
from repro.sim.kernel import Simulator, Timeout

__all__ = ["RingSystemBase", "ProtocolError"]


class RingSystemBase(CoherenceEngine):
    """Caches + banks + slotted ring shared by all three ring protocols."""

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        self.layout = config.ring_layout()
        self.topology = config.ring_topology()
        self.scheduler = SlotScheduler(
            sim,
            self.topology,
            self.layout,
            clock_ps=config.ring.clock_ps,
            enforce_fairness=config.ring.enforce_fairness,
        )

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

    def passage_cycle(self, grant: SlotGrant, src: int, node: int) -> int:
        """Cycle at which ``grant``'s broadcast probe passes ``node``."""
        return grant.grab_cycle + self.topology.distance(src, node)

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
        return self.scheduler.aggregate_utilization(elapsed_ps)

    def reset_statistics(self) -> None:
        super().reset_statistics()
        self.scheduler.reset_statistics()
