"""Split-transaction bus with a three-state snooping protocol.

This is the paper's comparison interconnect (section 4.3): a
FutureBus+-like split-transaction bus, 64 bits wide at 50 or 100 MHz,
with the same write-invalidate write-back protocol and physical shared
memory partitioned among the processing nodes.

Transaction structure (matching the paper's "minimum number of bus
cycles for a remote miss is six, excluding arbitration delays and the
time to fetch the block in the remote memory or cache"):

* **request phase** -- the requester arbitrates, then drives the
  address and command for ``request_cycles`` bus cycles; every snooper
  observes it, invalidations/downgrades apply at the end of the phase,
  and the bus is released (split transaction).
* **fetch** -- the owner (home memory or dirty cache) fetches the
  block off the bus.
* **reply phase** -- the owner re-arbitrates and drives the block for
  ``reply_cycles`` cycles.

Because the bus serialises *everything*, its clock is the quantity the
paper sweeps against ring clocks in Figure 6 and Table 4.
"""

from __future__ import annotations

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.sim.engine import DirtyBitEngine, Step
from repro.sim.kernel import Simulator
from repro.sim.queues import Resource

__all__ = ["BusSystem"]


class BusSystem(DirtyBitEngine):
    """Split-transaction bus machine with snooping caches."""

    protocol = Protocol.BUS
    spec_name = "bus"

    #: Telemetry component name for this engine's events.
    trace_category = "bus"

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        self.bus = Resource(sim, name="bus")

    # ------------------------------------------------------------------
    # Bus phases
    # ------------------------------------------------------------------
    @property
    def clock_ps(self) -> int:
        return self.config.bus.clock_ps

    def _hold_bus(self, cycles: int, label: str = "hold") -> Step:
        """Arbitrate, hold the bus for ``cycles``, release."""
        granted_ps = yield self.bus.acquire()
        yield self.sim.timeout(cycles * self.clock_ps)
        self.bus.release()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                granted_ps,
                cycles * self.clock_ps,
                self.trace_category,
                f"bus.{label}",
                "bus",
            )

    def carry_block(self, src: int, dst: int) -> Step:
        """A write-back or memory update: one bus hold."""
        yield from self._hold_bus(self.config.bus.writeback_cycles, "writeback")
        self.stats.blocks_sent += 1

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def shared_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        home = self.address_map.home_of(address)
        # Snapshot ownership before the first yield (see dirty_owner).
        owner = self.dirty_owner(self.address_map.block_of(address))
        dirty = owner is not None

        self.prepare_victim(node, address)

        if not dirty and home == node and not is_write:
            yield from self.local_clean_read(node, address, start_ps)
            return

        # Request phase: address + command on the bus, snooped by all.
        yield from self._hold_bus(self.config.bus.request_cycles, "request")
        self.stats.probes_sent += 1
        ops = self.remote_ops(is_write, owner)
        self.snoop_now(address, self.remote_targets(ops, node, address, owner))

        if dirty:
            yield self.sim.timeout(self.config.memory.cache_response_ps)
        else:
            yield self.banks[home].access()

        if dirty or home != node:
            # Reply phase: the block crosses the bus (even a dirty
            # block headed to the home's own requester does).
            yield from self._hold_bus(self.config.bus.reply_cycles, "reply")
            self.stats.blocks_sent += 1

        self.commit(node, address, is_write, owner)
        klass = MissClass.REMOTE_DIRTY if dirty else MissClass.REMOTE_CLEAN
        self.stats.record_miss(klass, self.sim.now - start_ps, traversals=1)

    def upgrade(self, node: int, address: int, start_ps: int) -> Step:
        owner = self.dirty_owner(self.address_map.block_of(address))
        ops = self.remote_ops(True, owner, upgrade=True)
        targets = self.remote_targets(ops, node, address, owner)
        yield from self._hold_bus(self.config.bus.request_cycles, "request")
        self.stats.probes_sent += 1
        self.snoop_now(address, targets)
        self.commit(node, address, True, owner)
        self.stats.record_upgrade(
            self.sim.now - start_ps, traversals=1, had_sharers=bool(targets[0])
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def network_utilization(self, elapsed_ps: int) -> float:
        """Fraction of time the bus was held (the paper's 'network
        utilisation' for bus systems)."""
        return self.bus.utilization(elapsed_ps)

    def reset_statistics(self) -> None:
        super().reset_statistics()
        self.bus.reset_statistics()
