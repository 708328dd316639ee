"""Event-driven slot scheduler for the slotted ring.

Simulating every latch of the circular pipeline on every ring clock
would be exact but needlessly slow.  Because slots advance exactly one
stage per cycle, the arrival times of any slot at any node are pure
arithmetic: slot *k* with initial head position ``h_k`` has its head at
stage ``(h_k + t) mod S`` at cycle *t*, so it passes the node at stage
``p`` exactly when ``t ≡ (p - h_k) (mod S)``.  The scheduler exploits
this to wake a sender only at true slot-arrival instants, which makes
the simulation event count proportional to messages, not cycles, while
remaining cycle-exact for every quantity the paper reports.

Occupancy semantics
-------------------
A message in a slot occupies it from the grab cycle until the cycle
the removing node's stage sees the head again:

* unicast (directory requests, block messages): ``distance(src, dst)``
  cycles -- the destination strips the message, so downstream nodes
  see a free slot;
* broadcast (snooping probes, multicast invalidations): one full
  traversal -- the source removes its own probe after it has been
  snooped everywhere.

The anti-starvation rule of section 5 -- "preventing a node from
reusing a message slot immediately after removing a message from that
slot" -- is enforced by default and can be disabled for the fairness
ablation bench.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.sim.kernel import Relay, Simulator, Timeout
from repro.ring.slots import FrameLayout, SlotType
from repro.ring.topology import RingTopology

__all__ = [
    "CirculatingSlot",
    "SlotGrant",
    "SlotScheduler",
    "fastpath_enabled",
]


def fastpath_enabled() -> bool:
    """Whether new schedulers use the one-wake acquire fast path.

    Controlled by the ``REPRO_NO_FASTPATH`` environment variable (any
    non-empty value disables it) so the toggle propagates to process
    pool workers without threading a flag through every constructor --
    and, crucially, without adding a field to
    :class:`repro.core.config.SystemConfig`, which would change every
    result-store fingerprint.
    """
    return not os.environ.get("REPRO_NO_FASTPATH")


@dataclass
class CirculatingSlot:
    """One physical slot instance circulating on the ring."""

    slot_type: SlotType
    index: int
    #: Stage where this slot's head sat at cycle 0.
    initial_head: int
    #: First cycle at which the slot is free again.
    free_at_cycle: int = 0
    #: Node that most recently removed a message from this slot
    #: (it may not immediately reuse the slot -- anti-starvation rule).
    freed_by: Optional[int] = None
    #: Total cycles this slot has spent occupied (statistics).
    busy_cycles: int = 0
    #: Number of messages this slot has carried (statistics).
    grabs: int = 0


class SlotGrant(NamedTuple):
    """Result of a successful slot acquisition."""

    slot: CirculatingSlot
    #: Ring cycle at which the slot head was at the sender (grab time).
    grab_cycle: int
    #: Ring cycle at which the slot becomes free (message removed).
    release_cycle: int

    @property
    def occupancy(self) -> int:
        return self.release_cycle - self.grab_cycle


#: ``SlotType.value`` by ``SlotType.index``, for the telemetry hooks.
_TYPE_NAMES = tuple(slot_type.value for slot_type in SlotType)

#: One (slot type, node) arrival walk: ``(residue, order)``.  The
#: arrivals of the type at the node's stage are the cycles
#: ``residue + j * period`` (``j >= 0``), and arrival ``j`` is carried
#: by ``order[j % len(order)]``.
Walk = Tuple[int, List[CirculatingSlot]]


class SlotScheduler:
    """Grants slots to senders and tracks occupancy statistics.

    Per-type state lives in lists indexed by :attr:`SlotType.index`;
    :attr:`granted_cycles`, :attr:`granted_messages` and
    :attr:`wait_cycles` present the tallies keyed by :class:`SlotType`.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: RingTopology,
        layout: FrameLayout,
        clock_ps: int,
        enforce_fairness: bool = True,
        fastpath: Optional[bool] = None,
    ) -> None:
        if clock_ps <= 0:
            raise ValueError("clock_ps must be positive")
        self.sim = sim
        self.topology = topology
        self.layout = layout
        self.clock_ps = clock_ps
        self.enforce_fairness = enforce_fairness
        self.fastpath = fastpath_enabled() if fastpath is None else fastpath
        self._slots: List[List[CirculatingSlot]] = [[] for _ in SlotType]
        self._build_slots()
        #: Per slot type: the cycle spacing between consecutive arrivals
        #: of *any* slot of that type at a fixed stage, when that
        #: spacing is uniform (type appears exactly once per frame and
        #: the frames tile the ring exactly) -- the arrival walk's and
        #: the relay's step.  ``None`` disables the fast path for the
        #: type (e.g. ablation layouts with several probe slots per
        #: frame, whose arrivals are not evenly spaced).
        counts = [0 for _ in SlotType]
        for offset_type, _ in self.layout.slot_offsets():
            counts[offset_type.index] += 1
        tiles = (
            self.topology.total_stages
            == self.topology.num_frames * self.layout.frame_stages
        )
        self._relay_period: List[Optional[int]] = [
            self.layout.frame_stages if count == 1 and tiles else None
            for count in counts
        ]
        #: Per slot type, per node: the node's arrival :data:`Walk`,
        #: built on the node's first acquire of the type.
        self._walks: List[Dict[int, Walk]] = [{} for _ in SlotType]
        #: Slot-cycles and messages granted per type, for utilisation.
        self._granted_cycles = [0 for _ in SlotType]
        self._granted_messages = [0 for _ in SlotType]
        #: Cycles senders spent waiting for a free slot, per type.
        self._wait_cycles = [0 for _ in SlotType]

    def _build_slots(self) -> None:
        offsets = self.layout.slot_offsets()
        for frame in range(self.topology.num_frames):
            base = frame * self.layout.frame_stages
            for slot_type, offset in offsets:
                slots = self._slots[slot_type.index]
                slots.append(
                    CirculatingSlot(
                        slot_type=slot_type,
                        index=len(slots),
                        initial_head=(base + offset) % self.topology.total_stages,
                    )
                )

    def _build_walk(self, slot_type: SlotType, node: int) -> Walk:
        """The arrival walk of ``slot_type`` at ``node``'s stage.

        Only for types with a uniform arrival period: the slots' first
        arrivals ``(stage - initial_head) mod total_stages`` are then
        exactly ``residue, residue + period, ...``, one per slot, and
        the slot first arriving at ``residue + j * period`` carries
        every arrival ``j + k * len(slots)`` after it.
        """
        stage = self.topology.node_stage(node)
        total = self.topology.total_stages
        order = sorted(
            self._slots[slot_type.index],
            key=lambda slot: (stage - slot.initial_head) % total,
        )
        walk = ((stage - order[0].initial_head) % total, order)
        self._walks[slot_type.index][node] = walk
        return walk

    # ------------------------------------------------------------------
    # Time arithmetic
    # ------------------------------------------------------------------
    def cycle_to_ps(self, cycle: int) -> int:
        return cycle * self.clock_ps

    def ps_to_next_cycle(self, ps: int) -> int:
        """First ring cycle boundary at or after ``ps``."""
        return -(-ps // self.clock_ps)

    def slots_of(self, slot_type: SlotType) -> List[CirculatingSlot]:
        return self._slots[slot_type.index]

    def next_arrival(
        self, slot: CirculatingSlot, node_stage: int, not_before: int
    ) -> int:
        """First cycle >= ``not_before`` the slot head is at the stage."""
        total = self.topology.total_stages
        base = (node_stage - slot.initial_head) % total
        if base >= not_before:
            return base
        revolutions = -(-(not_before - base) // total)
        return base + revolutions * total

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def acquire(
        self,
        node: int,
        slot_type: SlotType,
        occupancy_cycles: int,
        removed_by: Optional[int] = None,
    ) -> Generator[Any, Any, SlotGrant]:
        """Process body: wait for and grab a free slot of ``slot_type``.

        ``occupancy_cycles`` is how long the message keeps the slot
        busy (unicast: distance to destination; broadcast: the full
        ring).  ``removed_by`` is the node that will strip the message
        -- it becomes subject to the anti-starvation rule.

        Yields kernel timeouts; returns a :class:`SlotGrant`.
        """
        if occupancy_cycles <= 0:
            raise ValueError("occupancy_cycles must be positive")
        sim = self.sim
        clock_ps = self.clock_ps
        start_cycle = -(-sim.now // clock_ps)
        period = self._relay_period[slot_type.index] if self.fastpath else None
        if period is not None:
            # Fast path: walk this node's slot arrivals in time order
            # from ``start_cycle`` to the first one grabbable *per
            # current slot state*, and relay-sleep straight to it.
            #
            # The walk finds the earliest grabbable arrival: it visits
            # every arrival in order, and no two slots of one type
            # arrive in the same cycle.  It is bounded: every grant is
            # made at the current cycle and holds its slot for at most
            # one revolution, so every slot is free within a revolution
            # of ``start_cycle`` and the walk ends within two (the
            # second for the anti-starvation pass) -- after one or two
            # steps at the paper's loads.
            #
            # Skipping the arrivals in between is exact, not
            # approximate: ``free_at_cycle`` only ever increases and
            # ``freed_by`` only changes when it does, so an arrival
            # that is not grabbable now can never become grabbable
            # later -- the per-arrival polling loop below would wake at
            # each skipped arrival, observe exactly that, and go back
            # to sleep.  The prediction is re-verified at wake time
            # (the walk's first test after the yield) because another
            # acquirer may have grabbed the predicted slot in the
            # interim; the walk then resumes after the contested
            # arrival, exactly where the polling loop would.
            #
            # Which wakes *exist* is still observable: equal-time
            # tie-breaks across all processes are decided by kernel
            # sequence numbers, and the reference loop draws one per
            # arrival it polls.  The :class:`Relay` request reproduces
            # that allocation stream exactly -- one fresh sequence
            # number per skipped arrival, drawn at the arrival's own
            # pop -- without resuming this generator, so every
            # same-time ordering (same-node contests, cross-node
            # engine-turn order) is bit-identical to polling while the
            # dead arrivals cost one heap push each instead of a full
            # generator resume plus this loop body.
            walk = self._walks[slot_type.index].get(node)
            if walk is None:
                walk = self._build_walk(slot_type, node)
            residue, order = walk
            frames = len(order)
            fairness = self.enforce_fairness
            lap = (start_cycle - residue + period - 1) // period
            arrival = residue + lap * period
            position = lap % frames
            now_cycle = start_cycle
            while True:
                slot = order[position]
                free_at = slot.free_at_cycle
                if arrival < free_at or (
                    # The anti-starvation rule blocks this exact pass.
                    fairness
                    and arrival == free_at
                    and slot.freed_by == node
                ):
                    arrival += period
                    position += 1
                    if position == frames:
                        position = 0
                    continue
                if arrival == now_cycle:
                    return self._grant(
                        slot,
                        slot_type,
                        node,
                        arrival,
                        occupancy_cycles,
                        start_cycle,
                        removed_by,
                    )
                # First arrival the reference loop would sleep to: the
                # reference checks arrivals <= now inline without
                # sleeping, so it is the first member of the
                # progression after ``now_cycle``.
                first = arrival - (arrival - now_cycle - 1) // period * period
                if first == arrival:
                    yield Timeout(arrival * clock_ps - sim.now)
                else:
                    yield Relay(
                        first * clock_ps, period * clock_ps, arrival * clock_ps
                    )
                now_cycle = arrival
        stage = self.topology.node_stage(node)
        slots = self._slots[slot_type.index]
        search_from = start_cycle
        while True:
            # Reference path (--no-fastpath): wake at every slot
            # arrival and poll.  Kept verbatim for bisection against
            # the fast path above.
            arrival, slot = min(
                (self.next_arrival(candidate, stage, search_from), candidate)
                for candidate in slots
            )
            now_cycle = self.ps_to_next_cycle(self.sim.now)
            if arrival > now_cycle:
                yield self.sim.timeout(
                    self.cycle_to_ps(arrival) - self.sim.now
                )
            if self._grabbable(slot, node, arrival):
                return self._grant(
                    slot,
                    slot_type,
                    node,
                    arrival,
                    occupancy_cycles,
                    start_cycle,
                    removed_by,
                )
            search_from = arrival + 1

    def _grant(
        self,
        slot: CirculatingSlot,
        slot_type: SlotType,
        node: int,
        arrival: int,
        occupancy_cycles: int,
        start_cycle: int,
        removed_by: Optional[int],
    ) -> SlotGrant:
        """Record a successful grab (shared by both acquire paths)."""
        release = arrival + occupancy_cycles
        slot.free_at_cycle = release
        slot.freed_by = removed_by
        slot.busy_cycles += occupancy_cycles
        slot.grabs += 1
        waited = arrival - start_cycle
        index = slot_type.index
        self._granted_cycles[index] += occupancy_cycles
        self._granted_messages[index] += 1
        self._wait_cycles[index] += waited
        histograms = self.sim.histograms
        if histograms is not None:
            histograms.record_slot_grant(
                _TYPE_NAMES[index], occupancy_cycles, waited
            )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.slot_grant(
                self.cycle_to_ps(arrival),
                self.cycle_to_ps(occupancy_cycles),
                _TYPE_NAMES[index],
                slot.index,
                node,
                waited,
            )
        # ``SlotGrant(slot, arrival, release)`` without the generated
        # ``__new__``'s Python frame.
        return tuple.__new__(SlotGrant, (slot, arrival, release))

    def _grabbable(self, slot: CirculatingSlot, node: int, cycle: int) -> bool:
        if cycle < slot.free_at_cycle:
            return False
        if (
            self.enforce_fairness
            and slot.freed_by == node
            and cycle == slot.free_at_cycle
        ):
            # The node just removed a message from this very slot as it
            # passed; it must let the slot go by once (section 5).
            return False
        return True

    # ------------------------------------------------------------------
    # Derived timing helpers used by the protocol engines
    # ------------------------------------------------------------------
    def transfer_cycles(self, slot_type: SlotType, src: int, dst: int) -> int:
        """Cycles from grab until the *tail* is received at ``dst``."""
        return self.topology.distance(src, dst) + self.layout.stages_of(slot_type)

    def broadcast_cycles(self) -> int:
        """Cycles for a broadcast probe to return to its source."""
        return self.topology.total_stages

    def ack_delay_cycles(self) -> int:
        """Extra cycles until the snooping ack returns to the requester.

        The owner acknowledges in the *following* probe slot of the
        same type (section 3.1), which trails the probe by one frame.
        """
        return self.layout.frame_stages

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def granted_cycles(self) -> Dict[SlotType, int]:
        """Slot-cycles granted per type (a snapshot)."""
        return dict(zip(SlotType, self._granted_cycles))

    @property
    def granted_messages(self) -> Dict[SlotType, int]:
        """Messages granted a slot, per type (a snapshot)."""
        return dict(zip(SlotType, self._granted_messages))

    @property
    def wait_cycles(self) -> Dict[SlotType, int]:
        """Cycles senders spent waiting for a slot, per type (a snapshot)."""
        return dict(zip(SlotType, self._wait_cycles))

    def utilization(self, slot_type: SlotType, elapsed_ps: int) -> float:
        """Fraction of slot-cycles of a type that carried messages."""
        if elapsed_ps <= 0:
            return 0.0
        cycles = elapsed_ps // self.clock_ps
        capacity = len(self._slots[slot_type.index]) * cycles
        if capacity <= 0:
            return 0.0
        return min(1.0, self._granted_cycles[slot_type.index] / capacity)

    def aggregate_utilization(self, elapsed_ps: int) -> float:
        """Stage-weighted average slot utilisation (the paper's 'ring
        utilisation' metric)."""
        if elapsed_ps <= 0:
            return 0.0
        total_weight = 0
        weighted = 0.0
        for slot_type, slots in zip(SlotType, self._slots):
            weight = len(slots) * self.layout.stages_of(slot_type)
            total_weight += weight
            weighted += self.utilization(slot_type, elapsed_ps) * weight
        return weighted / total_weight if total_weight else 0.0

    def reset_statistics(self) -> None:
        """Zero the grant/wait counters (start of a measurement window).

        Per-type tallies and every slot's own ``busy_cycles``/``grabs``
        restart together, so ``sum(slot.busy_cycles)`` stays equal to
        ``granted_cycles[type]``.  Slot *state* (``free_at_cycle``,
        ``freed_by``) is untouched: messages in flight stay in flight.
        """
        self._granted_cycles = [0 for _ in SlotType]
        self._granted_messages = [0 for _ in SlotType]
        self._wait_cycles = [0 for _ in SlotType]
        for slots in self._slots:
            for slot in slots:
                slot.busy_cycles = 0
                slot.grabs = 0

    def mean_wait_cycles(self, slot_type: SlotType) -> float:
        """Average cycles senders waited for a slot of this type."""
        messages = self._granted_messages[slot_type.index]
        if not messages:
            return 0.0
        return self._wait_cycles[slot_type.index] / messages
