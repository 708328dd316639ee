"""Slot-occupancy accounting: simulator vs telemetry vs model.

The same quantity -- how long a message keeps a ring slot busy -- is
tracked in three places:

* the scheduler's per-slot ``busy_cycles`` and per-type
  ``granted_cycles`` counters (feeding ``utilization()``);
* the telemetry ``slot_occupancy`` histograms
  (:class:`repro.obs.histograms.Histograms`);
* the analytical occupancy of :func:`repro.models.ring_common.
  contention` (``ring_cycles`` per broadcast, ``distance`` per
  unicast).

Broadcast slots are the delicate case: their traversal spans every
frame boundary (occupancy ``total_stages`` > ``frame_stages``), so an
off-by-a-frame in release accounting would show up as telemetry
disagreeing with the model.  These tests pin all three views together,
with grab cycles deliberately misaligned to the frame grid.
"""

from __future__ import annotations

import pytest

from repro.models.base import slot_wait
from repro.obs.histograms import Histograms
from repro.ring.scheduler import SlotScheduler
from repro.ring.slots import FrameLayout, SlotType
from repro.ring.topology import RingTopology
from repro.sim.kernel import Simulator

CLOCK_PS = 2_000


def make_instrumented_scheduler(num_nodes=8, fastpath=None):
    sim = Simulator()
    sim.histograms = Histograms()
    layout = FrameLayout()
    topology = RingTopology.for_layout(num_nodes, layout)
    scheduler = SlotScheduler(
        sim, topology, layout, clock_ps=CLOCK_PS, fastpath=fastpath
    )
    return sim, topology, layout, scheduler


def run_broadcasts(sim, topology, scheduler, senders):
    """Each sender broadcasts once (full-traversal probe occupancy)."""
    grants = []
    total = topology.total_stages

    def body(node, delay_cycles):
        if delay_cycles:
            yield sim.timeout(delay_cycles * CLOCK_PS)
        grant = yield from scheduler.acquire(
            node,
            SlotType.PROBE_EVEN,
            occupancy_cycles=total,
            removed_by=node,
        )
        grants.append(grant)

    for node, delay in senders:
        sim.spawn(body(node, delay))
    sim.run()
    return grants


@pytest.mark.parametrize("fastpath", [True, False])
def test_broadcast_occupancy_spans_frames_exactly(fastpath):
    sim, topology, layout, scheduler = make_instrumented_scheduler(
        fastpath=fastpath
    )
    total = topology.total_stages
    assert total > layout.frame_stages  # broadcasts do wrap frames
    # Deliberately frame-misaligned start times: grants whose busy
    # interval crosses frame boundaries at every alignment.
    senders = [(0, 0), (3, 1), (5, layout.frame_stages - 1), (1, 7)]
    grants = run_broadcasts(sim, topology, scheduler, senders)
    assert len(grants) == len(senders)
    for grant in grants:
        # A broadcast holds its slot for exactly one traversal, no
        # matter where in the frame grid the grab happened.
        assert grant.release_cycle - grant.grab_cycle == total
        assert grant.slot.free_at_cycle >= grant.release_cycle
    # Scheduler counters, per-slot counters and telemetry histograms
    # are three bookkeepers of the same grants.
    expected_cycles = len(grants) * total
    assert scheduler.granted_cycles[SlotType.PROBE_EVEN] == expected_cycles
    assert (
        sum(s.busy_cycles for s in scheduler.slots_of(SlotType.PROBE_EVEN))
        == expected_cycles
    )
    histogram = sim.histograms.finalize().slot_occupancy["probe-even"]
    assert histogram.count == len(grants)
    assert histogram.total == expected_cycles
    assert histogram.min == histogram.max == total


@pytest.mark.parametrize("fastpath", [True, False])
def test_unicast_occupancy_matches_ring_distance(fastpath):
    sim, topology, layout, scheduler = make_instrumented_scheduler(
        fastpath=fastpath
    )
    pairs = [(0, 1), (2, 7), (6, 3), (4, 5)]
    grants = []

    def body(src, dst):
        grant = yield from scheduler.acquire(
            src,
            SlotType.BLOCK,
            occupancy_cycles=topology.distance(src, dst),
            removed_by=dst,
        )
        grants.append((src, dst, grant))

    for src, dst in pairs:
        sim.spawn(body(src, dst))
    sim.run()
    assert len(grants) == len(pairs)
    expected_total = 0
    for src, dst, grant in grants:
        distance = topology.distance(src, dst)
        assert grant.occupancy == distance
        expected_total += distance
    assert scheduler.granted_cycles[SlotType.BLOCK] == expected_total
    histogram = sim.histograms.finalize().slot_occupancy["block"]
    assert histogram.count == len(pairs)
    assert histogram.total == expected_total


def test_measured_utilization_matches_analytical_occupancy():
    """Simulated slot utilisation == the model's occupancy arithmetic.

    ``contention`` rates probe utilisation as
    ``rate x mean_occupancy / num_slots`` with ``mean_occupancy =
    ring_cycles`` for broadcasts.  Driving the scheduler with a known
    broadcast count over a known window reduces both sides to the same
    closed form, so they must agree exactly -- this is the cross-check
    that the event-driven accounting (including frame-wrapping
    traversals) measures the quantity the model predicts.
    """
    sim, topology, layout, scheduler = make_instrumented_scheduler()
    total = topology.total_stages
    rounds = 6
    # One broadcast per node per revolution, round-robin: a known
    # message count with every traversal wrapping the frame grid.
    senders = [
        (node, burst * total) for burst in range(rounds) for node in (0, 4)
    ]
    grants = run_broadcasts(sim, topology, scheduler, senders)
    elapsed_ps = max(g.release_cycle for g in grants) * CLOCK_PS

    def idle():
        yield sim.timeout(elapsed_ps - sim.now)

    sim.spawn(idle())
    sim.run()

    measured = scheduler.utilization(SlotType.PROBE_EVEN, elapsed_ps)
    # The model's occupancy arithmetic for the same traffic.
    num_slots = len(scheduler.slots_of(SlotType.PROBE_EVEN))
    messages = len(grants)
    elapsed_cycles = elapsed_ps // CLOCK_PS
    analytical = (messages * total) / (num_slots * elapsed_cycles)
    assert measured == pytest.approx(analytical, rel=1e-12)
    # Telemetry mean occupancy is the model's broadcast occupancy.
    histogram = sim.histograms.finalize().slot_occupancy["probe-even"]
    assert histogram.mean == pytest.approx(float(total))


def test_slot_wait_model_sanity():
    """The M/D/1-ish slot-wait helper brackets the simulated regime.

    Not an equality (the model is a queueing approximation, the
    simulator is exact), but the model's zero-load limit -- half a
    slot period -- must match the simulator's average wait for an
    uncontended slot stream, which is uniform over the period.
    """
    layout = FrameLayout()
    period_ps = layout.frame_stages * CLOCK_PS / (layout.probe_slots / 2)
    assert slot_wait(0.0, period_ps) == pytest.approx(period_ps / 2.0)


@pytest.mark.parametrize("fastpath", [True, False])
def test_fairness_bump_keeps_busy_accounting_consistent(fastpath):
    """Anti-starvation re-grabs never double-count busy cycles."""
    sim, topology, _, scheduler = make_instrumented_scheduler(
        fastpath=fastpath
    )
    total = topology.total_stages
    for slot in scheduler.slots_of(SlotType.PROBE_EVEN):
        if slot.index != 0:
            slot.free_at_cycle = 1000 * total
    grants = []

    def body():
        for _ in range(3):
            grant = yield from scheduler.acquire(
                0, SlotType.PROBE_EVEN, occupancy_cycles=total, removed_by=0
            )
            grants.append(grant)

    sim.spawn(body())
    sim.run()
    assert len(grants) == 3
    # Each re-grab waits out the fairness revolution...
    for earlier, later in zip(grants, grants[1:]):
        assert later.grab_cycle == earlier.release_cycle + total
    # ...and the busy time still counts each traversal exactly once.
    slot = grants[0].slot
    assert slot.busy_cycles == 3 * total
    assert scheduler.granted_cycles[SlotType.PROBE_EVEN] == 3 * total
