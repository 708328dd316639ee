"""Unit tests for the event-driven slot scheduler."""

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ring.scheduler import SlotScheduler
from repro.ring.slots import FrameLayout, SlotType
from repro.ring.topology import RingTopology
from repro.sim.kernel import Relay, Simulator, Timeout


def make_scheduler(num_nodes=8, fairness=True):
    sim = Simulator()
    layout = FrameLayout()
    topology = RingTopology.for_layout(num_nodes, layout)
    scheduler = SlotScheduler(
        sim, topology, layout, clock_ps=2_000, enforce_fairness=fairness
    )
    return sim, topology, layout, scheduler


def acquire(sim, scheduler, node, slot_type, occupancy, removed_by=None):
    box = {}

    def body():
        box["grant"] = yield from scheduler.acquire(
            node, slot_type, occupancy, removed_by
        )

    sim.spawn(body())
    sim.run()
    return box["grant"]


def test_slot_population():
    _, topology, layout, scheduler = make_scheduler()
    assert len(scheduler.slots_of(SlotType.PROBE_EVEN)) == topology.num_frames
    assert len(scheduler.slots_of(SlotType.PROBE_ODD)) == topology.num_frames
    assert len(scheduler.slots_of(SlotType.BLOCK)) == topology.num_frames
    heads = [
        slot.initial_head
        for slot_type in SlotType
        for slot in scheduler.slots_of(slot_type)
    ]
    assert len(set(heads)) == len(heads)  # all distinct positions


def test_next_arrival_periodicity():
    _, topology, _, scheduler = make_scheduler()
    slot = scheduler.slots_of(SlotType.BLOCK)[0]
    first = scheduler.next_arrival(slot, node_stage=6, not_before=0)
    again = scheduler.next_arrival(slot, node_stage=6, not_before=first + 1)
    assert again == first + topology.total_stages


def test_acquire_returns_prompt_grant_when_free():
    sim, _, layout, scheduler = make_scheduler()
    grant = acquire(sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=30)
    # A probe-even slot passes node 0 at least once per frame.
    assert 0 <= grant.grab_cycle <= layout.frame_stages
    assert grant.occupancy == 30


def test_acquire_skips_busy_slots():
    sim, topology, layout, scheduler = make_scheduler()
    total = topology.total_stages
    first = acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=total)
    second = acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=total)
    assert second.grab_cycle > first.grab_cycle
    assert second.slot is not first.slot or (
        second.grab_cycle >= first.release_cycle
    )


def test_all_slots_busy_waits_for_release():
    sim, topology, layout, scheduler = make_scheduler()
    total = topology.total_stages
    frames = topology.num_frames
    grants = [
        acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=5 * total)
        for _ in range(frames)
    ]
    # All block slots are busy for a long time; the next acquire must
    # wait for the earliest release.
    late = acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=total)
    assert late.grab_cycle >= min(grant.release_cycle for grant in grants)


def _saturate_other_slots(sim, scheduler, slot_type, keep_index, cycles):
    """Occupy every slot of ``slot_type`` except ``keep_index`` for a
    long time, so the kept slot is the only grabbable candidate."""
    for slot in scheduler.slots_of(slot_type):
        if slot.index != keep_index:
            slot.free_at_cycle = cycles
            slot.freed_by = None


def test_fairness_rule_blocks_immediate_reuse():
    sim, topology, _, scheduler = make_scheduler(fairness=True)
    total = topology.total_stages
    _saturate_other_slots(sim, scheduler, SlotType.PROBE_EVEN, 0, 100 * total)
    first = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    assert first.slot.index == 0
    second = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    # Node 0 frees the slot exactly when it returns; the rule forces
    # it to let the slot pass once (a full extra revolution).
    assert second.slot is first.slot
    assert second.grab_cycle == first.release_cycle + total


def test_fairness_disabled_allows_immediate_reuse():
    sim, topology, _, scheduler = make_scheduler(fairness=False)
    total = topology.total_stages
    _saturate_other_slots(sim, scheduler, SlotType.PROBE_EVEN, 0, 100 * total)
    first = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    second = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    assert second.slot is first.slot
    assert second.grab_cycle == first.release_cycle


def test_other_node_can_grab_freed_slot():
    sim, topology, _, scheduler = make_scheduler(fairness=True)
    total = topology.total_stages
    first = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    # Node 1 sits downstream; the slot reaches it after being freed.
    second = acquire(
        sim, scheduler, 1, SlotType.PROBE_EVEN, occupancy=total, removed_by=1
    )
    assert second.grab_cycle >= first.release_cycle - total  # sane window


def test_utilization_accounting():
    sim, topology, layout, scheduler = make_scheduler()
    total = topology.total_stages
    acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=total)
    elapsed_ps = scheduler.cycle_to_ps(2 * total)

    def idle():
        yield sim.timeout(elapsed_ps - sim.now)

    sim.spawn(idle())
    sim.run()
    utilization = scheduler.utilization(SlotType.BLOCK, elapsed_ps)
    expected = total / (topology.num_frames * 2 * total)
    assert utilization == pytest.approx(expected, rel=0.01)
    assert 0.0 < scheduler.aggregate_utilization(elapsed_ps) < 1.0


def test_wait_statistics():
    sim, topology, _, scheduler = make_scheduler()
    acquire(sim, scheduler, 0, SlotType.PROBE_ODD, occupancy=10)
    assert scheduler.granted_messages[SlotType.PROBE_ODD] == 1
    assert scheduler.mean_wait_cycles(SlotType.PROBE_ODD) >= 0.0
    assert scheduler.mean_wait_cycles(SlotType.BLOCK) == 0.0


def test_transfer_and_broadcast_helpers():
    _, topology, layout, scheduler = make_scheduler()
    assert scheduler.broadcast_cycles() == topology.total_stages
    assert scheduler.ack_delay_cycles() == layout.frame_stages
    assert (
        scheduler.transfer_cycles(SlotType.BLOCK, 0, 1)
        == topology.distance(0, 1) + layout.block_stages
    )


def test_zero_occupancy_rejected():
    sim, _, _, scheduler = make_scheduler()
    with pytest.raises(ValueError):
        acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=0)


def test_ps_cycle_conversions():
    _, _, _, scheduler = make_scheduler()
    assert scheduler.cycle_to_ps(5) == 10_000
    assert scheduler.ps_to_next_cycle(0) == 0
    assert scheduler.ps_to_next_cycle(1) == 1
    assert scheduler.ps_to_next_cycle(2_000) == 1
    assert scheduler.ps_to_next_cycle(2_001) == 2


def test_bad_clock_rejected():
    sim = Simulator()
    layout = FrameLayout()
    topology = RingTopology.for_layout(4, layout)
    with pytest.raises(ValueError):
        SlotScheduler(sim, topology, layout, clock_ps=0)


def test_concurrent_acquires_no_double_grant():
    """Many nodes grabbing simultaneously never share a slot interval."""
    sim, topology, _, scheduler = make_scheduler()
    total = topology.total_stages
    grants = []

    def body(node):
        grant = yield from scheduler.acquire(
            node, SlotType.BLOCK, occupancy_cycles=total, removed_by=node
        )
        grants.append(grant)

    for node in range(8):
        sim.spawn(body(node))
    sim.run()
    assert len(grants) == 8
    # For any two grants of the same physical slot, intervals at the
    # slot level must not overlap.
    by_slot = {}
    for grant in grants:
        by_slot.setdefault(id(grant.slot), []).append(grant)
    for shared in by_slot.values():
        shared.sort(key=lambda grant: grant.grab_cycle)
        for earlier, later in zip(shared, shared[1:]):
            assert later.grab_cycle >= earlier.release_cycle


# ----------------------------------------------------------------------
# The fast path's arrival walk against a per-slot scan
# ----------------------------------------------------------------------
def scan_earliest_grabbable(scheduler, node, slot_type, search_from):
    """The earliest grabbable ``(arrival, slot)`` at ``node`` from
    ``search_from``, found by scanning every slot of the type: each
    slot's first arrival at or after both ``search_from`` and its
    ``free_at_cycle``, one revolution later when the anti-starvation
    rule blocks that exact pass, minimised over the slots."""
    total = scheduler.topology.total_stages
    stage = scheduler.topology.node_stage(node)
    best = None
    for slot in scheduler.slots_of(slot_type):
        free_at = slot.free_at_cycle
        arrival = scheduler.next_arrival(
            slot, stage, max(free_at, search_from)
        )
        if (
            scheduler.enforce_fairness
            and arrival == free_at
            and slot.freed_by == node
        ):
            arrival += total
        if best is None or arrival < best[0]:
            best = (arrival, slot)
    return best


def walk_earliest_grabbable(scheduler, node, slot_type):
    """The ``(arrival, slot)`` the fast-path ``acquire`` grants from the
    current slot states, with its sleep checked against the arrival."""
    now = scheduler.sim.now
    body = scheduler.acquire(node, slot_type, occupancy_cycles=1)
    try:
        request = next(body)
    except StopIteration as done:
        return done.value.grab_cycle, done.value.slot
    assert isinstance(request, (Timeout, Relay))
    wake = request.final if isinstance(request, Relay) else now + request.delay
    # Nothing changed while asleep: the walk's re-check grants.
    with pytest.raises(StopIteration) as done:
        body.send(None)
    grant = done.value.value
    assert wake == grant.grab_cycle * scheduler.clock_ps
    return grant.grab_cycle, grant.slot


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_arrival_walk_matches_per_slot_scan(data):
    layout = FrameLayout(
        width_bits=data.draw(st.sampled_from([16, 32, 64]), label="width"),
        block_size=data.draw(
            st.sampled_from([16, 32, 64, 128]), label="block"
        ),
    )
    nodes = data.draw(st.integers(2, 64), label="nodes")
    fairness = data.draw(st.booleans(), label="fairness")
    topology = RingTopology.for_layout(nodes, layout)
    total = topology.total_stages
    sim = Simulator()
    scheduler = SlotScheduler(
        sim,
        topology,
        layout,
        clock_ps=2_000,
        enforce_fairness=fairness,
        fastpath=True,
    )
    slot_type = data.draw(st.sampled_from(list(SlotType)), label="type")
    node = data.draw(st.integers(0, nodes - 1), label="node")
    start = data.draw(st.integers(0, 3 * total), label="start_cycle")
    # Any instant in the cycle before ``start``'s boundary rounds up to
    # ``start``.
    sim.now = start * 2_000 - data.draw(st.integers(0, 1_999), label="ps")
    if sim.now < 0:
        sim.now = 0
        start = 0
    stage = topology.node_stage(node)
    for slot in scheduler.slots_of(slot_type):
        # Grants are made at the current cycle and hold a slot for at
        # most one revolution.  Half the slots are freed exactly as
        # they pass the node, where the anti-starvation rule bites.
        free_at = data.draw(st.integers(0, start + total))
        if data.draw(st.booleans()):
            free_at = scheduler.next_arrival(slot, stage, free_at)
        slot.free_at_cycle = free_at
        slot.freed_by = data.draw(
            st.one_of(st.just(node), st.none(), st.integers(0, nodes - 1))
        )
    expected = scan_earliest_grabbable(scheduler, node, slot_type, start)
    got = walk_earliest_grabbable(scheduler, node, slot_type)
    assert got[0] == expected[0]
    assert got[1] is expected[1]


# ----------------------------------------------------------------------
# One slotted-ring layer
# ----------------------------------------------------------------------
def _slot_scheduler_sites(tree):
    """Line numbers of ``SlotScheduler(...)`` constructions and of slot
    acquires.  A slot acquire is the generator ``acquire`` (run with
    ``yield from``, or given ``occupancy_cycles``); the block locks',
    bus's and bank queues' acquires return events and are yielded."""
    delegated = {
        id(node.value) for node in ast.walk(tree) if isinstance(node, ast.YieldFrom)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "SlotScheduler":
            yield node.lineno
        elif isinstance(func, ast.Attribute) and func.attr == "SlotScheduler":
            yield node.lineno
        elif isinstance(func, ast.Attribute) and func.attr == "acquire":
            if id(node) in delegated or any(
                keyword.arg == "occupancy_cycles" for keyword in node.keywords
            ):
                yield node.lineno


def test_slot_schedulers_are_built_and_acquired_only_in_ring_base():
    """Every ring of every engine is built and sent on in ``ring/base.py``.

    The paper's slotted-ring message -- acquire a slot, count it, trace
    it, wait for its tail -- is written once there, as ``send`` and
    ``broadcast`` over ``RingSystemBase.rings``.  A second copy of that
    sequence (the ring hierarchy kept one) drifts: its messages once
    missed the invariant monitor and the tracer.  So outside
    ``ring/base.py`` no module under ``src/repro`` may construct a
    ``SlotScheduler`` or acquire a slot from one.
    """
    import repro

    root = pathlib.Path(repro.__file__).parent
    offenders = []
    seen_in_base = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        sites = list(_slot_scheduler_sites(ast.parse(path.read_text())))
        if relative == "ring/base.py":
            seen_in_base = sites
        else:
            offenders.extend(f"{relative}:{line}" for line in sites)
    assert not offenders
    # The lint sees the layer's own construction and acquires.
    assert len(seen_in_base) == 3
