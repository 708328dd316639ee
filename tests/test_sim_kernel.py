"""Unit tests for the discrete-event simulation kernel."""

import itertools
import pickle

import pytest

from repro.sim.kernel import Event, Relay, SimulationError, Simulator, Timeout


def test_initial_time_is_zero(sim):
    assert sim.now == 0


def test_run_empty_returns_zero(sim):
    assert sim.run() == 0


def test_timeout_advances_clock(sim):
    log = []

    def body():
        yield sim.timeout(5_000)
        log.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert log == [5_000]


def test_zero_timeout_resumes_same_time(sim):
    log = []

    def body():
        yield sim.timeout(0)
        log.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert log == [0]


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_sequential_timeouts_accumulate(sim):
    log = []

    def body():
        for _ in range(3):
            yield sim.timeout(2_000)
            log.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert log == [2_000, 4_000, 6_000]


def test_two_processes_interleave_by_time(sim):
    log = []

    def body(name, period):
        for _ in range(2):
            yield sim.timeout(period)
            log.append((sim.now, name))

    sim.spawn(body("slow", 3_000))
    sim.spawn(body("fast", 1_000))
    sim.run()
    assert log == [
        (1_000, "fast"),
        (2_000, "fast"),
        (3_000, "slow"),
        (6_000, "slow"),
    ]


def test_event_wakes_waiter_with_value(sim):
    event = sim.event("e")
    got = []

    def waiter():
        value = yield event
        got.append((sim.now, value))

    def firer():
        yield sim.timeout(7_000)
        event.succeed("payload")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == [(7_000, "payload")]


def test_event_wakes_multiple_waiters(sim):
    event = sim.event()
    got = []

    def waiter(tag):
        value = yield event
        got.append((tag, value))

    for tag in range(3):
        sim.spawn(waiter(tag))

    def firer():
        yield sim.timeout(100)
        event.succeed(42)

    sim.spawn(firer())
    sim.run()
    assert sorted(got) == [(0, 42), (1, 42), (2, 42)]


def test_late_waiter_gets_fired_value_immediately(sim):
    event = sim.event()
    event.succeed("early")
    got = []

    def waiter():
        value = yield event
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0, "early")]


def test_event_double_fire_raises(sim):
    event = sim.event("once")
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_properties(sim):
    event = sim.event("named")
    assert not event.fired
    assert event.value is None
    event.succeed(9)
    assert event.fired
    assert event.value == 9


def test_process_done_event_carries_return_value(sim):
    def body():
        yield sim.timeout(1_000)
        return "result"

    process = sim.spawn(body())
    got = []

    def waiter():
        value = yield process.done
        got.append(value)

    sim.spawn(waiter())
    sim.run()
    assert got == ["result"]
    assert process.result == "result"
    assert not process.alive


def test_yielding_process_waits_for_termination(sim):
    order = []

    def child():
        yield sim.timeout(5_000)
        order.append("child")
        return 11

    def parent():
        spawned = sim.spawn(child())
        value = yield spawned
        order.append(("parent", value, sim.now))

    sim.spawn(parent())
    sim.run()
    assert order == ["child", ("parent", 11, 5_000)]


def test_unsupported_yield_raises(sim):
    def body():
        yield "not-a-request"

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_relay_first_hop_in_the_past_raises(sim):
    def body():
        yield sim.timeout(5_000)
        yield Relay(4_000, 1_000, 10_000)

    sim.spawn(body(), name="late")
    with pytest.raises(SimulationError, match="in the past"):
        sim.run()


def test_run_until_stops_clock(sim):
    log = []

    def body():
        yield sim.timeout(10_000)
        log.append("ran")

    sim.spawn(body())
    final = sim.run(until=4_000)
    assert final == 4_000
    assert log == []
    sim.run()
    assert log == ["ran"]


def test_peek_reports_next_event_time(sim):
    def body():
        yield sim.timeout(3_000)

    sim.spawn(body())
    assert sim.peek() == 0  # the spawn itself is scheduled at now
    sim.run()
    assert sim.peek() is None


def test_active_process_count(sim):
    def body():
        yield sim.timeout(1)

    sim.spawn(body())
    sim.spawn(body())
    assert sim.active_process_count == 2
    sim.run()
    assert sim.active_process_count == 0


def test_same_time_events_fifo_order(sim):
    log = []

    def body(tag):
        yield sim.timeout(1_000)
        log.append(tag)

    for tag in range(5):
        sim.spawn(body(tag))
    sim.run()
    assert log == [0, 1, 2, 3, 4]


def test_timeout_repr():
    assert "5" in repr(Timeout(5))


def test_deterministic_replay():
    def build_and_run():
        sim = Simulator()
        log = []

        def body(tag, period):
            for _ in range(4):
                yield sim.timeout(period)
                log.append((sim.now, tag))

        for tag, period in enumerate((700, 1_100, 1_300)):
            sim.spawn(body(tag, period))
        sim.run()
        return log

    assert build_and_run() == build_and_run()


def test_nested_generators_compose(sim):
    log = []

    def inner():
        yield sim.timeout(2_000)
        return "inner-done"

    def outer():
        value = yield from inner()
        log.append((sim.now, value))

    sim.spawn(outer())
    sim.run()
    assert log == [(2_000, "inner-done")]


def test_large_time_values(sim):
    def body():
        yield sim.timeout(10**15)

    sim.spawn(body())
    assert sim.run() == 10**15


# ----------------------------------------------------------------------
# timeout() argument validation (regression: int(delay) used to
# silently truncate non-integral floats)
# ----------------------------------------------------------------------
def test_timeout_rejects_non_integral_float(sim):
    with pytest.raises(TypeError, match="integral"):
        sim.timeout(1000.5)


def test_timeout_rejects_non_numeric_delay(sim):
    with pytest.raises(TypeError, match="int"):
        sim.timeout("1000")


def test_timeout_accepts_integral_float(sim):
    log = []

    def body():
        yield sim.timeout(2000.0)  # e.g. exact 1e6/mhz arithmetic
        log.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert log == [2000]
    assert isinstance(sim.now, int)


# ----------------------------------------------------------------------
# run(until=...) resumability contract
# ----------------------------------------------------------------------
def test_run_until_resumes_across_interleaved_peeks(sim):
    log = []

    def body(tag, delay):
        yield sim.timeout(delay)
        log.append((tag, sim.now))

    sim.spawn(body("a", 3_000))
    sim.spawn(body("b", 9_000))
    assert sim.run(until=1_000) == 1_000
    assert log == []
    assert sim.peek() == 3_000

    assert sim.run(until=5_000) == 5_000
    assert log == [("a", 3_000)]
    assert sim.peek() == 9_000

    # A process spawned mid-run schedules at the resumed clock: it runs
    # before the peeked 9_000 wakeup but never before now.
    sim.spawn(body("late", 2_000))
    assert sim.run() == 9_000
    assert log == [("a", 3_000), ("late", 7_000), ("b", 9_000)]


def test_run_until_past_heap_advances_clock_exactly(sim):
    def body():
        yield sim.timeout(1_000)

    sim.spawn(body())
    # The heap drains at t=1000; the clock must still land at `until`.
    assert sim.run(until=6_000) == 6_000
    assert sim.now == 6_000
    # Resuming with nothing scheduled stays put.
    assert sim.run() == 6_000


def test_run_until_in_the_past_raises(sim):
    def body():
        yield sim.timeout(4_000)

    sim.spawn(body())
    sim.run(until=3_000)
    with pytest.raises(ValueError, match="backwards"):
        sim.run(until=1_000)
    # The failed call must not have corrupted the clock or the heap.
    assert sim.now == 3_000
    assert sim.run() == 4_000


def test_kill_relay_sleeping_process_mid_simulation(sim):
    """Killing a process parked on a heap-absorbed Relay hop grid must
    sweep its scheduled entry eagerly.  The relay re-arms itself toward
    ``final`` on every pop without consulting the process, so lazy
    wake-token discarding alone would let a dead process's relay drag
    the finish time (and event count) out to a moment nothing real
    ever reaches."""
    from repro.sim.kernel import Relay

    woke = []

    def sleeper():
        # Hop every 1000 ps until the far future.
        yield Relay(1_000, 1_000, 1_000_000)
        woke.append(sim.now)

    def killer(victim):
        yield sim.timeout(2_500)
        sim.kill(victim)

    victim = sim.spawn(sleeper(), name="sleeper")
    sim.spawn(killer(victim), name="killer")
    finish = sim.run()

    assert woke == []
    assert not victim.alive
    # The clock stops at the kill, not at the relay's final hop.
    assert finish == 2_500
    assert sim.now == 2_500
    # The swept relay entry is accounted as a cancelled wake.
    assert sim.cancelled_wakes >= 1
    # The victim's completion event fired as if the body had returned.
    assert victim.done.fired


def test_kill_is_idempotent_and_spares_other_processes(sim):
    log = []

    def sleeper():
        yield sim.timeout(50_000)
        log.append("sleeper")

    def worker():
        yield sim.timeout(4_000)
        log.append("worker")

    victim = sim.spawn(sleeper(), name="victim")
    sim.spawn(worker(), name="worker")

    def killer():
        yield sim.timeout(1_000)
        sim.kill(victim)
        sim.kill(victim)  # second kill is a no-op

    sim.spawn(killer(), name="killer")
    assert sim.run() == 4_000
    assert log == ["worker"]


def test_pickled_state_carries_the_sequence_as_an_int(sim):
    def ticker():
        for _ in range(3):
            yield sim.timeout(1_000)

    sim.spawn(ticker())
    sim.run()
    state = sim.__getstate__()
    assert not any(
        isinstance(value, itertools.count) for value in state.values()
    )
    thawed = pickle.loads(pickle.dumps(sim, protocol=5))
    assert thawed.now == sim.now
    assert [next(thawed._sequence) for _ in range(3)] == [
        next(sim._sequence) for _ in range(3)
    ]
