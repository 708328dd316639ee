"""The point scheduler's progress and cancellation contract.

The serving daemon streams per-point progress to subscribers and
cancels abandoned work, so :class:`repro.core.parallel.PointScheduler`
carries a precise contract these tests pin:

* the progress sink fires **exactly once per settled point** -- cache
  hits, simulated points, and the failing point of an aborted sweep
  all included -- with ``done`` strictly increasing by one;
* :meth:`cancel`, or a shared ``cancel`` event, stops the run at the
  next point boundary with :class:`SweepCancelled`, keeping completed
  outcomes.
"""

from __future__ import annotations

import pytest

from repro.core.config import Protocol
from repro.core.parallel import (
    PointScheduler,
    SweepCancelled,
    SweepPoint,
    SweepPointError,
    execute_points,
)

REFS = 300

GOOD = SweepPoint("mp3d", 4, Protocol.SNOOPING, REFS)
BAD = SweepPoint("no-such-benchmark", 4, Protocol.SNOOPING, REFS, seed=41)


def _points(n: int):
    return [
        SweepPoint("mp3d", 4, Protocol.SNOOPING, REFS, seed=seed)
        for seed in range(1, n + 1)
    ]


def _assert_exactly_once(events, points):
    dones = [done for done, _total, _outcome in events]
    assert dones == list(range(dones[0], dones[0] + len(dones)))
    assert all(total == len(points) for _d, total, _o in events)
    seen = [outcome.point for _d, _t, outcome in events]
    assert len(seen) == len(set(id(point) for point in seen))


@pytest.mark.parametrize("jobs", [1, 2])
def test_progress_fires_exactly_once_per_point(temp_store, jobs):
    points = _points(3)
    events = []
    report = execute_points(
        points, jobs=jobs, progress=lambda d, t, o: events.append((d, t, o))
    )
    assert report.points_done == 3
    assert len(events) == 3
    _assert_exactly_once(events, points)
    assert all(not outcome.cache_hit for _d, _t, outcome in events)


def test_cache_hits_emit_progress_events_too(temp_store):
    points = _points(2)
    execute_points(points, jobs=1)  # warm the store
    events = []
    report = execute_points(
        points, jobs=1, progress=lambda d, t, o: events.append((d, t, o))
    )
    assert report.cache_hits == 2
    assert len(events) == 2
    _assert_exactly_once(events, points)
    assert all(outcome.cache_hit for _d, _t, outcome in events)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_point_emits_a_progress_event(temp_store, jobs):
    events = []
    with pytest.raises(SweepPointError):
        execute_points(
            [GOOD, BAD],
            jobs=jobs,
            progress=lambda d, t, o: events.append((d, t, o)),
        )
    _assert_exactly_once(events, [GOOD, BAD])
    failures = [outcome for _d, _t, outcome in events if outcome.failed]
    assert len(failures) == 1
    failed = failures[0]
    assert failed.point == BAD
    assert failed.result is None
    assert failed.error is not None and "no-such-benchmark" in failed.error


@pytest.mark.parametrize("jobs", [1, 2])
def test_cancel_stops_at_the_next_point_boundary(temp_store, jobs):
    points = _points(8)
    holder = {}

    def cancel_after_two(done, _total, _outcome):
        if done >= 2:
            holder["scheduler"].cancel()

    scheduler = PointScheduler(points, jobs=jobs, progress=cancel_after_two)
    holder["scheduler"] = scheduler
    with pytest.raises(SweepCancelled):
        scheduler.run()
    assert scheduler.cancelled
    assert 2 <= len(scheduler.outcomes) < len(points)


def test_a_shared_cancel_event_stops_the_run(temp_store):
    # The daemon hands its per-execution event to the scheduler: a set()
    # made before the scheduler exists still stops it, with no point run.
    import threading

    event = threading.Event()
    event.set()
    events = []
    scheduler = PointScheduler(
        _points(2),
        progress=lambda d, t, o: events.append(d),
        cancel=event,
    )
    with pytest.raises(SweepCancelled):
        scheduler.run()
    assert scheduler.cancelled and events == []


def test_shim_equivalence_with_direct_scheduler(temp_store):
    """``execute_points`` is the scheduler: identical reports."""
    points = _points(2)
    via_shim = execute_points(points, jobs=1)
    temp_store.purge()
    from repro.core.experiment import clear_simulation_cache

    clear_simulation_cache(disk=False)
    via_scheduler = PointScheduler(points, jobs=1).run()
    assert via_shim.results == via_scheduler.results
    assert via_shim.points_done == via_scheduler.points_done
