"""Failure handling in the parallel sweep executor.

A long sweep that dies should say *which point* killed it: without
attribution the failing (benchmark, protocol, processors, seed) tuple
is lost, and with a process pool the naive path also leaves queued
futures running after the caller has given up.  These tests pin the
contract of :class:`repro.core.parallel.SweepPointError`:

* the error names the failing point's index, benchmark, protocol and
  resolved seed, with the worker exception as ``__cause__``;
* both the serial and the pool path raise it;
* a failure cleans up stale ``.tmp-*.json`` droppings in the store.
"""

from __future__ import annotations

import pytest

from repro.core.config import Protocol
from repro.core.parallel import (
    SweepPoint,
    SweepPointError,
    execute_points,
)

REFS = 300

GOOD = SweepPoint("mp3d", 4, Protocol.SNOOPING, REFS)
#: The trace generator raises KeyError for an unknown benchmark, which
#: is a convenient stand-in for any worker-side failure.
BAD = SweepPoint("no-such-benchmark", 4, Protocol.SNOOPING, REFS, seed=41)


def test_serial_failure_names_the_point(temp_store):
    with pytest.raises(SweepPointError) as excinfo:
        execute_points([GOOD, BAD], jobs=1)
    error = excinfo.value
    assert error.index == 1
    assert error.point is BAD
    assert error.__cause__ is not None
    message = str(error)
    assert "no-such-benchmark" in message
    assert "snooping" in message
    assert "seed=41" in message


def test_parallel_failure_names_the_point(temp_store):
    with pytest.raises(SweepPointError) as excinfo:
        execute_points([BAD, GOOD], jobs=2)
    error = excinfo.value
    assert error.index == 0
    assert error.point == BAD
    assert error.__cause__ is not None
    assert "no-such-benchmark" in str(error)
    assert "seed=41" in str(error)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_outcome_records_wall_and_worker(temp_store, jobs):
    """A failed point settles with the wall time it actually spent and
    the worker that ran it -- not the fabricated ``0.0`` / ``0`` the
    executor used to report when the failure crossed the pool
    boundary."""
    settled = []

    def progress(done, total, outcome):
        settled.append(outcome)

    with pytest.raises(SweepPointError) as excinfo:
        execute_points([BAD], jobs=jobs, progress=progress)
    (outcome,) = settled
    assert outcome.failed and outcome.result is None
    assert outcome.wall_s > 0.0
    assert outcome.worker == 0  # the only worker observed so far
    assert "no-such-benchmark" in outcome.error
    # The cause chain surfaces the original worker exception, not the
    # internal metadata wrapper it travelled in.
    from repro.core.parallel import _PointFailure

    cause = excinfo.value.__cause__
    assert cause is not None
    assert not isinstance(cause, _PointFailure)
    assert f"{type(cause).__name__}: {cause}" == outcome.error


def test_parallel_failure_cancels_outstanding_points(temp_store):
    # Many queued points behind the failing one: the executor must not
    # drain them all before surfacing the error.  With jobs=2 only a
    # couple can be in flight when BAD fails, so a bounded number of
    # results may land in the store -- but nowhere near all of them.
    points = [BAD] + [
        SweepPoint("mp3d", 4, Protocol.SNOOPING, REFS, seed=s)
        for s in range(20)
    ]
    with pytest.raises(SweepPointError):
        execute_points(points, jobs=2)
    assert temp_store.entry_count() < len(points) - 2


def test_failure_sweeps_stale_tmp_files(temp_store):
    temp_store.results_dir.mkdir(parents=True, exist_ok=True)
    stale = temp_store.results_dir / ".tmp-deadbeef.json"
    stale.write_text("{}")
    with pytest.raises(SweepPointError):
        execute_points([BAD], jobs=1)
    assert not stale.exists()


def test_cleanup_stale_tmp_spares_real_entries(temp_store):
    execute_points([GOOD], jobs=1)
    assert temp_store.entry_count() == 1
    temp_store.results_dir.joinpath(".tmp-1.json").write_text("{}")
    temp_store.results_dir.joinpath(".tmp-2.json").write_text("{}")
    assert temp_store.cleanup_stale_tmp() == 2
    assert temp_store.entry_count() == 1
    assert temp_store.cleanup_stale_tmp() == 0


def test_store_open_sweeps_aged_tmp_files(tmp_path):
    """Opening a store GCs orphans older than the age guard, but never
    touches young temp files that may belong to a live writer."""
    import os

    from repro.core.store import STALE_TMP_AGE_SECONDS, ResultStore

    results = tmp_path / "results"
    results.mkdir(parents=True)
    old = results / ".tmp-old.json"
    young = results / ".tmp-young.json"
    old.write_text("{}")
    young.write_text("{}")
    ancient = old.stat().st_mtime - (STALE_TMP_AGE_SECONDS + 60)
    os.utime(old, (ancient, ancient))

    ResultStore(tmp_path)
    assert not old.exists()
    assert young.exists()

    # A disabled store is inert: it must not mutate the directory.
    (results / ".tmp-old2.json").write_text("{}")
    os.utime(results / ".tmp-old2.json", (ancient, ancient))
    ResultStore(tmp_path, enabled=False)
    assert (results / ".tmp-old2.json").exists()


def test_store_cleanup_cli(tmp_path, capsys):
    import os

    from repro.cli import main

    results = tmp_path / "results"
    results.mkdir(parents=True)
    old = results / ".tmp-a.json"
    young = results / ".tmp-b.json"
    old.write_text("{}")
    young.write_text("{}")
    past = old.stat().st_mtime - 7200
    os.utime(old, (past, past))

    code = main(
        ["store", "cleanup", "--cache-dir", str(tmp_path), "--min-age", "3600"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "removed 1 stale temp file(s)" in out
    assert not old.exists() and young.exists()

    code = main(["store", "cleanup", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "removed 1 stale temp file(s)" in out
    assert not young.exists()

    code = main(["store", "info", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "entries: 0" in out


# ----------------------------------------------------------------------
# The generic task pool behind the checker (map_tasks / TaskError)
# ----------------------------------------------------------------------
def _double(task):
    return task * 2


def _fail_on_three(task):
    if task == 3:
        raise ValueError("three is right out")
    return task


def test_map_tasks_preserves_order_serial_and_parallel():
    from repro.core.parallel import map_tasks

    tasks = list(range(7))
    assert map_tasks(_double, tasks, jobs=1) == [t * 2 for t in tasks]
    assert map_tasks(_double, tasks, jobs=3) == [t * 2 for t in tasks]
    assert map_tasks(_double, [], jobs=3) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_tasks_wraps_failures_with_the_task(jobs):
    from repro.core.parallel import TaskError, map_tasks

    with pytest.raises(TaskError) as excinfo:
        map_tasks(_fail_on_three, [1, 2, 3, 4], jobs=jobs)
    error = excinfo.value
    assert error.index == 2
    assert error.task == 3
    assert error.__cause__ is not None
    assert "three is right out" in str(error.__cause__)


# ----------------------------------------------------------------------
# Blob storage (explorer checkpoints ride on this)
# ----------------------------------------------------------------------
def test_blob_roundtrip_counts_and_persists(tmp_path):
    from repro.core.store import ResultStore

    store = ResultStore(tmp_path)
    assert store.get_blob("explore", "k" * 64) is None
    assert store.blob_misses == 1
    payload = {"visited": {"a": 1}, "frontier": [[[0, 0, "w"]]]}
    store.put_blob("explore", "k" * 64, payload)
    assert store.blob_stores == 1
    assert store.get_blob("explore", "k" * 64) == payload
    assert store.blob_hits == 1
    # A second store handle sees the same bytes (it really persisted).
    assert ResultStore(tmp_path).get_blob("explore", "k" * 64) == payload


def test_blob_api_is_inert_when_disabled(tmp_path):
    from repro.core.store import ResultStore

    store = ResultStore(tmp_path, enabled=False)
    store.put_blob("explore", "key", {"x": 1})
    assert store.get_blob("explore", "key") is None
    assert store.blob_stores == 0


def test_blob_corruption_reads_as_miss(tmp_path):
    from repro.core.store import ResultStore

    store = ResultStore(tmp_path)
    store.put_blob("explore", "abc", {"x": 1})
    (tmp_path / "explore" / "abc.json").write_text("{nope")
    assert store.get_blob("explore", "abc") is None


def test_blob_kind_validation(tmp_path):
    from repro.core.store import ResultStore

    store = ResultStore(tmp_path)
    for bad in ("", "a/b", ".hidden"):
        with pytest.raises(ValueError):
            store.blob_dir(bad)


def test_cleanup_sweeps_blob_directories_too(tmp_path):
    from repro.core.store import ResultStore

    store = ResultStore(tmp_path)
    blobs = store.blob_dir("explore")
    blobs.mkdir(parents=True, exist_ok=True)
    stray = blobs / ".tmp-dead.json"
    stray.write_text("{}")
    removed = store.cleanup_stale_tmp(min_age_seconds=0.0)
    assert removed >= 1 and not stray.exists()
