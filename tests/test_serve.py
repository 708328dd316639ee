"""End-to-end tests for the sweep-as-a-service daemon.

Each test boots a real :class:`repro.serve.ServeDaemon` on an
ephemeral loopback port (in a background thread) and talks to it with
the stdlib :class:`repro.serve.ServeClient` -- the same path the CLI
and the CI smoke job use.  The contracts pinned here:

* a daemon sweep is **bit-identical** to the synchronous
  :func:`repro.core.hybrid.hybrid_sweep` (JSON floats round-trip
  exactly, so equality is exact), and a served check equals the
  synchronous :func:`repro.check.explore` report;
* a resubmitted job of any kind is answered with the finished
  execution's payload and histograms, the same objects, with the
  events a rebuilt answer would have; each distinct spec is
  fingerprinted once, and store invalidation and purge drop the
  answers; repeated jobs retain little memory, and a finished
  execution drops its cancel flag, wake-up event and task;
* a finished check is answered from the store by a restarted daemon,
  a spec that differs only in its bounds is searched afresh, and a
  purge deletes the stored check so it is searched again;
* two identical concurrent submissions coalesce onto one execution --
  one simulation, two subscribers, both get the result;
* cancelling one subscriber of a shared execution leaves it running;
  cancelling the *last* subscriber cancels the execution itself;
* the NDJSON event stream is replayable, ordered and terminated;
* the store endpoints drive ``info``/``cleanup_stale_tmp``/``purge``;
* shutdown drains in-flight executions and the daemon thread exits,
  also with an idle keep-alive connection open;
* connections are persistent: one client thread's requests share one
  connection, the event stream is chunked on HTTP/1.1 and
  close-delimited on HTTP/1.0, and a stream abandoned early does not
  poison the next request.

Controllable executions use a gated runner substituted into the
scheduler's per-instance ``_runners`` table -- no sleeps, no races.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.core.config import Protocol
from repro.core.hybrid import hybrid_sweep
from repro.core.parallel import SweepCancelled
from repro.serve import ServeClient, ServeDaemon, ServeError
from repro.serve.protocol import (
    SpecError,
    check_payload,
    operating_point_row,
    parse_spec,
    spec_fingerprint,
)

REFS = 300
SWEEP_SPEC = {
    "kind": "sweep",
    "benchmark": "mp3d",
    "processors": 4,
    "data_refs": REFS,
}


@pytest.fixture
def daemon(temp_store):
    served = ServeDaemon(port=0, jobs=1).start_in_thread()
    yield served
    served.stop()
    served.join(timeout=30)


@pytest.fixture
def client(daemon):
    return ServeClient(daemon.url, timeout=120.0)


def _gated_runner(payload=None, run_real=None):
    """A runner that blocks until released, honouring cancellation.

    Returns ``(runner, entered, gate)``: ``entered`` is set once the
    runner is live; setting ``gate`` lets it finish (either with the
    canned ``payload`` or by delegating to the real runner).
    """
    entered = threading.Event()
    gate = threading.Event()

    def runner(scheduler, execution):
        entered.set()
        while not gate.wait(timeout=0.02):
            if execution.cancel_requested.is_set():
                raise SweepCancelled("cancelled while gated")
        if execution.cancel_requested.is_set():
            raise SweepCancelled("cancelled while gated")
        if run_real is not None:
            return run_real(scheduler, execution)
        return payload

    return runner, entered, gate


CHECK_SPEC = {"kind": "check", "protocol": "snooping", "nodes": 2}


# ----------------------------------------------------------------------
# E2E: daemon result == synchronous result, bit for bit
# ----------------------------------------------------------------------
def test_daemon_sweep_is_bit_identical_to_sync(client):
    job = client.submit(SWEEP_SPEC)
    assert job["state"] in ("pending", "running")
    assert job["coalesced"] is False
    final = client.wait(job["job"])
    assert final["state"] == "done"
    assert final["simulated"] == 1 and final["cache_hits"] == 0

    payload = client.result(job["job"])
    expected = hybrid_sweep("mp3d", 4, Protocol.SNOOPING, data_refs=REFS)
    assert payload["kind"] == "sweep"
    assert payload["label"] == expected.label
    assert payload["protocol"] == expected.protocol.value
    # Full-precision float fields survive the JSON round-trip exactly,
    # so this is bit-for-bit equality with the sync methodology.
    assert payload["points"] == [
        operating_point_row(point) for point in expected.points
    ]


def test_resubmission_after_completion_hits_the_store(client):
    first = client.wait(client.submit(SWEEP_SPEC)["job"])
    assert first["simulated"] == 1
    second = client.wait(client.submit(SWEEP_SPEC)["job"])
    assert second["state"] == "done"
    assert second["simulated"] == 0 and second["cache_hits"] == 1
    stats = client.stats()
    assert stats["executions_started"] == 2  # store-backed, not coalesced
    assert stats["coalesced"] == 0


@pytest.fixture
def searches(monkeypatch):
    """Record the keyword arguments of every explorer search."""
    import repro.check

    real_explore = repro.check.explore
    calls = []

    def counting_explore(*args, **kwargs):
        calls.append(kwargs)
        return real_explore(*args, **kwargs)

    monkeypatch.setattr(repro.check, "explore", counting_explore)
    return calls


def test_served_check_equals_sync_and_is_cached_by_its_spec(
    searches, temp_store, client
):
    from repro.check.explorer import explore as real_explore

    def served(spec):
        job = client.wait(client.submit(spec)["job"])
        assert job["state"] == "done", job
        return client.result(job["job"])

    payload = served(CHECK_SPEC)
    assert payload == check_payload(real_explore("snooping", nodes=2))
    assert "EXHAUSTIVE" in payload["summary"] and len(searches) == 1

    # A second identical submission after completion is answered from
    # the finished execution, without reading the store.
    hits = temp_store.blob_hits
    assert served(CHECK_SPEC) == payload
    assert temp_store.blob_hits == hits and len(searches) == 1
    assert client.stats()["answers_reused"] == 1

    # The stored blob answers a restarted daemon without a search.
    restarted = ServeDaemon(port=0, jobs=1).start_in_thread()
    try:
        again = ServeClient(restarted.url, timeout=120.0)
        job = again.wait(again.submit(CHECK_SPEC)["job"])
        assert again.result(job["job"]) == payload
    finally:
        restarted.stop()
        restarted.join(timeout=30)
    assert temp_store.blob_hits == hits + 1 and len(searches) == 1

    # The bounds are part of the key: another max_depth is searched.
    bounded = served({**CHECK_SPEC, "max_depth": 1})
    assert len(searches) == 2 and searches[-1]["max_depth"] == 1
    assert bounded == check_payload(
        real_explore("snooping", nodes=2, max_depth=1)
    )
    assert "TRUNCATED" in bounded["summary"]
    assert temp_store.info()["blobs"] == {"check": 2}


def test_purge_deletes_the_stored_check_blobs(
    searches, temp_store, daemon, client
):
    job = client.wait(client.submit(CHECK_SPEC)["job"])
    key = daemon.scheduler.registry.jobs[job["job"]].execution.key
    payload = client.result(job["job"])
    assert temp_store.get_blob("check", key) == payload
    assert len(searches) == 1

    # The blob family goes with the results: the next identical check
    # misses the store and is searched again.
    assert client.store_purge()["purged"] == 1
    assert temp_store.get_blob("check", key) is None
    job = client.wait(client.submit(CHECK_SPEC)["job"])
    assert client.result(job["job"]) == payload
    assert len(searches) == 2
    assert temp_store.get_blob("check", key) == payload


# ----------------------------------------------------------------------
# Request coalescing
# ----------------------------------------------------------------------
def test_identical_concurrent_submissions_share_one_execution(
    daemon, client
):
    real = daemon.scheduler._runners["sweep"]
    runner, entered, gate = _gated_runner(run_real=real)
    daemon.scheduler._runners["sweep"] = runner

    first = client.submit(SWEEP_SPEC)
    assert entered.wait(timeout=30)
    second = client.submit(SWEEP_SPEC)
    assert second["coalesced"] is True
    assert second["execution"] == first["execution"]
    assert second["job"] != first["job"]

    stats = client.stats()
    assert stats["submitted"] == 2
    assert stats["coalesced"] == 1
    assert stats["executions_started"] == 1

    gate.set()
    final_first = client.wait(first["job"])
    final_second = client.wait(second["job"])
    assert final_first["state"] == final_second["state"] == "done"
    # One simulation served both submissions: zero additional work.
    assert final_first["simulated"] == final_second["simulated"] == 1
    assert client.result(first["job"]) == client.result(second["job"])
    assert client.stats()["executions_started"] == 1


def test_different_specs_do_not_coalesce(daemon, client):
    runner, entered, gate = _gated_runner(payload={"kind": "sweep"})
    daemon.scheduler._runners["sweep"] = runner
    first = client.submit(SWEEP_SPEC)
    assert entered.wait(timeout=30)
    other = client.submit({**SWEEP_SPEC, "processors": 8})
    assert other["coalesced"] is False
    assert other["execution"] != first["execution"]
    assert client.stats()["executions_started"] == 2
    gate.set()
    client.wait(first["job"])
    client.wait(other["job"])


def test_bus_and_ring_jobs_on_one_extraction_do_not_coalesce(
    temp_store, daemon, client
):
    # A bus sweep extracts through the same snooping point as a ring
    # sweep but answers with the bus model: sharing one execution would
    # hand the bus job the ring curve.
    bus_spec = {**SWEEP_SPEC, "protocol": "bus"}
    assert spec_fingerprint(parse_spec(bus_spec), temp_store) != (
        spec_fingerprint(parse_spec(SWEEP_SPEC), temp_store)
    )

    real = daemon.scheduler._runners["sweep"]
    runner, entered, gate = _gated_runner(run_real=real)
    daemon.scheduler._runners["sweep"] = runner
    ring = client.submit(SWEEP_SPEC)
    assert entered.wait(timeout=30)
    bus = client.submit(bus_spec)
    assert bus["coalesced"] is False
    assert bus["execution"] != ring["execution"]
    gate.set()
    client.wait(ring["job"])
    client.wait(bus["job"])

    ring_payload = client.result(ring["job"])
    bus_payload = client.result(bus["job"])
    expected = hybrid_sweep("mp3d", 4, Protocol.BUS, data_refs=REFS)
    assert bus_payload["label"] == expected.label == "bus 50 MHz"
    assert bus_payload["protocol"] == "bus"
    assert ring_payload["protocol"] == "snooping"
    assert bus_payload["points"] == [
        operating_point_row(point) for point in expected.points
    ]
    assert bus_payload["points"] != ring_payload["points"]


# ----------------------------------------------------------------------
# Answer reuse
# ----------------------------------------------------------------------
REUSED_SPECS = {
    "sweep": SWEEP_SPEC,
    "grid": {
        **SWEEP_SPEC,
        "kind": "grid",
        "cycles_ns": [2, 5],
        "parameters": {"ring_width_bits": [16, 32]},
    },
    "simulate": {**SWEEP_SPEC, "kind": "simulate", "seed": 7},
    "check": CHECK_SPEC,
}


def _without_timing(events):
    return [
        {
            key: value
            for key, value in event.items()
            if key not in ("seq", "wall_s")
        }
        for event in events
    ]


@pytest.mark.parametrize("kind", sorted(REUSED_SPECS))
def test_repeat_submissions_reuse_the_first_answer(daemon, client, kind):
    from repro.serve.protocol import run_job

    spec = REUSED_SPECS[kind]
    registry = daemon.scheduler.registry
    executions = []
    for _ in range(3):
        job = client.wait(client.submit(spec)["job"])
        assert job["state"] == "done", job
        executions.append(registry.jobs[job["job"]].execution)
    first, second, third = executions
    assert len({execution.id for execution in executions}) == 3
    # The repeats hand out the first execution's objects, unchanged.
    assert second.result is first.result and third.result is first.result
    assert second.telemetry is first.telemetry
    assert third.telemetry is first.telemetry
    assert (first.telemetry is None) == (kind in ("grid", "check"))
    assert client.stats()["answers_reused"] == 2
    expected = json.loads(json.dumps(run_job(parse_spec(spec))))
    assert client.result(third.job_ids[0]) == expected
    assert json.loads(json.dumps(first.result)) == expected
    # Progress, telemetry and terminal events are what a rebuilt
    # answer would have produced.
    second_events = list(client.events(second.job_ids[0]))
    third_events = list(client.events(third.job_ids[0]))
    assert _without_timing(second_events) == _without_timing(third_events)
    if first.telemetry is not None:
        (telemetry,) = [e for e in third_events if e["event"] == "telemetry"]
        assert telemetry["histograms"] == first.telemetry


@pytest.fixture
def fingerprints(monkeypatch):
    """Count every :func:`spec_fingerprint` call, wherever it is made."""
    import repro.serve.protocol
    import repro.serve.scheduler

    calls = []

    def counting(spec, *args, **kwargs):
        calls.append(spec.kind)
        return spec_fingerprint(spec, *args, **kwargs)

    monkeypatch.setattr(repro.serve.scheduler, "spec_fingerprint", counting)
    monkeypatch.setattr(repro.serve.protocol, "spec_fingerprint", counting)
    return calls


def test_fingerprint_runs_once_per_distinct_spec(fingerprints, client):
    # The explicit default protocol is the same canonical spec.
    explicit = {**SWEEP_SPEC, "protocol": "snooping"}
    for spec in (SWEEP_SPEC, SWEEP_SPEC, explicit):
        client.wait(client.submit(spec)["job"])
    assert fingerprints == ["sweep"]
    for _ in range(2):
        client.wait(client.submit(CHECK_SPEC)["job"])
    client.wait(client.submit({**SWEEP_SPEC, "protocol": "bus"})["job"])
    assert fingerprints == ["sweep", "check", "sweep"]
    record = client.job(client.submit(SWEEP_SPEC)["job"])
    assert record["total_points"] == 1


def test_invalidate_and_purge_drop_the_finished_answers(
    temp_store, fingerprints, daemon, client
):
    registry = daemon.scheduler.registry

    def served():
        job = client.wait(client.submit(SWEEP_SPEC)["job"])
        return registry.jobs[job["job"]].execution

    first = served()
    assert served().result is first.result and fingerprints == ["sweep"]

    # A new store generation re-keys the spec: fingerprinted afresh,
    # answered afresh.
    temp_store.invalidate()
    renewed = served()
    assert fingerprints == ["sweep", "sweep"]
    assert renewed.key != first.key
    assert renewed.result is not first.result
    assert renewed.result == first.result

    # A purge keeps the fingerprint but drops the answer.
    assert served().result is renewed.result
    client.store_purge()
    rebuilt = served()
    assert fingerprints == ["sweep", "sweep"]
    assert rebuilt.key == renewed.key
    assert rebuilt.result is not renewed.result
    assert rebuilt.result == renewed.result
    assert client.stats()["answers_reused"] == 2


def test_cached_jobs_retain_little_memory(client):
    # The registry keeps every job for the daemon's life (it is still
    # unbounded); what a repeated job adds to it must stay small, since
    # its payload and histograms are the first execution's.
    import gc
    import tracemalloc

    jobs = 200
    for _ in range(5):  # warm up: fill the store, the memo, the index
        client.wait(client.submit(SWEEP_SPEC)["job"])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(jobs):
            job = client.submit(SWEEP_SPEC)["job"]
            client.wait(job)
            client.result(job)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / jobs < 8 * 1024, f"{retained / jobs:.0f} B per job"


def test_finished_executions_release_their_live_handles(daemon, client):
    # The registry keeps a terminal execution for the daemon's life; its
    # cancel flag, its streamers' wake-up event and its driving task are
    # dropped with the terminal event, whichever way it ended.
    registry = daemon.scheduler.registry

    def finished(job):
        client.wait(job["job"])
        return registry.jobs[job["job"]].execution

    done = finished(client.submit(SWEEP_SPEC))

    def failing(scheduler, execution):
        raise RuntimeError("the extraction exploded")

    daemon.scheduler._runners["sweep"] = failing
    failed = finished(client.submit(SWEEP_SPEC))

    runner, entered, _gate = _gated_runner(payload={"kind": "sweep"})
    daemon.scheduler._runners["sweep"] = runner
    job = client.submit(SWEEP_SPEC)
    assert entered.wait(timeout=30)
    client.cancel(job["job"])
    cancelled = finished(job)

    states = [execution.state.value for execution in (done, failed, cancelled)]
    assert states == ["done", "failed", "cancelled"]
    for execution in (done, failed, cancelled):
        assert execution.cancel_requested is None
        assert execution.update is None
        assert execution.task is None
        assert list(client.events(execution.job_ids[0]))[-1]["event"] in (
            "done",
            "failed",
            "cancelled",
        )


# ----------------------------------------------------------------------
# Cancellation semantics
# ----------------------------------------------------------------------
def test_cancelling_one_subscriber_keeps_the_shared_execution(
    daemon, client
):
    runner, entered, gate = _gated_runner(payload={"kind": "sweep"})
    daemon.scheduler._runners["sweep"] = runner

    first = client.submit(SWEEP_SPEC)
    assert entered.wait(timeout=30)
    second = client.submit(SWEEP_SPEC)
    assert second["coalesced"] is True

    cancelled = client.cancel(first["job"])
    assert cancelled["state"] == "cancelled"
    stats = client.stats()
    assert stats["cancelled_jobs"] == 1
    assert stats["cancelled_executions"] == 0  # still one subscriber

    gate.set()
    final_second = client.wait(second["job"])
    assert final_second["state"] == "done"
    assert client.result(second["job"]) == {"kind": "sweep"}
    # The detached handle stays cancelled and has no result.
    assert client.job(first["job"])["state"] == "cancelled"
    with pytest.raises(ServeError) as excinfo:
        client.result(first["job"])
    assert excinfo.value.status == 409


def test_cancelling_the_last_subscriber_cancels_the_execution(
    daemon, client
):
    runner, entered, _gate = _gated_runner(payload={"kind": "sweep"})
    daemon.scheduler._runners["sweep"] = runner

    job = client.submit(SWEEP_SPEC)
    assert entered.wait(timeout=30)
    client.cancel(job["job"])
    final = client.wait(job["job"])
    assert final["state"] == "cancelled"
    stats = client.stats()
    assert stats["cancelled_jobs"] == 1
    assert stats["cancelled_executions"] == 1
    events = list(client.events(job["job"]))
    assert events[-1]["event"] == "cancelled"


def test_cancel_is_idempotent_and_404s_on_unknown_jobs(daemon, client):
    runner, entered, gate = _gated_runner(payload={"kind": "sweep"})
    daemon.scheduler._runners["sweep"] = runner
    job = client.submit(SWEEP_SPEC)
    assert entered.wait(timeout=30)
    client.cancel(job["job"])
    again = client.cancel(job["job"])  # second cancel: no double count
    assert again["state"] == "cancelled"
    assert client.stats()["cancelled_jobs"] == 1
    with pytest.raises(ServeError) as excinfo:
        client.cancel("j999")
    assert excinfo.value.status == 404
    client.wait(job["job"])


# ----------------------------------------------------------------------
# Event stream
# ----------------------------------------------------------------------
def test_event_stream_is_ordered_replayable_and_terminated(client):
    job = client.submit(SWEEP_SPEC)
    events = list(client.events(job["job"]))
    assert [event["seq"] for event in events] == list(range(len(events)))
    assert events[0] == {"event": "state", "state": "running", "seq": 0}
    kinds = [event["event"] for event in events]
    assert kinds.count("done") == 1 and kinds[-1] == "done"
    points = [event for event in events if event["event"] == "point"]
    assert len(points) == 1
    assert points[0]["done"] == points[0]["total"] == 1
    assert points[0]["benchmark"] == "mp3d"
    assert points[0]["cache_hit"] is False
    telemetry = [e for e in events if e["event"] == "telemetry"]
    assert len(telemetry) == 1
    assert "miss_latency" in telemetry[0]["histograms"]
    done = events[-1]
    assert done["simulated"] == 1 and done["cache_hits"] == 0
    # A late subscriber replays the identical history.
    assert list(client.events(job["job"])) == events


# ----------------------------------------------------------------------
# Validation and error paths
# ----------------------------------------------------------------------
def test_submission_validation_and_conflicts(daemon, client):
    with pytest.raises(ServeError) as excinfo:
        client.submit({"kind": "nope"})
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.submit({"kind": "sweep"})  # benchmark missing
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.submit({**SWEEP_SPEC, "procesors": 64})  # misspelt
    assert excinfo.value.status == 400
    assert "'procesors'" in str(excinfo.value)
    with pytest.raises(ServeError) as excinfo:
        client.job("j42")
    assert excinfo.value.status == 404

    runner, entered, gate = _gated_runner(payload={"kind": "sweep"})
    daemon.scheduler._runners["sweep"] = runner
    job = client.submit(SWEEP_SPEC)
    assert entered.wait(timeout=30)
    with pytest.raises(ServeError) as excinfo:
        client.result(job["job"])  # still running
    assert excinfo.value.status == 409
    gate.set()
    client.wait(job["job"])


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"kind": "sweep", "benchmark": "mp3d", "procesors": 64}, "procesors"),
        ({"kind": "simulate", "benchmark": "mp3d", "sead": 7}, "sead"),
        ({"kind": "check", "node": 4}, "node"),
        ({"kind": "grid", "benchmark": "mp3d", "parameter": {}}, "parameter"),
        ({"kind": "check", "resume": True}, "resume"),
    ],
)
def test_unknown_fields_are_rejected(spec, field):
    # A misspelt field must not silently run the job with its default.
    with pytest.raises(SpecError, match=f"unknown field.*'{field}'"):
        parse_spec(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"nodes": 1}, "nodes must be >= 2"),
        ({"protocol": "hierarchical", "nodes": 3}, "nodes must be even"),
        ({"nodes": 12}, "nodes=12, lines=1: symmetry group of order"),
        ({"nodes": 4, "lines": 6}, "nodes=4, lines=6: symmetry group"),
    ],
)
def test_out_of_range_check_specs_are_rejected(spec, message):
    # Refused while parsing: the 12! group is sized, never built.
    with pytest.raises(SpecError, match=message):
        parse_spec({**CHECK_SPEC, **spec})


def test_out_of_range_check_is_refused_at_submit(client):
    with pytest.raises(ServeError) as excinfo:
        client.submit({**CHECK_SPEC, "nodes": 1})
    assert excinfo.value.status == 400
    assert "nodes" in str(excinfo.value)
    assert client.stats()["submitted"] == 0


@pytest.mark.parametrize(
    "shape",
    [["--cycles", "2", "5"], ["--param", "ring_clock_ps", "2000", "4000"]],
)
def test_submitted_grid_prints_what_repro_grid_prints(daemon, capsys, shape):
    # The grid twin of serve-smoke's sweep diff: the served table (or
    # heatmap) minus the status line is the synchronous verb's stdout.
    from repro.cli import main

    job = ["mp3d", "-p", "4", "-r", str(REFS), *shape]
    assert main(["submit", "grid", *job, "--url", daemon.url]) == 0
    served = capsys.readouterr().out.splitlines(keepends=True)
    assert served[0].startswith("job=") and "state=done" in served[0]
    assert main(["grid", *job]) == 0
    assert "".join(served[1:]) == capsys.readouterr().out


@pytest.mark.parametrize(
    "spec, field, reason",
    [
        ({"processors": 1}, "processors", "need at least 2 processors"),
        (
            {"processors": 3, "protocol": "hierarchical"},
            "processors",
            "3 processors do not divide into 4 clusters",
        ),
        ({"benchmark": "no-such-benchmark"}, "benchmark", "no benchmark"),
    ],
    ids=["one-processor", "hierarchical-three", "unknown-benchmark"],
)
def test_unrunnable_workload_is_refused_at_submit(
    client, spec, field, reason
):
    # Refused with a 400 naming the field, before a job id exists --
    # not a 500 from the fingerprint, nor a job that fails later.
    with pytest.raises(ServeError) as excinfo:
        client.submit({**SWEEP_SPEC, **spec})
    assert excinfo.value.status == 400
    assert excinfo.value.message.startswith(f"{field}: ")
    assert reason in excinfo.value.message
    assert client.stats()["submitted"] == 0


def test_failed_execution_reports_the_error(daemon, client):
    def failing(scheduler, execution):
        raise RuntimeError("the extraction exploded")

    daemon.scheduler._runners["sweep"] = failing
    job = client.submit(SWEEP_SPEC)
    events = list(client.events(job["job"]))
    final = client.job(job["job"])
    assert final["state"] == "failed"
    assert final["error"] == "RuntimeError: the extraction exploded"
    # The runner thread that raised is long gone by the time a client
    # asks what happened; the full traceback must round-trip through
    # the failed NDJSON event and the job record, not just the
    # one-line summary.
    (failed,) = [e for e in events if e.get("event") == "failed"]
    assert failed["error"] == final["error"]
    assert "Traceback (most recent call last)" in failed["traceback"]
    assert "the extraction exploded" in failed["traceback"]
    assert final["traceback"] == failed["traceback"]
    with pytest.raises(ServeError) as excinfo:
        client.result(job["job"])
    assert excinfo.value.status == 409
    assert client.stats()["failed"] == 1


def test_route_bug_returns_500_with_traceback(daemon):
    def boom():
        raise RuntimeError("stats exploded")

    daemon.scheduler.registry.stats = boom
    connection = http.client.HTTPConnection(
        daemon.host, daemon.port, timeout=30
    )
    try:
        connection.request("GET", "/stats")
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 500
    assert payload["error"] == "RuntimeError: stats exploded"
    assert "Traceback (most recent call last)" in payload["traceback"]
    assert "stats exploded" in payload["traceback"]


# ----------------------------------------------------------------------
# Store endpoints
# ----------------------------------------------------------------------
def test_store_endpoints_drive_the_live_store(temp_store, client):
    client.wait(client.submit(SWEEP_SPEC)["job"])
    info = client.store_info()
    assert info["directory"] == str(temp_store.directory)
    assert info["entries"] == 1
    assert info["counters"]["lost_writes"] == 0

    temp_store.results_dir.joinpath(".tmp-stranded.json").write_text("{}")
    assert client.store_info()["tmp_files"] == 1
    assert client.store_cleanup(min_age_s=0.0)["removed"] == 1
    assert client.store_info()["tmp_files"] == 0

    assert client.store_purge()["purged"] == 1
    assert client.store_info()["entries"] == 0


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
def test_shutdown_drains_inflight_executions(daemon, client):
    runner, entered, _gate = _gated_runner(payload={"kind": "sweep"})
    daemon.scheduler._runners["sweep"] = runner
    job = client.submit(SWEEP_SPEC)
    assert entered.wait(timeout=30)

    assert client.shutdown() == {"ok": True, "stopping": True}
    daemon.join(timeout=30)
    assert not daemon._thread.is_alive()
    # The in-flight execution was cancelled during the drain.
    execution = daemon.scheduler.registry.jobs[job["job"]].execution
    assert execution.state.value == "cancelled"
    with pytest.raises((ConnectionError, OSError)):
        client.health()


def test_shutdown_closes_idle_keep_alive_connections(daemon, client):
    # Since Python 3.12 the server's wait_closed() waits for every open
    # connection, so the daemon must close the idle ones itself before
    # it drains; otherwise this shutdown never finishes.
    idle = http.client.HTTPConnection(daemon.host, daemon.port, timeout=30)
    idle.request("GET", "/healthz")
    assert json.loads(idle.getresponse().read()) == {"ok": True}

    closing_at_drain = []
    drain = daemon.scheduler.shutdown

    async def observed_drain():
        closing_at_drain.extend(w.is_closing() for w in daemon._idle)
        await drain()

    daemon.scheduler.shutdown = observed_drain
    assert client.shutdown() == {"ok": True, "stopping": True}
    daemon.join(timeout=10)
    assert not daemon._thread.is_alive()
    assert closing_at_drain == [True]
    assert idle.sock.recv(1) == b""  # the daemon closed it
    idle.close()


# ----------------------------------------------------------------------
# Persistent connections
# ----------------------------------------------------------------------
def _exchange(daemon, request: bytes):
    """Send one raw request and read until the daemon closes the
    connection; returns the response's head lines and its body."""
    with socket.create_connection((daemon.host, daemon.port), timeout=30) as sock:
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head.decode("latin-1").split("\r\n"), body


def _dechunk(data: bytes) -> bytes:
    """The payload of a complete chunked body (zero-length chunk last)."""
    payload = b""
    while True:
        size, _, data = data.partition(b"\r\n")
        size = int(size, 16)
        if not size:
            assert data == b"\r\n"
            return payload
        payload += data[:size]
        assert data[size : size + 2] == b"\r\n"
        data = data[size + 2 :]


def test_a_cached_job_goes_over_one_connection(daemon, client):
    client.wait(client.submit(SWEEP_SPEC)["job"])  # fill the store
    worker = ServeClient(daemon.url, timeout=120.0)
    before = client.stats()
    job = worker.submit(SWEEP_SPEC)["job"]
    record = worker.wait(job)  # the event stream, then the job record
    assert worker.result(job)["kind"] == "sweep"
    after = client.stats()
    assert record["simulated"] == 0 and record["cache_hits"] == 1
    assert after["connections_accepted"] == before["connections_accepted"] + 1
    # Submit, events, job and result, plus the second stats request.
    assert after["requests_served"] == before["requests_served"] + 5


def test_connection_close_request_gets_a_closing_response(daemon):
    head, body = _exchange(
        daemon,
        b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    )
    assert head[0] == "HTTP/1.1 200 OK"
    assert "Connection: close" in head
    assert json.loads(body) == {"ok": True}


def test_http10_event_stream_is_delimited_by_connection_close(
    daemon, client
):
    job = client.submit(SWEEP_SPEC)["job"]
    events = list(client.events(job))
    head, body = _exchange(
        daemon, f"GET /jobs/{job}/events HTTP/1.0\r\n\r\n".encode()
    )
    assert head[0] == "HTTP/1.1 200 OK" and "Connection: close" in head
    assert not [
        line
        for line in head
        if line.lower().startswith(("transfer-encoding", "content-length"))
    ]
    assert [json.loads(line) for line in body.splitlines()] == events
    # HTTP/1.1 frames the same lines in chunks, ended by the empty one.
    head, chunked = _exchange(
        daemon,
        f"GET /jobs/{job}/events HTTP/1.1\r\nHost: test\r\n"
        "Connection: close\r\n\r\n".encode(),
    )
    assert "Transfer-Encoding: chunked" in head
    assert _dechunk(chunked) == body


def test_abandoned_event_stream_does_not_poison_the_next_request(
    daemon, client
):
    runner, entered, gate = _gated_runner(payload={"kind": "sweep"})
    daemon.scheduler._runners["sweep"] = runner
    job = client.submit(SWEEP_SPEC)["job"]
    assert entered.wait(timeout=30)
    stream = client.events(job)
    assert next(stream)["event"] == "state"
    # The open stream holds its own connection; this goes on another.
    assert client.job(job)["state"] == "running"
    stream.close()  # stopped early: its connection is closed, not reused
    assert client.health() == {"ok": True}
    gate.set()
    assert client.wait(job)["state"] == "done"
    assert client.result(job) == {"kind": "sweep"}


def test_request_on_a_connection_the_daemon_closed_is_resent(
    daemon, client
):
    assert client.health() == {"ok": True}
    accepted = client.stats()["connections_accepted"]
    closed = threading.Event()

    def close_idle():
        for writer in list(daemon._idle):
            writer.close()
        closed.set()

    daemon._loop.call_soon_threadsafe(close_idle)
    assert closed.wait(timeout=10)
    # The reused connection fails before any response byte: the request
    # is sent once more, on a new connection.
    assert client.health() == {"ok": True}
    assert client.stats()["connections_accepted"] == accepted + 1
