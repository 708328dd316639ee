"""Telemetry layer: histograms, tracing, and the zero-cost contract.

Three properties matter:

* recording changes nothing -- a run with a tracer attached produces a
  bit-identical ``SimulationResult`` to one without (the hooks observe,
  never schedule);
* the Chrome export is well-formed -- parses as JSON, timestamps are
  monotonically non-decreasing per track, and events from several
  distinct components are present;
* no hot-path module imports ``repro.obs`` at module level -- the
  telemetry package stays strictly optional for the simulation core.
"""

from __future__ import annotations

import ast
import json
import pathlib

import pytest

import repro
from repro.core.config import Protocol, RingConfig, SystemConfig
from repro.core.experiment import run_simulation
from repro.core.store import result_to_jsonable
from repro.memory.cache import AccessOutcome
from repro.obs import Histogram, Histograms, TraceEvent, Tracer
from tests.conftest import simulation_modules

REFS = 800


# ----------------------------------------------------------------------
# Histogram unit behaviour
# ----------------------------------------------------------------------
def test_exact_histogram_counts_each_value():
    histogram = Histogram("exact")
    for value in (3, 3, 5, 0):
        histogram.record(value)
    assert histogram.as_counts() == {3: 2, 5: 1, 0: 1}
    assert histogram.count == 4
    assert histogram.total == 11
    assert (histogram.min, histogram.max) == (0, 5)
    assert histogram.mean == pytest.approx(2.75)


def test_log2_histogram_buckets_by_power_of_two():
    histogram = Histogram("log2")
    for value in (0, 1, 2, 3, 4, 7, 8, 1023):
        histogram.record(value)
    assert histogram.as_counts() == {0: 1, 1: 1, 2: 2, 4: 2, 8: 1, 512: 1}
    # Summary statistics stay exact despite the coarse buckets.
    assert histogram.total == 1048
    assert histogram.max == 1023


def test_histogram_percentile_is_bucket_lower_bound():
    histogram = Histogram("exact")
    for value in range(1, 11):  # 1..10, one each
        histogram.record(value)
    assert histogram.percentile(0.5) == 5
    assert histogram.percentile(0.9) == 9
    assert histogram.percentile(1.0) == 10
    assert Histogram("exact").percentile(0.5) == 0  # empty


def test_histogram_rejects_bad_input():
    with pytest.raises(ValueError):
        Histogram("linear")
    with pytest.raises(ValueError):
        Histogram("exact").record(-1)
    with pytest.raises(ValueError):
        Histogram("exact").percentile(1.5)
    exact, log2 = Histogram("exact"), Histogram("log2")
    with pytest.raises(ValueError):
        exact.merge(log2)


def test_histogram_merge_and_roundtrip():
    first, second = Histogram("log2"), Histogram("log2")
    for value in (1, 5, 9):
        first.record(value)
    for value in (5, 100):
        second.record(value)
    first.merge(second)
    assert first.count == 5
    assert first.total == 120
    payload = json.loads(json.dumps(first.to_jsonable()))
    assert Histogram.from_jsonable(payload) == first


def test_histograms_container_roundtrips_and_merges():
    histograms = Histograms()
    histograms.record_slot_grant("probe-even", 30, 4)
    histograms.record_slot_grant("block", 15, 0)
    histograms.record_miss("remote-clean", 250_000)
    histograms.record_upgrade(96_000)
    histograms.record_queue_depth("mem0", 2)

    payload = json.loads(json.dumps(histograms.to_jsonable()))
    rebuilt = Histograms.from_jsonable(payload)
    assert rebuilt == histograms
    assert rebuilt.to_jsonable() == histograms.to_jsonable()

    other = Histograms()
    other.record_slot_grant("probe-even", 30, 8)
    other.record_miss("private", 130_000)
    histograms.merge(other)
    assert histograms.slot_occupancy["probe-even"].count == 2
    assert histograms.miss_latency["private"].count == 1
    assert "private" in histograms.render()


# ----------------------------------------------------------------------
# Tracer unit behaviour
# ----------------------------------------------------------------------
def test_tracer_ring_buffer_drops_oldest():
    tracer = Tracer(capacity=3)
    for index in range(5):
        tracer.instant(index * 100, "test", f"ev{index}", "track")
    assert tracer.emitted == 5
    assert tracer.dropped == 2
    assert [event.name for event in tracer.events()] == ["ev2", "ev3", "ev4"]


def test_tracer_jsonl_lines_parse(tmp_path):
    tracer = Tracer()
    tracer.instant(1_000, "kernel", "process.spawn", "kernel", process="p")
    tracer.complete(2_000, 500, "ring.scheduler", "slot.grant", "slot:block")
    path = tmp_path / "trace.jsonl"
    assert tracer.write_jsonl(path) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["name"] == "process.spawn"
    assert lines[1] == {
        "ts_ps": 2_000,
        "dur_ps": 500,
        "ph": "X",
        "cat": "ring.scheduler",
        "name": "slot.grant",
        "track": "slot:block",
    }


def test_trace_event_is_immutable():
    event = TraceEvent(0, 0, "i", "test", "name", "track")
    with pytest.raises(AttributeError):
        event.ts_ps = 5


# ----------------------------------------------------------------------
# Recording changes nothing
# ----------------------------------------------------------------------
def test_traced_run_is_bit_identical_to_untraced():
    plain = run_simulation("mp3d", num_processors=4, data_refs=REFS)
    tracer = Tracer()
    traced = run_simulation(
        "mp3d", num_processors=4, data_refs=REFS, tracer=tracer
    )
    assert tracer.emitted > 0
    assert result_to_jsonable(traced) == result_to_jsonable(plain)
    # Telemetry histograms are part of that payload and populated.
    assert plain.telemetry is not None
    assert plain.telemetry == traced.telemetry
    assert plain.telemetry.miss_latency


def test_traced_hierarchical_run_emits_miss_events():
    tracer = Tracer()
    config = SystemConfig(
        num_processors=8,
        protocol=Protocol.HIERARCHICAL,
        ring=RingConfig(clusters=2),
    )
    run_simulation("mp3d", config, data_refs=REFS, tracer=tracer)
    misses = [
        event
        for event in tracer.events()
        if event.name == "miss" and event.category == "ring.hierarchical"
    ]
    assert misses
    assert {event.args["outcome"] for event in misses} <= {
        outcome.name for outcome in AccessOutcome
    }


def test_traced_hierarchical_run_emits_ring_messages():
    tracer = Tracer()
    config = SystemConfig(
        num_processors=8,
        protocol=Protocol.HIERARCHICAL,
        ring=RingConfig(clusters=2),
    )
    run_simulation("mp3d", config, data_refs=REFS, tracer=tracer)
    messages = [
        event
        for event in tracer.events()
        if event.category == "ring.hierarchical"
        and event.name.startswith("msg.")
    ]
    names = {event.name for event in messages}
    assert names == {"msg.probe.broadcast", "msg.block"}
    # Processing nodes are 0..7; the two IRIs are named 8 and 9.
    ends = {event.args[end] for event in messages for end in ("src", "dst")}
    assert ends <= set(range(10)) and {8, 9} & ends
    assert all(event.dur_ps > 0 for event in messages)


# ----------------------------------------------------------------------
# Chrome export of a real run
# ----------------------------------------------------------------------
def test_chrome_trace_roundtrips_and_orders_timestamps(tmp_path):
    tracer = Tracer()
    run_simulation("mp3d", num_processors=4, data_refs=REFS, tracer=tracer)
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    document = json.loads(path.read_text())

    events = document["traceEvents"]
    body = [event for event in events if event["ph"] != "M"]
    assert body, "trace must contain non-metadata events"

    # Per-track timestamps never go backwards.
    last_ts = {}
    for event in body:
        key = (event["pid"], event["tid"])
        assert event["ts"] >= last_ts.get(key, 0.0)
        last_ts[key] = event["ts"]

    # Events from at least three distinct instrumented components,
    # including the slot scheduler, ring messages and misses.
    categories = {event["cat"] for event in body}
    assert len(categories) >= 3
    names = {event["name"] for event in body}
    assert "slot.grant" in names
    assert any(name.startswith("msg.") for name in names)
    assert "miss" in names

    # Every tid used by an event has a thread_name metadata record.
    named_tids = {
        event["tid"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    assert {event["tid"] for event in body} <= named_tids


# ----------------------------------------------------------------------
# Hot-path modules never import an observer package at module level
# (repro.obs = tracing/histograms, repro.check = invariant monitor);
# both attach through duck-typed kernel attributes instead.  numpy is
# in the same list: the simulation kernel must stay importable and
# fast without it (only repro.models.grid may use it, lazily).
# ----------------------------------------------------------------------
OBSERVER_PACKAGES = ("repro.obs", "repro.check", "numpy")

HOT_PATH_MODULES = simulation_modules(
    "proc/processor.py",
    "memory/bank.py",
    "memory/cache.py",
    "core/metrics.py",
)


@pytest.mark.parametrize("relative", HOT_PATH_MODULES)
@pytest.mark.parametrize("package", OBSERVER_PACKAGES)
def test_hot_path_modules_do_not_import_observers(relative, package):
    root = pathlib.Path(repro.__file__).parent
    tree = ast.parse((root / relative).read_text())
    for node in tree.body:  # module level only: inline imports are fine
        if isinstance(node, ast.Import):
            assert not any(
                alias.name.startswith(package) for alias in node.names
            ), f"{relative} imports {package} at module level"
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith(
                package
            ), f"{relative} imports {package} at module level"
