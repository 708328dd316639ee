"""Tests for trace file I/O."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Protocol
from repro.core.experiment import run_simulation
from repro.memory.address import AddressMap
from repro.traces.benchmarks import benchmark_spec
from repro.traces.io import (
    CONTINUATION,
    TraceSetInfo,
    read_trace,
    read_trace_set,
    write_trace,
    write_trace_set,
)
from repro.traces.records import TraceRecord
from repro.traces.synthetic import SyntheticTraceGenerator

RECORDS = [
    TraceRecord(0, 0x1000, False),
    TraceRecord(3, 0x2004, True),
    TraceRecord(1, (1 << 40) + 16, False),
]


def test_roundtrip(tmp_path):
    path = tmp_path / "cpu0.trace"
    count = write_trace(path, RECORDS)
    assert count == len(RECORDS)
    assert list(read_trace(path)) == RECORDS


def test_empty_trace_roundtrip(tmp_path):
    path = tmp_path / "empty.trace"
    assert write_trace(path, []) == 0
    assert list(read_trace(path)) == []


def test_large_instruction_count_splits_and_rejoins(tmp_path):
    path = tmp_path / "big.trace"
    records = [TraceRecord(200_000, 0x40, True)]
    write_trace(path, records)
    assert list(read_trace(path)) == records


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.trace"
    path.write_bytes(b"NOPE!!" + b"\x00" * 32)
    with pytest.raises(ValueError):
        list(read_trace(path))


def test_truncated_record_rejected(tmp_path):
    path = tmp_path / "trunc.trace"
    write_trace(path, RECORDS)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(ValueError):
        list(read_trace(path))


def test_sentinel_address_rejected(tmp_path):
    path = tmp_path / "bad.trace"
    with pytest.raises(ValueError):
        write_trace(path, [TraceRecord(0, CONTINUATION, False)])


def test_trace_set_roundtrip(tmp_path):
    spec = benchmark_spec("mp3d", 8)
    amap = AddressMap(8, 16, seed=3)
    generator = SyntheticTraceGenerator(spec, amap, seed=3)
    info = TraceSetInfo("mp3d", 8, 300, seed=3)
    write_trace_set(
        tmp_path / "set",
        (generator.stream(node, 300) for node in range(8)),
        info,
    )
    loaded_info, streams = read_trace_set(tmp_path / "set")
    assert loaded_info.benchmark == "mp3d"
    assert loaded_info.processors == 8
    for node, stream in enumerate(streams):
        assert list(stream) == list(generator.stream(node, 300))


def test_trace_set_processor_mismatch(tmp_path):
    info = TraceSetInfo("mp3d", 4, 10, seed=1)
    with pytest.raises(ValueError):
        write_trace_set(tmp_path / "set", [iter(RECORDS)], info)


def test_bad_manifest_rejected(tmp_path):
    root = tmp_path / "set"
    root.mkdir()
    (root / "manifest.json").write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        read_trace_set(root)


def test_simulation_from_trace_files_matches_generated(tmp_path):
    """Driving the simulator from persisted traces reproduces the
    generated-trace run exactly (determinism across the I/O layer)."""
    spec = benchmark_spec("mp3d", 4)
    fresh = run_simulation(spec, data_refs=500)

    amap_seed = fresh.config.seed
    amap = AddressMap(4, 16, seed=amap_seed)
    generator = SyntheticTraceGenerator(spec, amap, seed=amap_seed)
    info = TraceSetInfo("mp3d", 4, 500, seed=amap_seed)
    write_trace_set(
        tmp_path / "set",
        (generator.stream(node, 500) for node in range(4)),
        info,
    )
    _, streams = read_trace_set(tmp_path / "set")
    replayed = run_simulation(spec, traces=streams)
    assert replayed.elapsed_ps == fresh.elapsed_ps
    assert replayed.processor_utilization == fresh.processor_utilization
    assert replayed.stats.probes_sent == fresh.stats.probes_sent


def test_run_simulation_rejects_wrong_stream_count():
    spec = benchmark_spec("mp3d", 4)
    with pytest.raises(ValueError):
        run_simulation(spec, traces=[iter(RECORDS)])


@given(
    st.lists(
        st.tuples(
            st.integers(0, 300_000),
            st.integers(0, (1 << 63)),
            st.booleans(),
        ),
        max_size=60,
    )
)
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(tmp_path_factory, raw):
    records = [TraceRecord(*fields) for fields in raw]
    path = tmp_path_factory.mktemp("traces") / "t.trace"
    write_trace(path, records)
    assert list(read_trace(path)) == records


def test_caller_streams_are_cut_to_warmup_plus_data_refs():
    spec = benchmark_spec("mp3d", 4)
    amap = AddressMap(4, 16)
    generator = SyntheticTraceGenerator(spec, amap)
    result = run_simulation(
        spec,
        traces=[generator.stream(node, 500) for node in range(4)],
        data_refs=200,
    )
    assert result.trace.data_refs == 4 * 200
    warmed = run_simulation(
        spec,
        traces=[generator.stream(node, 500) for node in range(4)],
        data_refs=200,
        warmup_refs=100,
    )
    assert warmed.trace.data_refs == 4 * 200
