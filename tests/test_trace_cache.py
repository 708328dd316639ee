"""The process-wide cache of materialised synthetic trace sets."""

import sys
import threading
from array import array

import pytest

from repro.core import experiment
from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import (
    cache_counters,
    clear_simulation_cache,
    run_simulation,
)
from repro.memory.address import AddressMap
from repro.traces.benchmarks import benchmark_spec


def _built(before):
    after = cache_counters()
    return (
        after["trace_sets_built"] - before["trace_sets_built"],
        after["trace_refs_generated"] - before["trace_refs_generated"],
    )


def test_protocols_on_one_workload_share_one_generation():
    def run(protocol):
        run_simulation(
            "mp3d", num_processors=4, protocol=protocol, data_refs=300
        )

    clear_simulation_cache(disk=False)
    before = cache_counters()
    run(Protocol.SNOOPING)
    run(Protocol.DIRECTORY)
    assert _built(before) == (1, 4 * 300)

    clear_simulation_cache(disk=False)
    before = cache_counters()
    run(Protocol.SNOOPING)
    assert _built(before) == (1, 4 * 300)


def test_seed_and_length_are_part_of_the_key():
    clear_simulation_cache(disk=False)
    before = cache_counters()
    for seed, refs in ((5, 200), (6, 200), (5, 201), (5, 200)):
        config = SystemConfig(num_processors=4, seed=seed)
        run_simulation("mp3d", config=config, data_refs=refs)
    assert _built(before) == (3, 4 * (200 + 200 + 201))


def test_cache_evicts_least_recently_used_sets_within_the_cap(monkeypatch):
    # mp3d at 4 processors: 4 * refs * 10 bytes per set.
    monkeypatch.setattr(experiment, "TRACE_CACHE_BYTES", 2 * 4 * 100 * 10)
    spec = benchmark_spec("mp3d", 4)
    amap = AddressMap(4, 16)
    cache = experiment._TraceSetCache()

    def fetch(seed, refs=100):
        before = cache_counters()
        columns = cache.columns(spec, amap, seed, refs)
        assert [len(column) for column in columns[0]] == [refs] * 3
        assert cache.held_bytes <= experiment.TRACE_CACHE_BYTES
        return _built(before)[0]

    assert [fetch(1), fetch(2), fetch(1)] == [1, 1, 0]
    assert cache.held_bytes == 2 * 4000
    # Seed 2 is now the least recently used set.
    assert [fetch(3), fetch(1), fetch(2)] == [1, 0, 1]
    # Seed 1 is now the least recently used set.
    assert [fetch(3), fetch(2), fetch(1)] == [1, 0, 1]

    # Larger than the cap: generated and used, but not held.
    assert [fetch(4, refs=300), fetch(4, refs=300)] == [1, 1]
    assert cache.held_bytes == 0


def test_concurrent_fetches_keep_the_byte_count_exact(monkeypatch):
    # The daemon runs jobs on several threads: a lost update to the
    # byte count would let the cache outgrow its cap unnoticed.
    monkeypatch.setattr(experiment, "TRACE_CACHE_BYTES", 3 * 4 * 50 * 10)
    spec = benchmark_spec("mp3d", 4)
    amap = AddressMap(4, 16)
    cache = experiment._TraceSetCache()
    errors = []

    def worker(offset):
        try:
            for step in range(40):
                columns = cache.columns(spec, amap, (offset + step) % 5, 50)
                assert len(columns) == 4
        except Exception as error:  # reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    held = [size for _, size in cache._sets.values()]
    assert cache.held_bytes == sum(held) <= experiment.TRACE_CACHE_BYTES
    assert len(held) == 3


def test_values_outside_a_column_raise():
    # instr_before is held in a one-byte column: a spec that could
    # overflow it is refused before any trace is generated or held.
    spec = benchmark_spec("mp3d", 4).scaled(instr_per_data=255.0)
    clear_simulation_cache(disk=False)
    before = cache_counters()
    with pytest.raises(ValueError, match="instr_per_data"):
        run_simulation(spec, data_refs=10)
    assert _built(before) == (0, 0)
    assert experiment._TRACE_SETS.held_bytes == 0


def test_held_columns_are_allocated_at_their_exact_length():
    # TRACE_CACHE_BYTES counts len * itemsize per column; a column grown
    # by appends would hold more than that.
    clear_simulation_cache(disk=False)
    for name, processors, refs in (("mp3d", 4, 1_000), ("fft", 64, 37)):
        run_simulation(name, num_processors=processors, data_refs=refs)
    held = [
        column
        for columns, _ in experiment._TRACE_SETS._sets.values()
        for node_columns in columns
        for column in node_columns
    ]
    assert len(held) == 3 * (4 + 64)
    for column in held:
        assert sys.getsizeof(column) - sys.getsizeof(
            array(column.typecode)
        ) == len(column) * column.itemsize
    assert experiment._TRACE_SETS.held_bytes == 10 * (4 * 1_000 + 64 * 37)
    clear_simulation_cache(disk=False)
