"""Integration tests for the simulation driver."""

from dataclasses import replace

import pytest

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import (
    cache_counters,
    clear_simulation_cache,
    run_simulation,
    run_simulation_cached,
)
from repro.core.parallel import SweepPoint, execute_points
from repro.core.metrics import MissClass

REFS = 1_500  # small but non-trivial traces for integration checks


@pytest.fixture(scope="module")
def snooping_result():
    return run_simulation(
        "mp3d", num_processors=4, protocol=Protocol.SNOOPING, data_refs=REFS
    )


def test_result_metrics_sane(snooping_result):
    result = snooping_result
    assert 0.0 < result.processor_utilization <= 1.0
    assert 0.0 <= result.network_utilization <= 1.0
    assert result.shared_miss_latency_ns > 0.0
    assert result.elapsed_ps > 0
    assert result.instructions > 4 * REFS  # > 1 instr per data ref


def test_trace_characteristics_match_workload(snooping_result):
    trace = snooping_result.trace
    assert trace.benchmark == "mp3d"
    assert trace.processors == 4
    assert trace.data_refs == 4 * REFS
    assert 0.0 < trace.shared_fraction < 1.0
    assert trace.total_miss_rate_percent > 0.0
    assert trace.shared_miss_rate_percent > trace.total_miss_rate_percent


def test_model_inputs_extracted(snooping_result):
    inputs = snooping_result.inputs
    assert inputs.protocol is Protocol.SNOOPING
    assert inputs.data_refs_per_instr == pytest.approx(
        snooping_result.trace.data_refs / snooping_result.instructions
    )
    assert inputs.f_miss_total() > 0.0
    assert inputs.f_probes > 0.0
    # Snooping probes are all broadcasts.
    assert inputs.f_broadcast_probes == pytest.approx(inputs.f_probes)


def test_simulation_is_deterministic():
    a = run_simulation(
        "water", num_processors=4, protocol=Protocol.DIRECTORY, data_refs=800
    )
    b = run_simulation(
        "water", num_processors=4, protocol=Protocol.DIRECTORY, data_refs=800
    )
    assert a.elapsed_ps == b.elapsed_ps
    assert a.processor_utilization == b.processor_utilization
    assert a.stats.probes_sent == b.stats.probes_sent


def test_seed_changes_results():
    from dataclasses import replace

    base = SystemConfig(num_processors=4, protocol=Protocol.SNOOPING)
    a = run_simulation("mp3d", config=base, data_refs=800)
    b = run_simulation("mp3d", config=replace(base, seed=77), data_refs=800)
    assert a.elapsed_ps != b.elapsed_ps


def test_all_protocols_run_all_benchmarks_smoke():
    for protocol in Protocol:
        result = run_simulation(
            "cholesky", num_processors=4, protocol=protocol, data_refs=400
        )
        assert result.processor_utilization > 0.0


def test_directory_produces_figure5_classes():
    result = run_simulation(
        "mp3d", num_processors=8, protocol=Protocol.DIRECTORY, data_refs=REFS
    )
    counts = result.stats.counts_by_class()
    assert counts[MissClass.REMOTE_CLEAN] > 0
    assert counts[MissClass.DIRTY_ONE_CYCLE] + counts[MissClass.TWO_CYCLE] > 0


def test_cached_runs_are_reused():
    clear_simulation_cache()
    first = run_simulation_cached(
        "mp3d", 4, Protocol.SNOOPING, data_refs=500
    )
    second = run_simulation_cached(
        "mp3d", 4, Protocol.SNOOPING, data_refs=500
    )
    assert first is second
    different = run_simulation_cached(
        "mp3d", 4, Protocol.DIRECTORY, data_refs=500
    )
    assert different is not first
    clear_simulation_cache()


# ----------------------------------------------------------------------
# A simulation's identity excludes the interconnect it does not use
# ----------------------------------------------------------------------
def _unused_interconnect_variant(protocol):
    """(default config, same machine with the unused link reclocked)."""
    default = SystemConfig(num_processors=4, protocol=protocol)
    if protocol is Protocol.BUS:
        return default, replace(
            default, ring=replace(default.ring, clock_ps=4_000)
        )
    return default, replace(default, bus=replace(default.bus, clock_ps=10_000))


@pytest.mark.parametrize("protocol", [Protocol.SNOOPING, Protocol.BUS])
def test_unused_interconnect_does_not_change_the_simulation(protocol):
    default, variant = _unused_interconnect_variant(protocol)
    expected = run_simulation("mp3d", config=default, data_refs=500)
    actual = run_simulation("mp3d", config=variant, data_refs=500)
    assert actual.config == variant
    assert replace(actual, config=default) == expected


@pytest.mark.parametrize("protocol", [Protocol.SNOOPING, Protocol.BUS])
def test_unused_interconnect_variants_share_one_memo_entry(
    temp_store, protocol
):
    default, variant = _unused_interconnect_variant(protocol)
    before = cache_counters()
    first = run_simulation_cached(
        "mp3d", 4, protocol, data_refs=500, config=default
    )
    second = run_simulation_cached(
        "mp3d", 4, protocol, data_refs=500, config=variant
    )
    after = cache_counters()
    assert after["misses"] - before["misses"] == 1
    assert after["memo_hits"] - before["memo_hits"] == 1
    assert second is first
    assert first.config == default


def test_parallel_sweep_primes_the_memo_for_the_canonical_machine(
    temp_store,
):
    from repro.core.store import configure_result_store

    default, variant = _unused_interconnect_variant(Protocol.SNOOPING)
    # A disabled store: only the parent memo can serve the lookups
    # below (the fixture reinstates the previous store afterwards).
    configure_result_store(temp_store.directory, enabled=False)
    execute_points(
        [
            SweepPoint("mp3d", 4, Protocol.SNOOPING, 500, config=variant),
            SweepPoint("water", 4, Protocol.SNOOPING, 500),
        ],
        jobs=2,
    )
    before = cache_counters()
    for config in (variant, default):
        run_simulation_cached(
            "mp3d", 4, Protocol.SNOOPING, data_refs=500, config=config
        )
    after = cache_counters()
    assert after["memo_hits"] - before["memo_hits"] == 2
    assert after["misses"] - before["misses"] == 0
    assert temp_store.entry_count() == 0


def test_spec_object_accepted_directly():
    from repro.traces.benchmarks import benchmark_spec

    spec = benchmark_spec("water", 8).scaled(shared_run_mean=10.0)
    result = run_simulation(spec, data_refs=400)
    assert result.benchmark == "water"
    assert result.config.num_processors == 8


def test_final_state_passes_invariants():
    from repro.core.experiment import build_engine
    from repro.proc.processor import TraceProcessor
    from repro.sim.kernel import Simulator
    from repro.traces.benchmarks import benchmark_spec
    from repro.traces.synthetic import SyntheticTraceGenerator

    sim = Simulator()
    config = SystemConfig(num_processors=4, protocol=Protocol.SNOOPING)
    engine = build_engine(sim, config)
    spec = benchmark_spec("mp3d", 4)
    generator = SyntheticTraceGenerator(spec, engine.address_map, seed=3)
    for node in range(4):
        processor = TraceProcessor(
            sim, node, engine, generator.stream(node, 600), config.processor
        )
        sim.spawn(processor.run())
    sim.run()
    engine.check_invariants()
