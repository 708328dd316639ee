"""Unit tests for the analytical models."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.core.results import ModelInputs
from repro.models.base import (
    LatencyBreakdown,
    md1_wait,
    mm1_wait,
    slot_wait,
    solve_time_per_instruction,
)
from repro.models.bus import BusModel
from repro.models.ring_directory import DirectoryRingModel
from repro.models.ring_snooping import SnoopingRingModel


def make_inputs(
    protocol=Protocol.SNOOPING,
    processors=8,
    remote_clean=0.01,
    remote_dirty=0.005,
    two_cycle=0.0,
    dirty_one=0.0,
    upgrades_with=0.002,
    upgrades_without=0.001,
) -> ModelInputs:
    f_miss = {klass: 0.0 for klass in MissClass}
    f_miss[MissClass.PRIVATE] = 0.002
    f_miss[MissClass.LOCAL_CLEAN] = 0.002
    f_miss[MissClass.REMOTE_CLEAN] = remote_clean
    f_miss[MissClass.REMOTE_DIRTY] = remote_dirty
    f_miss[MissClass.DIRTY_ONE_CYCLE] = dirty_one
    f_miss[MissClass.TWO_CYCLE] = two_cycle
    probes = remote_clean + remote_dirty + dirty_one + two_cycle + upgrades_with + upgrades_without
    return ModelInputs(
        benchmark="synthetic",
        num_processors=processors,
        protocol=protocol,
        data_refs_per_instr=0.33,
        f_miss=f_miss,
        f_upgrade_with_sharers=upgrades_with,
        f_upgrade_without_sharers=upgrades_without,
        f_writeback=0.001,
        f_sharing_writeback=0.001,
        f_probes=probes,
        f_broadcast_probes=probes if protocol is Protocol.SNOOPING else upgrades_with,
        f_blocks=remote_clean + remote_dirty + dirty_one + two_cycle + 0.002,
        f_memory_accesses=0.02,
    )


# ----------------------------------------------------------------------
# Queueing primitives
# ----------------------------------------------------------------------
def test_waits_zero_at_idle():
    assert mm1_wait(0.0, 1_000) == 0.0
    assert md1_wait(0.0, 1_000) == 0.0
    assert slot_wait(0.0, 1_000) == pytest.approx(500.0)  # alignment only


def test_waits_increase_with_load():
    for wait in (mm1_wait, md1_wait, slot_wait):
        values = [wait(rho, 1_000) for rho in (0.1, 0.5, 0.9)]
        assert values[0] < values[1] < values[2]


def test_md1_half_of_mm1():
    assert md1_wait(0.5, 1_000) == pytest.approx(mm1_wait(0.5, 1_000) / 2)


def test_waits_finite_at_saturation():
    for wait in (mm1_wait, md1_wait, slot_wait):
        assert wait(1.5, 1_000) < float("inf")


# ----------------------------------------------------------------------
# Fixed point solver
# ----------------------------------------------------------------------
def test_fixed_point_constant_latency():
    def model(time_ps):
        return LatencyBreakdown(
            latencies={"miss": 100_000.0},
            network_utilization=0.1,
            bank_utilization=0.1,
        )

    time_ps, _ = solve_time_per_instruction(
        busy_ps_per_instr=20_000.0,
        event_frequencies={"miss": 0.01},
        model=model,
    )
    assert time_ps == pytest.approx(21_000.0, rel=1e-4)


def test_fixed_point_load_dependent_latency():
    def model(time_ps):
        rho = min(0.99, 1e6 / time_ps)
        return LatencyBreakdown(
            latencies={"miss": 100_000.0 * (1 + rho)},
            network_utilization=rho,
            bank_utilization=0.0,
        )

    time_ps, breakdown = solve_time_per_instruction(
        busy_ps_per_instr=20_000.0,
        event_frequencies={"miss": 0.05},
        model=model,
    )
    # Self-consistency: T = busy + f * L(T).
    assert time_ps == pytest.approx(
        20_000.0 + 0.05 * breakdown.latencies["miss"], rel=1e-3
    )


def test_fixed_point_no_events():
    def model(time_ps):
        return LatencyBreakdown(
            latencies={}, network_utilization=0.0, bank_utilization=0.0
        )

    time_ps, _ = solve_time_per_instruction(
        busy_ps_per_instr=5_000.0, event_frequencies={}, model=model
    )
    assert time_ps == pytest.approx(5_000.0)


# ----------------------------------------------------------------------
# Ring models
# ----------------------------------------------------------------------
def test_snooping_utilization_decreases_with_faster_processor():
    config = SystemConfig(num_processors=8)
    model = SnoopingRingModel(config, make_inputs())
    utilizations = [
        model.solve(cycle).processor_utilization
        for cycle in (20_000, 10_000, 5_000, 1_000)
    ]
    assert all(b < a for a, b in zip(utilizations, utilizations[1:]))


def test_snooping_network_utilization_increases_with_faster_processor():
    config = SystemConfig(num_processors=8)
    model = SnoopingRingModel(config, make_inputs())
    network = [
        model.solve(cycle).network_utilization
        for cycle in (20_000, 10_000, 1_000)
    ]
    assert network[0] < network[1] < network[2]


def test_snooping_latency_floor_matches_structure():
    """At idle, the remote-clean latency is one traversal plus memory
    plus drains and alignment waits -- no more."""
    config = SystemConfig(num_processors=8)
    inputs = make_inputs(remote_clean=1e-9, remote_dirty=0.0,
                         upgrades_with=0.0, upgrades_without=0.0)
    model = SnoopingRingModel(config, inputs)
    breakdown = model.breakdown(1e12)  # effectively idle
    ring_ps = config.ring_topology().total_stages * config.ring.clock_ps
    latency = breakdown.latencies["remote_clean"]
    floor = ring_ps + config.memory.access_ps
    assert floor < latency < floor + 60_000


def test_directory_dirty_slower_than_clean():
    config = SystemConfig(num_processors=8, protocol=Protocol.DIRECTORY)
    model = DirectoryRingModel(
        config, make_inputs(protocol=Protocol.DIRECTORY, dirty_one=0.005)
    )
    breakdown = model.breakdown(100_000.0)
    assert (
        breakdown.latencies["dirty_one_cycle"]
        > breakdown.latencies["remote_clean"]
    )
    assert (
        breakdown.latencies["two_cycle"]
        > breakdown.latencies["dirty_one_cycle"]
    )


def test_directory_upgrade_with_sharers_slower():
    config = SystemConfig(num_processors=8, protocol=Protocol.DIRECTORY)
    model = DirectoryRingModel(
        config, make_inputs(protocol=Protocol.DIRECTORY)
    )
    breakdown = model.breakdown(100_000.0)
    assert (
        breakdown.latencies["upgrade_with"]
        > breakdown.latencies["upgrade_without"]
    )


def test_sweep_produces_requested_points():
    config = SystemConfig(num_processors=8)
    model = SnoopingRingModel(config, make_inputs())
    sweep = model.sweep([1.0, 5.0, 10.0])
    assert sweep.cycles_ns() == [1.0, 5.0, 10.0]
    assert len(sweep.series("processor_utilization")) == 3
    assert sweep.at_cycle(4.9).processor_cycle_ns == 5.0


# ----------------------------------------------------------------------
# Bus model
# ----------------------------------------------------------------------
def test_bus_saturates_under_heavy_load():
    config = SystemConfig(num_processors=32, protocol=Protocol.BUS)
    model = BusModel(config, make_inputs(processors=32, remote_clean=0.03))
    point = model.solve(1_000)
    assert point.network_utilization > 0.9
    assert point.processor_utilization < 0.2


def test_faster_bus_clock_helps():
    from dataclasses import replace

    inputs = make_inputs(processors=16)
    slow_config = SystemConfig(num_processors=16, protocol=Protocol.BUS)
    fast_config = replace(
        slow_config, bus=replace(slow_config.bus, clock_ps=10_000)
    )
    slow = BusModel(slow_config, inputs).solve(5_000)
    fast = BusModel(fast_config, inputs).solve(5_000)
    assert fast.processor_utilization > slow.processor_utilization


def test_bus_latency_floor():
    config = SystemConfig(num_processors=8, protocol=Protocol.BUS)
    model = BusModel(config, make_inputs(processors=8))
    breakdown = model.breakdown(1e12)
    floor = 6 * config.bus.clock_ps + config.memory.access_ps
    assert breakdown.latencies["remote_clean"] == pytest.approx(floor, rel=0.01)


# ----------------------------------------------------------------------
# Matching solver (Table 4 machinery)
# ----------------------------------------------------------------------
def test_matching_bus_clock_is_monotone_in_processor_speed():
    from repro.models.matching import matching_bus_clock_ns

    config = SystemConfig(num_processors=16)
    inputs = make_inputs(processors=16)
    clocks = [
        matching_bus_clock_ns(config, inputs, cycle)
        for cycle in (10_000, 5_000, 2_500)
    ]
    # Faster processors need faster matching buses.
    assert clocks[0] >= clocks[1] >= clocks[2]


def test_matching_bus_reproduces_ring_utilization():
    from dataclasses import replace

    from repro.models.matching import (
        matching_bus_clock_ns,
        ring_target_utilization,
    )

    config = SystemConfig(num_processors=16)
    inputs = make_inputs(processors=16)
    target = ring_target_utilization(config, inputs, 10_000)
    clock_ns = matching_bus_clock_ns(config, inputs, 10_000)
    bus_config = replace(
        config,
        protocol=Protocol.BUS,
        bus=replace(config.bus, clock_ps=round(clock_ns * 1000)),
    )
    achieved = BusModel(bus_config, inputs).solve(10_000).processor_utilization
    assert achieved == pytest.approx(target, abs=0.01)


def _bus_meets_exactly(config, inputs, cycle_ps, clock_ps, target):
    """Oracle: does the bus clocked at ``clock_ps`` reach ``target``,
    with its fixed point solved to 1e-13?"""
    from dataclasses import replace

    bus_config = replace(config, bus=replace(config.bus, clock_ps=clock_ps))
    model = BusModel(bus_config, inputs)
    time_ps, _ = solve_time_per_instruction(
        float(cycle_ps),
        dict(model.frequencies(model.row)),
        model.breakdown,
        tolerance=1e-13,
    )
    return cycle_ps / time_ps >= target


#: A point the former matching solver, which solved the bus model at
#: every probe, answered one picosecond short of the threshold: it
#: returned 11.342804908752441 ns although the bus still meets the
#: target at 11,343 ps.
_THRESHOLD_POINT = (
    16,
    2_000,
    5_000,
    dict(
        remote_clean=0.001,
        remote_dirty=0.0011,
        upgrades_with=0.0,
        upgrades_without=0.0003,
    ),
)


def test_matching_bus_clock_lies_on_the_exact_threshold():
    import math
    import random
    from dataclasses import replace

    from repro.models.matching import (
        matching_bus_clock_ns,
        ring_target_utilization,
    )

    rng = random.Random(1993)
    points = [_THRESHOLD_POINT]
    for _ in range(40):
        points.append(
            (
                rng.choice((8, 16, 32)),
                rng.choice((2_000, 4_000)),
                rng.choice((2_500, 5_000, 10_000)),
                dict(
                    remote_clean=rng.randrange(10, 300) / 10_000,
                    remote_dirty=rng.randrange(0, 150) / 10_000,
                    upgrades_with=rng.randrange(0, 40) / 10_000,
                    upgrades_without=rng.randrange(0, 20) / 10_000,
                ),
            )
        )
    for processors, ring_clock_ps, cycle_ps, frequencies in points:
        base = SystemConfig(num_processors=processors)
        config = replace(base, ring=replace(base.ring, clock_ps=ring_clock_ps))
        inputs = make_inputs(processors=processors, **frequencies)
        target = ring_target_utilization(config, inputs, cycle_ps)
        clock_ns = matching_bus_clock_ns(config, inputs, cycle_ps)
        assert 0.5 < clock_ns < 200.0
        threshold_ps = math.floor(clock_ns * 1000)
        where = (processors, ring_clock_ps, cycle_ps, frequencies, clock_ns)
        assert _bus_meets_exactly(
            config, inputs, cycle_ps, threshold_ps, target
        ), where
        assert not _bus_meets_exactly(
            config, inputs, cycle_ps, threshold_ps + 1, target
        ), where


def test_matching_bus_clock_rejects_a_nan_target():
    import math

    from repro.models.matching import matching_bus_clock_ns

    config = SystemConfig(num_processors=16)
    inputs = make_inputs(processors=16)
    with pytest.raises(ValueError):
        matching_bus_clock_ns(
            config, inputs, 10_000, target_utilization=math.nan
        )
    # A target <= 0 is met by the slowest bus considered.
    for target in (0.0, -1.0):
        assert matching_bus_clock_ns(
            config, inputs, 10_000, target_utilization=target
        ) == 200.0


# ----------------------------------------------------------------------
# The scalar path stays NumPy-free
# ----------------------------------------------------------------------
_SCALAR_SWEEPS = """
import sys

import repro.cli, repro.serve.server, repro.serve.protocol, repro.perf.bench
from repro.core.config import Protocol, SystemConfig
from repro.core.hybrid import model_for, sweep_from_result
from repro.core.metrics import MissClass
from repro.core.results import ModelInputs
from repro.models import MODEL_FAMILIES

class Extraction:
    inputs = ModelInputs(
        benchmark="synthetic", num_processors=8, protocol=Protocol.SNOOPING,
        data_refs_per_instr=0.33, f_miss={klass: 0.002 for klass in MissClass},
        f_upgrade_with_sharers=0.002, f_upgrade_without_sharers=0.001,
        f_writeback=0.001, f_sharing_writeback=0.001, f_probes=0.02,
        f_broadcast_probes=0.01, f_blocks=0.02, f_memory_accesses=0.02,
        f_forwards=0.004, mean_upgrade_traversals=2.0,
    )

families = set()
for protocol in (Protocol.SNOOPING, Protocol.DIRECTORY, Protocol.LINKED_LIST, Protocol.BUS):
    model = model_for(SystemConfig(num_processors=8, protocol=protocol), Extraction)
    assert len(model.sweep().points) == 20
    families.add(model.family)
assert families == set(MODEL_FAMILIES), families
from repro.models.matching import matching_bus_clock_ns
assert 0.5 < matching_bus_clock_ns(SystemConfig(num_processors=8), Extraction.inputs, 5_000) < 200.0
curve = sweep_from_result(Extraction, 8, Protocol.SNOOPING, cycles_ns=[10.0, 20.0])
assert len(curve.points) == 2
from repro.core.sensitivity import model_sensitivity_sweep
rows = model_sensitivity_sweep("mp3d", 4, "ring_clock_ps", [2_000, 4_000], data_refs=600)
assert rows[1]["miss latency (ns)"] > rows[0]["miss latency (ns)"], rows
assert "numpy" not in sys.modules, "numpy was imported outside the grid engine"
print("numpy-free")
"""


def test_scalar_sweeps_never_import_numpy(tmp_path):
    """The family equations serve the grid too, but nothing outside the
    grid engine may import NumPy: its import (over 0.1 s) would land in
    the start-up of every command.  A fresh interpreter imports the CLI,
    the daemon and the bench harness, solves curves of every family and
    a model sensitivity sweep (one small simulation into a throwaway
    store), and finds no NumPy loaded."""
    source_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_root, env.get("PYTHONPATH")))
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    completed = subprocess.run(
        [sys.executable, "-c", _SCALAR_SWEEPS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "numpy-free"
