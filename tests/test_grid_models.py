"""Scalar-oracle equivalence suite for the vectorized grid engine.

The scalar models and ``repro.models.grid`` evaluate the same family
equations (floats vs NumPy arrays), so what this suite pins is the two
*solvers*: the scalar bracketed secant and the masked grid secant.
Every test drives both through the same inputs -- hundreds of
seeded-random design points per family plus the degenerate corners --
and holds the grid to the scalar oracle within 1e-9 relative tolerance
(the engine's contract; in practice the match is bit-exact because the
masked iteration follows the scalar one step for step).
"""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.core.results import ModelInputs, OperatingPoint
from repro.models import grid as grid_engine
from repro.models.bus import BusModel
from repro.models.ring_directory import DirectoryRingModel
from repro.models.ring_linkedlist import LinkedListRingModel
from repro.models.ring_snooping import SnoopingRingModel

#: The equivalence contract: every finite grid metric within this
#: relative tolerance of the scalar oracle.
REL = 1e-9

FAMILIES = {
    "ring_snooping": (Protocol.SNOOPING, SnoopingRingModel),
    "ring_directory": (Protocol.DIRECTORY, DirectoryRingModel),
    "ring_linkedlist": (Protocol.LINKED_LIST, LinkedListRingModel),
    "bus": (Protocol.BUS, BusModel),
}

#: Seeded-random design points per family (plus the corners below).
RANDOM_POINTS = 500

_METRICS = (
    "processor_cycle_ns",
    "processor_utilization",
    "network_utilization",
    "shared_miss_latency_ns",
    "upgrade_latency_ns",
    "time_per_instruction_ps",
)


def _assert_matches(ours: OperatingPoint, oracle: OperatingPoint, where=""):
    for name in _METRICS:
        assert getattr(ours, name) == pytest.approx(
            getattr(oracle, name), rel=REL, abs=1e-12
        ), f"{name} diverged from the scalar oracle {where}"


def _random_config(rng: random.Random, protocol: Protocol) -> SystemConfig:
    base = SystemConfig(
        num_processors=rng.choice((2, 4, 8, 16, 32, 64)),
        protocol=protocol,
    )
    return replace(
        base,
        ring=replace(
            base.ring,
            clock_ps=rng.randrange(1_000, 10_000),
            width_bits=rng.choice((16, 32, 64)),
        ),
        bus=replace(base.bus, clock_ps=rng.randrange(5_000, 40_000)),
        cache=replace(base.cache, block_size=rng.choice((16, 32, 64, 128))),
        memory=replace(
            base.memory,
            access_ps=rng.randrange(50_000, 300_000),
            cache_response_ps=rng.randrange(50_000, 300_000),
            directory_lookup_ps=rng.randrange(0, 20_000),
        ),
    )


def _make_inputs(
    protocol: Protocol,
    processors: int,
    *,
    private=0.002,
    local_clean=0.002,
    remote_clean=0.01,
    remote_dirty=0.005,
    dirty_one=0.0,
    two_cycle=0.0,
    upgrades_with=0.002,
    upgrades_without=0.001,
    writeback=0.001,
    memory_accesses=0.02,
    broadcast_share=1.0,
    forwards=0.0,
    upgrade_traversals=0.0,
) -> ModelInputs:
    f_miss = {klass: 0.0 for klass in MissClass}
    f_miss[MissClass.PRIVATE] = private
    f_miss[MissClass.LOCAL_CLEAN] = local_clean
    f_miss[MissClass.REMOTE_CLEAN] = remote_clean
    f_miss[MissClass.REMOTE_DIRTY] = remote_dirty
    f_miss[MissClass.DIRTY_ONE_CYCLE] = dirty_one
    f_miss[MissClass.TWO_CYCLE] = two_cycle
    probes = (
        remote_clean
        + remote_dirty
        + dirty_one
        + two_cycle
        + upgrades_with
        + upgrades_without
    )
    return ModelInputs(
        benchmark="synthetic",
        num_processors=processors,
        protocol=protocol,
        data_refs_per_instr=0.33,
        f_miss=f_miss,
        f_upgrade_with_sharers=upgrades_with,
        f_upgrade_without_sharers=upgrades_without,
        f_writeback=writeback,
        f_sharing_writeback=writeback,
        f_probes=probes,
        f_broadcast_probes=probes * broadcast_share,
        f_blocks=remote_clean + remote_dirty + dirty_one + two_cycle + 0.002,
        f_memory_accesses=memory_accesses,
        f_forwards=forwards,
        mean_upgrade_traversals=upgrade_traversals,
    )


def _random_inputs(
    rng: random.Random, protocol: Protocol, processors: int, scale=0.01
) -> ModelInputs:
    def f():
        return rng.random() * scale

    return _make_inputs(
        protocol,
        processors,
        private=f(),
        local_clean=f(),
        remote_clean=f(),
        remote_dirty=f(),
        dirty_one=f(),
        two_cycle=f(),
        upgrades_with=f(),
        upgrades_without=f(),
        writeback=f(),
        memory_accesses=f(),
        broadcast_share=rng.random(),
        forwards=f(),
        upgrade_traversals=1.0 + rng.random() * 3.0,
    )


def _random_points(family: str, count: int):
    protocol, _ = FAMILIES[family]
    rng = random.Random(f"grid-oracle-{family}")
    points = []
    for _ in range(count):
        config = _random_config(rng, protocol)
        inputs = _random_inputs(rng, protocol, config.num_processors)
        cycle_ps = rng.randrange(1_000, 40_000)
        points.append((config, inputs, cycle_ps))
    return points


# ----------------------------------------------------------------------
# Seeded-random equivalence, every family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_points_match_scalar_oracle(family):
    protocol, model_type = FAMILIES[family]
    points = _random_points(family, RANDOM_POINTS)
    solution = grid_engine.solve_grid(
        grid_engine.ModelGrid.from_points(family, points)
    )
    assert solution.n_failed == 0
    assert solution.n_converged == len(points)
    for index, (config, inputs, cycle_ps) in enumerate(points):
        oracle = model_type(config, inputs).solve(cycle_ps)
        _assert_matches(
            solution.operating_point(index),
            oracle,
            where=f"at random point {index} of family {family}",
        )


# ----------------------------------------------------------------------
# Degenerate corners
# ----------------------------------------------------------------------
def _corner_points(family: str):
    protocol, _ = FAMILIES[family]
    quiet = dict(
        private=0.0,
        local_clean=0.0,
        remote_clean=0.0,
        remote_dirty=0.0,
        dirty_one=0.0,
        two_cycle=0.0,
        upgrades_with=0.0,
        upgrades_without=0.0,
        writeback=0.0,
        memory_accesses=0.0,
    )
    hot = dict(
        remote_clean=0.3,
        remote_dirty=0.2,
        upgrades_with=0.1,
        memory_accesses=0.5,
    )
    small = SystemConfig(num_processors=2, protocol=protocol)
    big = SystemConfig(num_processors=64, protocol=protocol)
    return [
        # Zero miss rate: the solver's idle early-out branch.
        (small, _make_inputs(protocol, 2, **quiet), 20_000),
        # Saturated utilization at a 1 ns processor: the clamp region.
        (big, _make_inputs(protocol, 64, **hot), 1_000),
        # Minimum legal machine, default mix.
        (small, _make_inputs(protocol, 2), 4_000),
        # Enormous cycle time (1 us): busy dominates everything.
        (big, _make_inputs(protocol, 64), 1_000_000),
    ]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corner_points_match_scalar_oracle(family):
    protocol, model_type = FAMILIES[family]
    points = _corner_points(family)
    solution = grid_engine.solve_grid(
        grid_engine.ModelGrid.from_points(family, points)
    )
    assert solution.n_failed == 0
    for index, (config, inputs, cycle_ps) in enumerate(points):
        oracle = model_type(config, inputs).solve(cycle_ps)
        _assert_matches(
            solution.operating_point(index),
            oracle,
            where=f"at corner {index} of family {family}",
        )


def test_one_processor_rejected_consistently():
    """Both engines share the config layer, so a degenerate 1-processor
    machine is rejected before either solver can disagree about it."""
    with pytest.raises(ValueError):
        SystemConfig(num_processors=1)


# ----------------------------------------------------------------------
# Warm-started sweeps (the chained product grids)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_grid_sweep_matches_scalar_sweep(family):
    protocol, model_type = FAMILIES[family]
    config = SystemConfig(num_processors=16, protocol=protocol)
    inputs = _make_inputs(protocol, 16, forwards=0.004, upgrade_traversals=2.5)
    scalar = model_type(config, inputs).sweep()
    vector = grid_engine.solve_grid(
        grid_engine.ModelGrid.from_product(family, config, inputs)
    )
    assert vector.grid.chain_shape == (1, len(scalar.points))
    assert vector.operating_points() == scalar.points


def test_product_grid_matches_scalar_across_parameter_axes():
    protocol, model_type = FAMILIES["ring_snooping"]
    config = SystemConfig(num_processors=8, protocol=protocol)
    inputs = _make_inputs(protocol, 8)
    clocks = [1_500, 2_000, 4_000]
    widths = [16, 32, 64]
    cycles = [2.0, 5.0, 10.0, 20.0]
    grid = grid_engine.ModelGrid.from_product(
        "ring_snooping",
        config,
        inputs,
        cycles_ns=cycles,
        parameters={"ring_clock_ps": clocks, "ring_width_bits": widths},
    )
    assert grid.chain_shape == (len(clocks) * len(widths), len(cycles))
    solution = grid_engine.solve_grid(grid)
    assert solution.n_failed == 0

    index = 0
    for clock_ps in clocks:  # configuration-major, itertools.product order
        for width in widths:
            variant = replace(
                config,
                ring=replace(
                    config.ring, clock_ps=clock_ps, width_bits=width
                ),
            )
            oracle = model_type(variant, inputs).sweep(cycles)
            for point in oracle.points:
                _assert_matches(
                    solution.operating_point(index),
                    point,
                    where=f"at clock {clock_ps} width {width}",
                )
                index += 1
    assert index == solution.size

    # surface() exposes the same numbers shaped (configs, cycles).
    shaped = solution.surface("processor_utilization")
    assert shaped.shape == grid.chain_shape
    assert np.array_equal(
        shaped.reshape(-1), solution.processor_utilization
    )


# ----------------------------------------------------------------------
# Engine plumbing: stats, protocol routing
# ----------------------------------------------------------------------
def test_grid_stats_count_work_deterministically():
    points = _random_points("ring_snooping", 40)
    grid = grid_engine.ModelGrid.from_points("ring_snooping", points)

    grid_engine.reset_grid_stats()
    grid_engine.solve_grid(grid)
    first = dict(grid_engine.GRID_STATS)
    assert first["grid_solves"] == 1
    assert first["grid_evals"] > 0
    assert first["points_converged"] == len(points)
    assert first["points_failed"] == 0

    grid_engine.reset_grid_stats()
    grid_engine.solve_grid(grid)
    assert dict(grid_engine.GRID_STATS) == first  # same grid, same work


def test_family_for_protocol_matches_model_for():
    from repro.core.hybrid import model_for

    scalar_types = {
        "ring_snooping": SnoopingRingModel,
        "ring_directory": DirectoryRingModel,
        "ring_linkedlist": LinkedListRingModel,
        "bus": BusModel,
    }
    for protocol in (
        Protocol.SNOOPING,
        Protocol.DIRECTORY,
        Protocol.LINKED_LIST,
        Protocol.BUS,
    ):
        family = grid_engine.family_for_protocol(protocol)
        config = SystemConfig(num_processors=4, protocol=protocol)
        inputs = _make_inputs(protocol, 4)

        class FakeResult:
            pass

        result = FakeResult()
        result.inputs = inputs
        assert isinstance(model_for(config, result), scalar_types[family])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        grid_engine.ModelGrid.from_points(
            "nonsense", _random_points("ring_snooping", 1)
        )
    with pytest.raises(ValueError):
        grid_engine.ModelGrid.from_points("ring_snooping", [])


# ----------------------------------------------------------------------
# Product construction: the column build against a per-combination build
# ----------------------------------------------------------------------
def _per_combination_grid(family, config, inputs, cycles_ns, parameters):
    """The reference build of ``ModelGrid.from_product``: every axis
    applied to the base config per combination, one ``config_row`` (and
    so one ring geometry) per combination."""
    from repro.core.sensitivity import apply_parameter
    from repro.models.base import CONFIG_FIELDS, config_row

    names = list(parameters)
    configs = []
    for combo in itertools.product(*(parameters[name] for name in names)):
        variant = config
        for name, value in zip(names, combo):
            variant = apply_parameter(variant, name, value)
        configs.append(variant)
    rows = [config_row(variant, inputs) for variant in configs]
    busy = np.array([float(round(c * 1000)) for c in cycles_ns], dtype=np.float64)
    arrays = {
        name: np.repeat(
            np.array([row[name] for row in rows], dtype=np.float64),
            len(cycles_ns),
        )
        for name in CONFIG_FIELDS
    }
    arrays["busy_ps"] = np.tile(busy, len(rows))
    return grid_engine.ModelGrid(
        family=family, arrays=arrays, chain_shape=(len(rows), len(cycles_ns))
    )


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads",
        pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _bench_workloads()

#: Two- and three-axis products; the geometry moves with ring width,
#: block size and processors, and not at all with cache size.  Then the
#: ``design`` benchmark's two spaces, a lone one-value structural axis
#: and a cache-size axis, which moves no field at all.
PRODUCT_AXES = [
    {"ring_width_bits": [16, 32, 64], "block_size": [16, 64]},
    {"num_processors": [4, 16], "cache_size_bytes": [32768, 131072]},
    {
        "block_size": [32, 128],
        "memory_access_ps": [60_000, 140_000, 220_000],
        "num_processors": [2, 8, 32],
    },
    {
        "cache_size_bytes": [65536],
        "ring_width_bits": [64, 16],
        "bus_clock_ps": [10_000, 20_000],
    },
    BENCH.RING_AXES,
    BENCH.BUS_AXES,
    {"block_size": [32]},
    {"cache_size_bytes": [16384, 65536, 262144]},
]


def _assert_product_matches(family, config, axes):
    inputs = _make_inputs(
        config.protocol,
        config.num_processors,
        forwards=0.004,
        upgrade_traversals=2.5,
    )
    cycles = [1.0, 4.0, 20.0]
    built = grid_engine.ModelGrid.from_product(
        family, config, inputs, cycles_ns=cycles, parameters=axes
    )
    oracle = _per_combination_grid(family, config, inputs, cycles, axes)
    assert built.chain_shape == oracle.chain_shape
    assert sorted(built.arrays) == sorted(oracle.arrays)
    for name, array in oracle.arrays.items():
        assert built.arrays[name].dtype == array.dtype
        assert (
            np.broadcast_to(built.arrays[name], array.shape).tobytes()
            == array.tobytes()
        ), name
    # A field is 0-d exactly when no axis moves it: the system fields
    # no axis's path names, the geometry unless an axis is structural,
    # and every input (busy_ps never).
    from repro.core.sensitivity import SUPPORTED_PARAMETERS
    from repro.models.base import CONFIG_FIELDS, GEOMETRY_FIELDS, SYSTEM_PATHS

    paths = [SUPPORTED_PARAMETERS.get(name) for name in axes]
    moved = {name for name, path in SYSTEM_PATHS.items() if path in paths}
    if any(grid_engine._structural(path) for path in paths):
        moved.update(GEOMETRY_FIELDS)
    scalars = {name for name, array in built.arrays.items() if np.ndim(array) == 0}
    assert scalars == set(CONFIG_FIELDS) - moved


def _assert_same_error(config, axes):
    inputs = _make_inputs(config.protocol, config.num_processors)
    family = grid_engine.family_for_protocol(config.protocol)
    with pytest.raises(Exception) as expected:
        _per_combination_grid(family, config, inputs, [1.0], axes)
    with pytest.raises(expected.type) as raised:
        grid_engine.ModelGrid.from_product(
            family, config, inputs, cycles_ns=[1.0], parameters=axes
        )
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("axes", PRODUCT_AXES, ids=lambda axes: "+".join(axes))
def test_product_build_matches_per_combination_build(family, axes):
    protocol, _ = FAMILIES[family]
    _assert_product_matches(
        family, SystemConfig(num_processors=16, protocol=protocol), axes
    )


@pytest.mark.parametrize(
    "axes",
    [
        {"num_processors": [8, 16, 64], "ring_width_bits": [16, 64]},
        {"memory_access_ps": [60_000, 140_000], "num_processors": [32, 4]},
    ],
    ids=lambda axes: "+".join(axes),
)
def test_hierarchical_product_build_matches_per_combination_build(axes):
    # Hierarchical bases check that every processor count divides into
    # the ring's clusters; the count is a structural axis here.
    config = SystemConfig(num_processors=16, protocol=Protocol.HIERARCHICAL)
    _assert_product_matches("ring_directory", config, axes)


@pytest.mark.parametrize(
    "axes",
    [
        {"ring_width_bits": [32, 12]},
        {"memory_access_ps": [100_000, 140_000], "ring_width_bits": [16, 12, 0]},
        {"num_processors": [8, 1], "ring_width_bits": [12]},
        {"ring_width_bits": [32], "bogus_axis": [1]},
        # The first combination fails on the unknown name before any
        # later combination reaches the 1-processor value.
        {"num_processors": [8, 1], "bogus_axis": [1]},
        # ... and here on the 1-processor value before the name.
        {"num_processors": [1], "bogus_axis": [1]},
    ],
)
def test_degenerate_value_raises_as_per_combination_build(axes):
    _assert_same_error(SystemConfig(num_processors=16), axes)


@pytest.mark.parametrize(
    "axes",
    [
        # Every combination is applied before any geometry is built, so
        # 6 processors (not a multiple of 4 clusters) fails before the
        # 12-bit ring of the first combination does.
        {"num_processors": [8, 6], "ring_width_bits": [12]},
        {"ring_width_bits": [32, 12], "num_processors": [10, 8]},
        {"num_processors": [16, 8, 1, 6]},
        {"memory_access_ps": [60_000], "num_processors": [8, 18]},
    ],
    ids=lambda axes: "+".join(axes),
)
def test_hierarchical_degenerate_count_raises_as_per_combination_build(axes):
    _assert_same_error(
        SystemConfig(num_processors=16, protocol=Protocol.HIERARCHICAL), axes
    )


def test_system_paths_name_what_system_values_reads():
    from repro.models.base import SYSTEM_FIELDS, SYSTEM_PATHS, system_values

    base = SystemConfig(num_processors=16)
    distinct = {path: 3 + number for number, path in enumerate(SYSTEM_PATHS.values())}
    config = base
    for (part, name), value in distinct.items():
        if part is None:
            config = replace(config, **{name: value})
        else:
            config = replace(
                config, **{part: replace(getattr(config, part), **{name: value})}
            )
    assert tuple(SYSTEM_PATHS) == SYSTEM_FIELDS
    assert system_values(config) == tuple(
        float(value) for value in distinct.values()
    )


def test_design_spaces_build_each_geometry_once(monkeypatch):
    from repro.core import sensitivity

    calls = {"apply": 0, "config": 0, "layout": 0}
    apply_parameter = sensitivity.apply_parameter
    post_init = SystemConfig.__post_init__
    ring_layout = SystemConfig.ring_layout

    def counting_apply(config, name, value):
        calls["apply"] += 1
        return apply_parameter(config, name, value)

    def counting_post_init(config):
        calls["config"] += 1
        post_init(config)

    def counting_layout(config):
        calls["layout"] += 1
        return ring_layout(config)

    monkeypatch.setattr(sensitivity, "apply_parameter", counting_apply)
    monkeypatch.setattr(SystemConfig, "__post_init__", counting_post_init)
    monkeypatch.setattr(SystemConfig, "ring_layout", counting_layout)
    ring = SystemConfig(num_processors=16)
    bus = SystemConfig(num_processors=16, protocol=Protocol.BUS)
    inputs = _make_inputs(Protocol.SNOOPING, 16)

    # The ring space: each of its 10 + 25 + 3 values applied once, then
    # the 10 x 3 ring combinations applied (two axes each) and their
    # geometry built.
    calls.update(apply=0, config=0, layout=0)
    grid_engine.ModelGrid.from_product(
        "ring_snooping", ring, inputs, parameters=BENCH.RING_AXES
    )
    assert calls == {"apply": 98, "config": 98, "layout": 30}

    # The bus space moves no geometry: one build, of the base config.
    calls.update(apply=0, config=0, layout=0)
    grid_engine.ModelGrid.from_product(
        "bus", bus, inputs, parameters=BENCH.BUS_AXES
    )
    assert calls == {"apply": 38, "config": 38, "layout": 1}

    # The per-combination build pays for every axis of every combination.
    calls.update(apply=0, config=0, layout=0)
    _per_combination_grid("ring_snooping", ring, inputs, [1.0], BENCH.RING_AXES)
    assert calls == {"apply": 2_250, "config": 2_250, "layout": 750}
