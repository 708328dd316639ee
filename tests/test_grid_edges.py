"""Convergence-mask edge cases for the grid engine.

The masked solver's one job beyond speed: a lane that cannot converge
must end as an isolated NaN (counted in ``points_failed``) without
perturbing any other lane -- neighbours still match the scalar oracle
bit for bit, and warm-start chains reseed past a failed column instead
of propagating the poison.
"""

from __future__ import annotations

import importlib.util
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.models import grid as grid_engine
from repro.models.base import FixedPointDiverged
from repro.models.ring_snooping import SnoopingRingModel


def _oracle_helpers():
    """Load test_grid_models.py for its shared oracle helpers (the
    tests directory is not an importable package)."""
    spec = importlib.util.spec_from_file_location(
        "grid_oracle", pathlib.Path(__file__).parent / "test_grid_models.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_helpers = _oracle_helpers()
_assert_matches = _helpers._assert_matches
_make_inputs = _helpers._make_inputs

PROTOCOL = Protocol.SNOOPING


def _poisoned_inputs(value: float):
    inputs = _make_inputs(PROTOCOL, 8)
    f_miss = dict(inputs.f_miss)
    f_miss[MissClass.REMOTE_CLEAN] = value
    return replace(inputs, f_miss=f_miss)


def test_nan_input_fails_fast_without_poisoning_neighbours():
    config = SystemConfig(num_processors=8, protocol=PROTOCOL)
    good = _make_inputs(PROTOCOL, 8)
    points = [
        (config, good, 5_000),
        (config, _poisoned_inputs(float("nan")), 5_000),
        (config, good, 20_000),
    ]
    grid_engine.reset_grid_stats()
    solution = grid_engine.solve_grid(
        grid_engine.ModelGrid.from_points("ring_snooping", points)
    )

    assert list(solution.failed) == [False, True, False]
    assert list(solution.converged) == [True, False, True]
    assert grid_engine.GRID_STATS["points_failed"] == 1
    assert grid_engine.GRID_STATS["points_converged"] == 2

    # Every metric of the failed lane is NaN -- no half-populated rows.
    broken = solution.operating_point(1)
    for name in (
        "processor_utilization",
        "network_utilization",
        "shared_miss_latency_ns",
        "upgrade_latency_ns",
        "time_per_instruction_ps",
    ):
        assert math.isnan(getattr(broken, name)), name

    # The neighbours still match the scalar oracle exactly.
    model = SnoopingRingModel(config, good)
    _assert_matches(solution.operating_point(0), model.solve(5_000))
    _assert_matches(solution.operating_point(2), model.solve(20_000))


def test_divergent_lane_is_isolated_where_scalar_raises():
    """Documented deviation: an un-bracketable lane (here an infinite
    miss frequency, so the residual never goes negative) makes the
    scalar solver raise FixedPointDiverged; the grid marks just that
    lane failed so the other 10^5-1 points still solve."""
    config = SystemConfig(num_processors=8, protocol=PROTOCOL)
    good = _make_inputs(PROTOCOL, 8)
    divergent = _poisoned_inputs(float("inf"))

    with pytest.raises(FixedPointDiverged):
        SnoopingRingModel(config, divergent).solve(5_000)

    solution = grid_engine.solve_grid(
        grid_engine.ModelGrid.from_points(
            "ring_snooping",
            [(config, good, 5_000), (config, divergent, 5_000)],
        )
    )
    assert list(solution.failed) == [False, True]
    assert math.isnan(float(solution.time_per_instruction_ps[1]))
    _assert_matches(
        solution.operating_point(0),
        SnoopingRingModel(config, good).solve(5_000),
    )


def test_poisoned_chain_column_reseeds_later_positions():
    """A failed first column must not drag its warm-start chain down:
    the next column reseeds from the default bracket (exactly a cold
    scalar solve) and the chain then warm-starts normally, while the
    sibling chain is untouched end to end."""
    config = SystemConfig(num_processors=8, protocol=PROTOCOL)
    inputs = _make_inputs(PROTOCOL, 8)
    cycles = [2.0, 5.0, 10.0, 20.0]
    clocks = [2_000, 4_000]

    def build():
        return grid_engine.ModelGrid.from_product(
            "ring_snooping",
            config,
            inputs,
            cycles_ns=cycles,
            parameters={"ring_clock_ps": clocks},
        )

    clean = grid_engine.solve_grid(build())
    assert clean.n_failed == 0

    poisoned_grid = build()
    # Lane 0 = (first clock, first cycle): break its chain head.
    poisoned_grid.arrays["f_remote_clean"][0] = float("nan")
    solution = grid_engine.solve_grid(poisoned_grid)

    n_cycles = len(cycles)
    assert solution.n_failed == 1
    assert bool(solution.failed[0])
    assert math.isnan(float(solution.time_per_instruction_ps[0]))

    # Chain 0, later columns: position 1 solves cold (default seed,
    # like scalar solve() with no guess), positions 2+ warm-start from
    # the recovering chain -- replicate that seeding scalar-side.
    chain_config = replace(
        config, ring=replace(config.ring, clock_ps=clocks[0])
    )
    model = SnoopingRingModel(chain_config, inputs)
    guess = None
    for position in range(1, n_cycles):
        oracle = model.solve(
            round(cycles[position] * 1000), initial_guess_ps=guess
        )
        _assert_matches(
            solution.operating_point(position),
            oracle,
            where=f"chain 0 position {position}",
        )
        guess = oracle.time_per_instruction_ps

    # Chain 1 is bit-identical to the unpoisoned solve.
    lanes = slice(n_cycles, 2 * n_cycles)
    assert np.array_equal(
        solution.time_per_instruction_ps[lanes],
        clean.time_per_instruction_ps[lanes],
    )


def test_failed_lanes_keep_counters_deterministic():
    config = SystemConfig(num_processors=8, protocol=PROTOCOL)
    points = [
        (config, _make_inputs(PROTOCOL, 8), 5_000),
        (config, _poisoned_inputs(float("nan")), 5_000),
        (config, _poisoned_inputs(float("inf")), 5_000),
    ]
    grid = grid_engine.ModelGrid.from_points("ring_snooping", points)

    grid_engine.reset_grid_stats()
    first_solution = grid_engine.solve_grid(grid)
    first = dict(grid_engine.GRID_STATS)
    assert first["points_failed"] == 2

    grid_engine.reset_grid_stats()
    second_solution = grid_engine.solve_grid(grid)
    assert dict(grid_engine.GRID_STATS) == first
    assert np.array_equal(
        first_solution.time_per_instruction_ps,
        second_solution.time_per_instruction_ps,
        equal_nan=True,
    )


@pytest.mark.parametrize(
    "parameters",
    [
        {"ring_clock_ps": []},
        {"ring_width_bits": [16, 32], "ring_clock_ps": []},
    ],
)
def test_empty_parameter_axis_is_rejected(parameters):
    # Like an empty point list or cycle axis: an empty axis would make
    # an empty product, which is an error, not a 0-point grid.
    config = SystemConfig(num_processors=8, protocol=PROTOCOL)
    with pytest.raises(ValueError, match="empty parameter axis 'ring_clock_ps'"):
        grid_engine.ModelGrid.from_product(
            "ring_snooping", config, _make_inputs(PROTOCOL, 8), parameters=parameters
        )


def test_constant_columns_solve_as_scalars_bit_for_bit(monkeypatch):
    """A field bitwise-constant over every lane reaches the equations
    as one 0-d float64; any other column -- constant but for one lane,
    one NaN lane, a mix of 0.0 and -0.0 -- stays an array, and results
    and counters equal solving with every column as an array."""
    config = SystemConfig(num_processors=8, protocol=Protocol.DIRECTORY)
    inputs = _make_inputs(Protocol.DIRECTORY, 8, dirty_one=0.003, two_cycle=0.001)
    slower = replace(config, memory=replace(config.memory, access_ps=100_000))
    points = [
        (config, inputs, 2_000),
        (config, inputs, 5_000),
        (slower, inputs, 5_000),
        (config, _poisoned_inputs(float("nan")), 10_000),
        (config, inputs, 20_000),
    ]
    grid = grid_engine.ModelGrid.from_points("ring_directory", points)
    grid.arrays["lookup_ps"][1::2] = -0.0

    seen = []
    solve_flat = grid_engine._solve_flat

    def recording(evaluate, arrays, guess):
        seen.append({name: np.ndim(value) for name, value in arrays.items()})
        return solve_flat(evaluate, arrays, guess)

    monkeypatch.setattr(grid_engine, "_solve_flat", recording)
    grid_engine.reset_grid_stats()
    scalars = grid_engine.solve_grid(grid)
    scalar_stats = dict(grid_engine.GRID_STATS)
    assert seen[0]["clock_ps"] == 0  # constant in every lane
    assert seen[0]["f_private"] == 0
    assert seen[0]["busy_ps"] == 1  # never a scalar
    assert seen[0]["access_ps"] == 1  # constant but for one lane
    assert seen[0]["f_remote_clean"] == 1  # one NaN lane
    assert seen[0]["lookup_ps"] == 1  # 0.0 and -0.0
    assert scalars.n_failed == 1

    monkeypatch.setattr(
        grid_engine, "_split_constants", lambda arrays: ({}, dict(arrays))
    )
    seen.clear()
    grid_engine.reset_grid_stats()
    columns = grid_engine.solve_grid(grid)
    assert set(seen[0].values()) == {1}
    assert dict(grid_engine.GRID_STATS) == scalar_stats
    for name in (
        "time_per_instruction_ps",
        "converged",
        "failed",
        "processor_utilization",
        "network_utilization",
        "bank_utilization",
        "shared_miss_latency_ns",
        "upgrade_latency_ns",
    ):
        assert getattr(scalars, name).tobytes() == getattr(columns, name).tobytes(), name
