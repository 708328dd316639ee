"""Scale acceptance for the grid engine: 10^5 points in one pass.

The engine's reason to exist is paper-scale design surfaces; this test
pins the headline: build + solve a 100,000-point snooping-ring grid in
under five seconds of wall clock, with every point converged and the
warm-start chains still matching the scalar oracle (sampled -- the
exhaustive check lives in test_grid_models.py at smaller scale).
"""

from __future__ import annotations

import importlib.util
import pathlib
import time
from dataclasses import replace

from repro.core.config import Protocol, SystemConfig
from repro.models import grid as grid_engine
from repro.models.ring_snooping import SnoopingRingModel


def _make_inputs():
    spec = importlib.util.spec_from_file_location(
        "grid_oracle", pathlib.Path(__file__).parent / "test_grid_models.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._make_inputs, module._assert_matches


def test_hundred_thousand_point_surface_under_five_seconds():
    make_inputs, assert_matches = _make_inputs()
    protocol = Protocol.SNOOPING
    config = SystemConfig(num_processors=16, protocol=protocol)
    inputs = make_inputs(protocol, 16)
    clocks = list(range(1_000, 11_000, 100))  # 100 ring clocks
    accesses = list(range(60_000, 310_000, 5_000))  # 50 memory speeds
    cycles = [float(c) for c in range(1, 21)]  # the paper's 20-point axis

    started = time.perf_counter()
    grid = grid_engine.ModelGrid.from_product(
        "ring_snooping",
        config,
        inputs,
        cycles_ns=cycles,
        parameters={
            "ring_clock_ps": clocks,
            "memory_access_ps": accesses,
        },
    )
    solution = grid_engine.solve_grid(grid)
    wall_s = time.perf_counter() - started

    assert solution.size == len(clocks) * len(accesses) * len(cycles)
    assert solution.size == 100_000
    assert solution.n_converged == solution.size
    assert solution.n_failed == 0
    assert wall_s < 5.0, (
        f"100k-point grid took {wall_s:.2f}s (budget 5s)"
    )

    # Sample three warm-start chains across the surface and hold them
    # to the scalar oracle (the chains warm-start identically, so the
    # match is exact, well inside the 1e-9 contract).
    n_cycles = len(cycles)
    for chain in (0, solution.size // n_cycles // 2,
                  solution.size // n_cycles - 1):
        clock_ps = clocks[chain // len(accesses)]
        access_ps = accesses[chain % len(accesses)]
        variant = replace(
            config,
            ring=replace(config.ring, clock_ps=clock_ps),
            memory=replace(config.memory, access_ps=access_ps),
        )
        oracle = SnoopingRingModel(variant, inputs).sweep(cycles)
        for position, point in enumerate(oracle.points):
            assert_matches(
                solution.operating_point(chain * n_cycles + position),
                point,
                where=f"chain {chain} position {position}",
            )
