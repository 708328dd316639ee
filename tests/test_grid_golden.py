"""Golden-regression tests for the grid engine.

The committed benchmark artefacts (``benchmarks/output/*.txt``) pin the
exact figures and tables earlier sessions produced with the *scalar*
models.  Regenerating a slice of them through the vectorized engine and
matching the artefacts byte-for-byte (figures) and cell-for-cell
(tables) proves the grid path reproduces the paper pipeline end to end,
not just isolated solves.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
from dataclasses import replace

import pytest

from repro.analysis.figures import render_sweeps
from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import run_simulation_cached
from repro.core.hybrid import extraction_point, surface_from_result
from repro.core.sweep import ring_vs_bus
from repro.models import MODEL_FAMILIES, family_for_protocol
from repro.models import grid as grid_engine
from repro.models.matching import matching_bus_clock_ns

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
OUTPUT_DIR = BENCH_DIR / "output"


def _bench_constants():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", BENCH_DIR / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden(name: str) -> str:
    path = OUTPUT_DIR / f"{name}.txt"
    if not path.exists():
        pytest.skip(f"golden artefact {path} not checked in")
    return path.read_text()


# ----------------------------------------------------------------------
# Figure 6, MP3D-8 panel: grid-rendered charts == committed artefact
# ----------------------------------------------------------------------
def _fig6_curves(processors: int):
    """The four Figure 6 machines, as ``ring_vs_bus`` builds them:
    32-bit rings at 500 and 250 MHz, 64-bit buses at 100 and 50 MHz."""
    curves = []
    for mhz in (500.0, 250.0):
        base = SystemConfig(num_processors=processors, protocol=Protocol.SNOOPING)
        ring = replace(base.ring, clock_ps=round(1e6 / mhz))
        curves.append((Protocol.SNOOPING, replace(base, ring=ring)))
    for mhz in (100.0, 50.0):
        base = SystemConfig(num_processors=processors, protocol=Protocol.BUS)
        bus = replace(base.bus, clock_ps=round(1e6 / mhz))
        curves.append((Protocol.BUS, replace(base, bus=bus)))
    return curves


def test_fig6_mp3d8_grid_render_matches_golden():
    golden = _golden("fig6_ring_vs_bus")
    refs = _bench_constants().REFS_SPLASH
    sweeps = []
    for protocol, config in _fig6_curves(8):
        point = extraction_point("mp3d", 8, protocol, config=config, data_refs=refs)
        simulated = run_simulation_cached(
            "mp3d", 8, point.protocol, data_refs=refs, config=point.config
        )
        # A surface with no parameter axes: one from_product chain.
        solution = surface_from_result(simulated, 8, protocol, config=config)
        assert solution.n_failed == 0
        model = MODEL_FAMILIES[family_for_protocol(protocol)]
        sweeps.append(
            model.curve(config, simulated.inputs, solution.operating_points())
        )
    for metric, label in [
        ("processor_utilization", "processor utilization"),
        ("network_utilization", "network utilization"),
        ("shared_miss_latency_ns", "miss latency (ns)"),
    ]:
        block = render_sweeps(
            sweeps,
            metric,
            title=f"Fig 6 MP3D-8: {label}",
            width=48,
            height=10,
        )
        assert block in golden, (
            f"grid-rendered Fig 6 MP3D-8 {label} chart drifted from the "
            "committed artefact"
        )

    # And pointwise: the grid curves equal the scalar curves exactly
    # (same cached extractions feed both paths).
    scalar = ring_vs_bus("mp3d", 8, data_refs=refs)
    assert len(scalar) == len(sweeps)
    for vector_sweep, scalar_sweep in zip(sweeps, scalar):
        assert vector_sweep.label == scalar_sweep.label
        for ours, oracle in zip(vector_sweep.points, scalar_sweep.points):
            assert ours == oracle, (
                f"{vector_sweep.label} @ {oracle.processor_cycle_ns} ns"
            )


# ----------------------------------------------------------------------
# Table 4, MP3D-8 rows: matching against grid-solved ring targets == artefact
# ----------------------------------------------------------------------
def test_table4_mp3d8_grid_rows_match_golden():
    golden = _golden("table4_matching_bus")
    golden_rows = {}
    for line in golden.splitlines():
        match = re.match(
            r"^\s*mp3d 8\s*\|\s*(\d+) MHz\s*\|\s*([\d./]+)\s*\|", line
        )
        if match:
            golden_rows[int(match.group(1))] = tuple(
                float(cell) for cell in match.group(2).split("/")
            )
    assert set(golden_rows) == {250, 500}, (
        "mp3d 8 rows missing from golden table4 artefact"
    )

    refs = _bench_constants().REFS_SPLASH
    extraction = run_simulation_cached(
        "mp3d", 8, Protocol.SNOOPING, data_refs=refs
    )
    mips_points = (100, 200, 400)
    for ring_mhz, expected in golden_rows.items():
        base = SystemConfig(num_processors=8)
        config = replace(
            base, ring=replace(base.ring, clock_ps=round(1e6 / ring_mhz))
        )
        points = [
            (config, extraction.inputs, round(1e6 / mips))
            for mips in mips_points
        ]
        targets = grid_engine.solve_grid(
            grid_engine.ModelGrid.from_points("ring_snooping", points)
        ).processor_utilization
        clocks = [
            matching_bus_clock_ns(
                config, inputs, cycle_ps, target_utilization=float(target)
            )
            for (_, inputs, cycle_ps), target in zip(points, targets)
        ]
        ours = tuple(round(clock, 1) for clock in clocks)
        assert ours == expected, (
            f"Table 4 mp3d-8 @ ring {ring_mhz} MHz: grid {ours} vs "
            f"golden {expected}"
        )
        # The scalar ring solve gives the same rows, and the two paths
        # agree to full precision, not just at one rendered decimal.
        scalar = [
            matching_bus_clock_ns(config, inputs, cycle_ps)
            for _, inputs, cycle_ps in points
        ]
        assert tuple(round(clock, 1) for clock in scalar) == expected, (
            f"Table 4 mp3d-8 @ ring {ring_mhz} MHz: scalar {scalar} vs "
            f"golden {expected}"
        )
        assert clocks == scalar
