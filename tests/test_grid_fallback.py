"""Graceful degradation when NumPy is unavailable.

The ``no_numpy`` fixture blocks ``import numpy`` (a ``None`` entry in
``sys.modules``), so the scalar-only environment (the CI leg
installing with ``--no-deps``) can be rehearsed anywhere.  The
contract: every grid entry point raises a clear ImportError, every
scalar path keeps working, and the opt-in layers (sweeps, bench, CLI,
sensitivity) fall back or fail fast instead of crashing mid-run.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.config import Protocol, SystemConfig
from repro.models import grid as grid_engine
from tests.test_models import make_inputs


@pytest.fixture
def no_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)


class _FakeResult:
    """Stands in for a SimulationResult where only .inputs is used."""

    def __init__(self, inputs):
        self.inputs = inputs


def test_grid_engine_reports_unavailable(no_numpy):
    assert not grid_engine.grid_available()
    with pytest.raises(ImportError, match="needs numpy"):
        grid_engine.require_numpy()


def test_grid_constructors_raise_import_error(no_numpy):
    config = SystemConfig(num_processors=4)
    inputs = make_inputs(Protocol.SNOOPING, 4)
    with pytest.raises(ImportError):
        grid_engine.ModelGrid.from_points(
            "ring_snooping", [(config, inputs, 5_000)]
        )
    with pytest.raises(ImportError):
        grid_engine.ModelGrid.from_product("ring_snooping", config, inputs)


def test_sweep_from_result_falls_back_and_fails_fast(no_numpy):
    from repro.core.hybrid import surface_from_result, sweep_from_result
    from repro.core.sweep import design_surface

    inputs = make_inputs(Protocol.SNOOPING, 4)
    simulated = _FakeResult(inputs)

    # A curve runs on the scalar models, which need no NumPy.
    sweep = sweep_from_result(
        simulated, 4, Protocol.SNOOPING, cycles_ns=[10.0, 20.0]
    )
    assert len(sweep.points) == 2
    # A surface needs the grid: a clear error, not a crash later, and
    # design_surface raises it before running its extraction.
    with pytest.raises(ImportError):
        surface_from_result(simulated, 4, Protocol.SNOOPING, cycles_ns=[10.0])
    with pytest.raises(ImportError, match="needs numpy"):
        design_surface("no-such-benchmark", 4)


def test_lazy_package_exports_resolve_without_numpy(no_numpy):
    import repro.models

    # The package import graph never touches NumPy; the lazy grid
    # re-exports resolve (grid_available is callable anywhere) and
    # unknown names still fail normally.
    assert repro.models.grid_available() is False
    assert repro.models.GRID_STATS is grid_engine.GRID_STATS
    with pytest.raises(AttributeError):
        repro.models.not_a_model


def test_bench_suite_omits_grid_workload(no_numpy):
    from repro.perf import bench

    report = bench.run_suite("models", quick=True)
    names = [workload.name for workload in report.workloads]
    assert "grid.solve" not in names
    assert "sweep.snooping" in names

    # A baseline recorded *with* NumPy still gates cleanly: the grid
    # workload is the one legitimate skip, everything else compares.
    with_grid = bench.BenchReport(
        suite="models", mode="quick", workloads=list(report.workloads)
    )
    with_grid.workloads.append(
        bench.WorkloadResult(
            name="grid.solve",
            wall_s=0.01,
            counters={"grid_evals": 100},
            gate=("grid_evals",),
        )
    )
    assert bench.check_against_baseline(
        report, with_grid.to_jsonable()
    ) == []


def test_cli_grid_command_degrades_with_exit_code(no_numpy, capsys):
    from repro.cli import main

    assert main(["grid", "mp3d"]) == 2
    assert "grid engine unavailable" in capsys.readouterr().err


def test_model_sensitivity_sweep_uses_scalar_path(no_numpy):
    from repro.core.sensitivity import model_sensitivity_sweep

    rows = model_sensitivity_sweep(
        "mp3d",
        4,
        "ring_clock_ps",
        [2_000, 4_000],
        data_refs=600,
    )
    assert len(rows) == 2
    assert rows[1]["miss latency (ns)"] > rows[0]["miss latency (ns)"]
