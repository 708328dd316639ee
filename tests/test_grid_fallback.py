"""The scalar paths run with NumPy's import blocked.

NumPy is a dependency, but only the grid engine (``repro.models.grid``)
imports it: curves and model sensitivity sweeps solve on the scalar
models.  The ``no_numpy`` fixture blocks ``import numpy`` (a ``None``
entry in ``sys.modules``) in this process and checks those paths keep
working, while a surface, which needs the grid, fails at once with an
ImportError.  ``tests/test_models.py::test_scalar_sweeps_never_import_numpy``
checks the same contract from a fresh interpreter.
"""

from __future__ import annotations

import sys

import pytest

import repro.models
from repro.core.config import Protocol
from tests.test_models import make_inputs


@pytest.fixture
def no_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)


@pytest.fixture
def fresh_grid_engine(monkeypatch):
    """Makes the next ``from repro.models import grid`` load the module
    anew, as in a process that has not imported it yet."""
    monkeypatch.delitem(sys.modules, "repro.models.grid", raising=False)
    monkeypatch.delattr(repro.models, "grid", raising=False)


class _FakeResult:
    """Stands in for a SimulationResult where only .inputs is used."""

    def __init__(self, inputs):
        self.inputs = inputs


def test_sweep_from_result_falls_back_and_fails_fast(no_numpy, fresh_grid_engine):
    from repro.core.hybrid import surface_from_result, sweep_from_result

    inputs = make_inputs(Protocol.SNOOPING, 4)
    simulated = _FakeResult(inputs)

    # A curve runs on the scalar models, which need no NumPy.
    sweep = sweep_from_result(
        simulated, 4, Protocol.SNOOPING, cycles_ns=[10.0, 20.0]
    )
    assert len(sweep.points) == 2
    assert "repro.models.grid" not in sys.modules
    # A surface needs the grid: a clear error on the call, not a crash
    # later.
    with pytest.raises(ImportError):
        surface_from_result(simulated, 4, Protocol.SNOOPING, cycles_ns=[10.0])


def test_model_sensitivity_sweep_uses_scalar_path(no_numpy, fresh_grid_engine):
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
    assert "repro.models.grid" not in sys.modules
