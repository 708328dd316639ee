"""Tests for the hybrid methodology layer (simulate once, model many)."""

import pytest

from repro.core.config import Protocol
from repro.core.experiment import clear_simulation_cache
from repro.core.hybrid import (
    extraction_point,
    hybrid_sweep,
    sweep_from_result,
    validate_model,
)
from repro.core.sweep import (
    miss_breakdown,
    ring_vs_bus,
    snooping_vs_directory,
)

REFS = 1_500


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_simulation_cache()
    yield
    clear_simulation_cache()


def test_hybrid_sweep_covers_paper_axis():
    sweep = hybrid_sweep("mp3d", 4, Protocol.SNOOPING, data_refs=REFS)
    assert sweep.cycles_ns() == [float(c) for c in range(1, 21)]
    assert all(0.0 < p.processor_utilization <= 1.0 for p in sweep.points)


def test_hybrid_sweep_monotone_utilization():
    sweep = hybrid_sweep("mp3d", 4, Protocol.SNOOPING, data_refs=REFS)
    utilization = sweep.series("processor_utilization")
    # Slower processors (larger cycles) always utilise better.
    assert all(b >= a for a, b in zip(utilization, utilization[1:]))


def test_bus_sweep_uses_snooping_extraction():
    point = extraction_point("mp3d", 4, Protocol.BUS, data_refs=REFS)
    assert point.protocol is Protocol.SNOOPING
    sweep = hybrid_sweep("mp3d", 4, Protocol.BUS, data_refs=REFS)
    assert sweep.protocol is Protocol.BUS  # the curve names its own model
    assert "bus" in sweep.label


def test_bus_curve_names_bus_protocol_on_both_solvers():
    """Snooping-extracted inputs feed the bus model on both solvers: the
    scalar curve says ``bus``, and the grid surface solves the ``bus``
    family to the same points."""
    from repro.core.hybrid import surface_from_result
    from tests.test_models import make_inputs

    class Extraction:
        inputs = make_inputs(Protocol.SNOOPING, 4)

    cycles = [5.0, 10.0]
    sweep = sweep_from_result(Extraction(), 4, Protocol.BUS, cycles_ns=cycles)
    assert sweep.protocol is Protocol.BUS
    assert sweep.label == "bus 50 MHz"
    surface = surface_from_result(Extraction(), 4, Protocol.BUS, cycles_ns=cycles)
    assert surface.grid.family == "bus"
    assert surface.operating_points() == sweep.points


def test_snooping_vs_directory_pair():
    snoop, directory = snooping_vs_directory("mp3d", 4, data_refs=REFS)
    assert "snooping" in snoop.label
    assert "directory" in directory.label
    # The paper's headline: snooping at least matches directory for
    # MP3D at every operating point.
    for s, d in zip(
        snoop.series("processor_utilization"),
        directory.series("processor_utilization"),
    ):
        assert s >= d - 0.02


def test_ring_vs_bus_family():
    sweeps = ring_vs_bus("mp3d", 4, data_refs=REFS)
    labels = [sweep.label for sweep in sweeps]
    assert labels == [
        "snooping ring 500 MHz",
        "snooping ring 250 MHz",
        "bus 100 MHz",
        "bus 50 MHz",
    ]
    fast_ring = sweeps[0].at_cycle(1.0).processor_utilization
    slow_bus = sweeps[3].at_cycle(1.0).processor_utilization
    assert fast_ring > slow_bus  # rings win with fast processors


def test_faster_ring_beats_slower_ring():
    sweeps = ring_vs_bus("mp3d", 4, data_refs=REFS)
    ring500, ring250 = sweeps[0], sweeps[1]
    assert (
        ring500.at_cycle(2.0).processor_utilization
        >= ring250.at_cycle(2.0).processor_utilization
    )


def test_miss_breakdown_sums_to_100():
    breakdown = miss_breakdown([("mp3d", 4)], data_refs=REFS)
    row = breakdown["mp3d4"]
    assert set(row) == {"1-cycle clean", "1-cycle dirty", "2-cycle"}
    assert sum(row.values()) == pytest.approx(100.0, abs=0.01)


def test_validation_within_paper_tolerances():
    """The paper: within 15% for latencies, 5 points for utilisations."""
    report = validate_model("mp3d", 4, Protocol.SNOOPING, data_refs=REFS)
    assert report.utilization_error < 0.05
    assert report.network_error < 0.05
    assert report.latency_error_percent < 15.0


def test_validation_directory_protocol():
    report = validate_model("mp3d", 4, Protocol.DIRECTORY, data_refs=REFS)
    assert report.utilization_error < 0.05
    assert report.latency_error_percent < 15.0
