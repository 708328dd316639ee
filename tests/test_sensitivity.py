"""Tests for parameter-sensitivity sweeps."""

import pytest

from repro.core.config import Protocol, SystemConfig
from repro.core.sensitivity import (
    SUPPORTED_PARAMETERS,
    apply_parameter,
    model_sensitivity_sweep,
    sensitivity_sweep,
)


def test_supported_parameter_names():
    assert set(SUPPORTED_PARAMETERS) == {
        "cache_size_bytes",
        "memory_access_ps",
        "ring_width_bits",
        "ring_clock_ps",
        "block_size",
        "num_processors",
        "bus_clock_ps",
        "cache_response_ps",
        "directory_lookup_ps",
    }


def test_apply_parameter_returns_modified_copy():
    base = SystemConfig(num_processors=4)
    changed = apply_parameter(base, "cache_size_bytes", 32 * 1024)
    assert changed.cache.size_bytes == 32 * 1024
    assert base.cache.size_bytes == 128 * 1024  # original untouched
    assert apply_parameter(base, "ring_width_bits", 64).ring.width_bits == 64
    assert (
        apply_parameter(base, "memory_access_ps", 70_000).memory.access_ps
        == 70_000
    )
    assert apply_parameter(base, "block_size", 32).cache.block_size == 32


def test_every_parameter_sets_its_declared_path():
    base = SystemConfig(num_processors=4)
    for parameter, (part, name) in SUPPORTED_PARAMETERS.items():

        def read(config):
            owner = config if part is None else getattr(config, part)
            return getattr(owner, name)

        changed = apply_parameter(base, parameter, 48)
        assert read(changed) == 48, parameter
        # Setting the old value back gives the base: nothing else moved.
        assert apply_parameter(changed, parameter, read(base)) == base


def test_unknown_parameter_lists_options():
    with pytest.raises(KeyError) as excinfo:
        apply_parameter(SystemConfig(num_processors=4), "nonsense", 1)
    assert "cache_size_bytes" in str(excinfo.value)


def test_cache_size_sweep_is_flat_by_construction():
    """Known workload-model property: miss rates are episode-length
    driven (calibrated to Table 2), so cache capacity barely binds --
    the sweep must be near-flat, never wildly non-monotone."""
    rows = sensitivity_sweep(
        "mp3d",
        4,
        "cache_size_bytes",
        [8 * 1024, 128 * 1024],
        data_refs=1_500,
    )
    assert len(rows) == 2
    small, large = rows
    assert small["total miss %"] == pytest.approx(
        large["total miss %"], rel=0.05
    )


def test_memory_latency_sweep_moves_miss_latency():
    rows = sensitivity_sweep(
        "mp3d",
        4,
        "memory_access_ps",
        [70_000, 280_000],
        data_refs=1_200,
    )
    fast, slow = rows
    assert slow["miss latency (ns)"] > fast["miss latency (ns)"]
    assert slow["proc util"] < fast["proc util"]


def test_ring_width_sweep_lowers_utilization():
    rows = sensitivity_sweep(
        "mp3d",
        4,
        "ring_width_bits",
        [16, 64],
        data_refs=1_200,
    )
    narrow, wide = rows
    assert wide["net util"] < narrow["net util"]


def test_model_layer_parameter_setters_modify_the_right_field():
    base = SystemConfig(num_processors=4)
    assert apply_parameter(base, "num_processors", 16).num_processors == 16
    assert apply_parameter(base, "bus_clock_ps", 5_000).bus.clock_ps == 5_000
    assert (
        apply_parameter(
            base, "cache_response_ps", 90_000
        ).memory.cache_response_ps
        == 90_000
    )
    assert (
        apply_parameter(
            base, "directory_lookup_ps", 8_000
        ).memory.directory_lookup_ps
        == 8_000
    )
    assert base.num_processors == 4  # original untouched


def test_model_sensitivity_sweep_resolves_values_from_one_extraction():
    rows = model_sensitivity_sweep(
        "mp3d",
        4,
        "memory_access_ps",
        [70_000, 280_000],
        data_refs=1_200,
    )
    fast, slow = rows
    assert slow["miss latency (ns)"] > fast["miss latency (ns)"]
    assert slow["proc util"] < fast["proc util"]
    # The analytic axis can move parameters a re-simulation also
    # supports, at a fraction of the cost, from the same extraction.
    sizes = model_sensitivity_sweep(
        "mp3d",
        4,
        "num_processors",
        [4, 32],
        data_refs=1_200,
    )
    assert sizes[1]["net util"] > sizes[0]["net util"]
