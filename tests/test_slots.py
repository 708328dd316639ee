"""Unit and property tests for slot/frame geometry (incl. Table 3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.models.snoop_rate import (
    PAPER_TABLE3,
    TABLE3_BLOCK_SIZES,
    TABLE3_WIDTHS,
    snoop_interarrival_ns,
    snoop_rate_table,
)
from repro.ring.slots import (
    BLOCK_HEADER_BYTES,
    PROBE_PAYLOAD_BYTES,
    FrameLayout,
    SlotType,
    stages_for_bytes,
)


def test_stages_for_bytes_examples():
    assert stages_for_bytes(8, 32) == 2
    assert stages_for_bytes(8, 64) == 1
    assert stages_for_bytes(8, 16) == 4
    assert stages_for_bytes(24, 32) == 6
    assert stages_for_bytes(1, 32) == 1


def test_stages_for_bytes_rejects_bad_inputs():
    with pytest.raises(ValueError):
        stages_for_bytes(0, 32)
    with pytest.raises(ValueError):
        stages_for_bytes(8, 0)
    with pytest.raises(ValueError):
        stages_for_bytes(8, 12)  # not a byte multiple


def test_paper_baseline_frame_is_ten_stages():
    """Section 3.3: 'a frame composed of two probe slots and one block
    slot occupies 10 pipeline stages' (32-bit ring, 16-byte blocks)."""
    layout = FrameLayout(width_bits=32, block_size=16)
    assert layout.probe_stages == 2
    assert layout.block_stages == 6
    assert layout.frame_stages == 10


def test_slot_offsets_layout():
    layout = FrameLayout(width_bits=32, block_size=16)
    offsets = layout.slot_offsets()
    assert offsets == [
        (SlotType.PROBE_EVEN, 0),
        (SlotType.PROBE_ODD, 2),
        (SlotType.BLOCK, 4),
    ]


def test_slot_offsets_wider_mix():
    layout = FrameLayout(width_bits=32, block_size=16, probe_slots=4, block_slots=2)
    offsets = layout.slot_offsets()
    types = [slot_type for slot_type, _ in offsets]
    assert types == [
        SlotType.PROBE_EVEN,
        SlotType.PROBE_ODD,
        SlotType.PROBE_EVEN,
        SlotType.PROBE_ODD,
        SlotType.BLOCK,
        SlotType.BLOCK,
    ]
    positions = [offset for _, offset in offsets]
    assert positions == sorted(positions)
    assert layout.frame_stages == 4 * 2 + 2 * 6


def test_probe_parity_selection():
    layout = FrameLayout()
    assert layout.probe_type_for_parity(0) is SlotType.PROBE_EVEN
    assert layout.probe_type_for_parity(1) is SlotType.PROBE_ODD


def test_stages_of():
    layout = FrameLayout(width_bits=32, block_size=16)
    assert layout.stages_of(SlotType.PROBE_EVEN) == 2
    assert layout.stages_of(SlotType.PROBE_ODD) == 2
    assert layout.stages_of(SlotType.BLOCK) == 6


def test_is_probe_property():
    assert SlotType.PROBE_EVEN.is_probe
    assert SlotType.PROBE_ODD.is_probe
    assert not SlotType.BLOCK.is_probe


def test_slot_type_index_is_dense():
    """Scheduler per-type state is a list indexed by ``SlotType.index``."""
    assert [slot_type.index for slot_type in SlotType] == list(
        range(len(SlotType))
    )


def test_odd_probe_slots_rejected():
    with pytest.raises(ValueError):
        FrameLayout(probe_slots=3)


def test_zero_slots_rejected():
    with pytest.raises(ValueError):
        FrameLayout(probe_slots=0)
    with pytest.raises(ValueError):
        FrameLayout(block_slots=0)


def test_payload_constants():
    assert PROBE_PAYLOAD_BYTES == 8
    assert BLOCK_HEADER_BYTES == 8


# ----------------------------------------------------------------------
# Table 3: snooping rate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block_size", TABLE3_BLOCK_SIZES)
@pytest.mark.parametrize("width", TABLE3_WIDTHS)
def test_table3_exact_reproduction(width, block_size):
    """Every cell of the paper's Table 3 is reproduced exactly."""
    assert snoop_interarrival_ns(width, block_size) == pytest.approx(
        PAPER_TABLE3[(block_size, width)]
    )


def test_snoop_rate_table_shape():
    rows = snoop_rate_table()
    assert len(rows) == len(TABLE3_BLOCK_SIZES)
    for row in rows:
        assert set(row) == {"block size (bytes)", "16-bit", "32-bit", "64-bit"}


def test_snoop_rate_scales_with_clock():
    assert snoop_interarrival_ns(32, 16, clock_ps=4_000) == 40.0


@given(
    width=st.sampled_from([16, 32, 64, 128]),
    block=st.sampled_from([16, 32, 64, 128, 256]),
)
def test_frame_geometry_invariants(width, block):
    layout = FrameLayout(width_bits=width, block_size=block)
    # A block slot always outweighs a probe slot (it carries the block
    # on top of a probe-sized header).
    assert layout.block_stages > layout.probe_stages
    assert layout.frame_stages == 2 * layout.probe_stages + layout.block_stages
    # Byte accounting: stages never waste more than one link width.
    assert layout.probe_stages * width >= PROBE_PAYLOAD_BYTES * 8
    assert (layout.probe_stages - 1) * width < PROBE_PAYLOAD_BYTES * 8


@given(st.integers(1, 1_000), st.sampled_from([8, 16, 32, 64, 128]))
def test_stages_for_bytes_is_ceiling(payload, width):
    stages = stages_for_bytes(payload, width)
    assert stages * width >= payload * 8
    assert (stages - 1) * width < payload * 8
