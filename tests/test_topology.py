"""Unit and property tests for ring topology."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ring.slots import FrameLayout
from repro.ring.topology import STAGES_PER_NODE, RingTopology


def baseline(num_nodes: int) -> RingTopology:
    return RingTopology.for_layout(num_nodes, FrameLayout())


def test_paper_eight_node_geometry():
    """Section 4.2: 24 raw stages + 6 padding = 30 stages = 3 frames;
    pure round trip 60 ns at 500 MHz."""
    topology = baseline(8)
    assert topology.raw_stages == 24
    assert topology.total_stages == 30
    assert topology.num_frames == 3
    assert topology.padding_stages == 6
    assert topology.round_trip_cycles() * 2 == 60  # ns at 2 ns/cycle


def test_stages_always_whole_frames():
    for nodes in (2, 3, 5, 8, 16, 31, 64):
        topology = baseline(nodes)
        assert topology.total_stages % topology.frame_stages == 0
        assert topology.total_stages >= nodes * STAGES_PER_NODE


def test_node_stage_positions():
    topology = baseline(8)
    assert [topology.node_stage(i) for i in range(8)] == [
        0, 3, 6, 9, 12, 15, 18, 21
    ]


def test_distance_forward_only():
    topology = baseline(8)
    assert topology.distance(0, 1) == 3
    assert topology.distance(1, 0) == 27  # the long way round
    assert topology.distance(2, 6) == 12


def test_distance_self_is_full_ring():
    topology = baseline(8)
    assert topology.distance(3, 3) == topology.total_stages


def test_distance_closes_the_ring():
    topology = baseline(8)
    for a in range(8):
        for b in range(8):
            if a != b:
                assert (
                    topology.distance(a, b) + topology.distance(b, a)
                    == topology.total_stages
                )


def test_is_on_path():
    topology = baseline(8)
    assert topology.is_on_path(0, 2, 5)
    assert not topology.is_on_path(0, 6, 5)
    assert not topology.is_on_path(0, 0, 5)
    assert not topology.is_on_path(0, 5, 5)
    # Wrapping path: 6 -> 1 passes through 0.
    assert topology.is_on_path(6, 0, 1)


def test_node_bounds_checked():
    topology = baseline(4)
    with pytest.raises(ValueError):
        topology.node_stage(4)
    with pytest.raises(ValueError):
        topology.distance(0, 4)
    with pytest.raises(ValueError):
        topology.distance(-1, 0)


@pytest.mark.parametrize("nodes", [2, 3, 8, 17, 64])
def test_distance_table_matches_arithmetic(nodes):
    """The precomputed tables agree with the stage arithmetic for
    every node pair, and negative nodes do not index from the end."""
    for layout in (FrameLayout(), FrameLayout(width_bits=16, block_size=128)):
        topology = RingTopology.for_layout(nodes, layout)
        total = topology.total_stages
        for src in range(nodes):
            assert topology.node_stage(src) == src * STAGES_PER_NODE
            for dst in range(nodes):
                gap = (dst - src) * STAGES_PER_NODE % total
                assert topology.distance(src, dst) == (gap or total)
        for bad in (-nodes, -1, nodes, nodes + 1):
            with pytest.raises(ValueError):
                topology.node_stage(bad)
            with pytest.raises(ValueError):
                topology.distance(bad, 0)
            with pytest.raises(ValueError):
                topology.distance(0, bad)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        RingTopology(num_nodes=1, frame_stages=10)


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        RingTopology(num_nodes=4, frame_stages=0)
    with pytest.raises(ValueError):
        RingTopology(num_nodes=4, frame_stages=10, stages_per_node=0)


@given(st.integers(2, 64))
def test_ring_size_grows_with_nodes(nodes):
    topology = baseline(nodes)
    assert topology.total_stages >= 3 * nodes
    assert topology.total_stages < 3 * nodes + topology.frame_stages


@given(
    nodes=st.integers(2, 32),
    a=st.integers(0, 31),
    b=st.integers(0, 31),
    c=st.integers(0, 31),
)
def test_triangle_closure(nodes, a, b, c):
    """Any closed three-hop circuit wraps the ring an integer number
    of times -- the property the directory protocol's traversal
    classification relies on."""
    a, b, c = a % nodes, b % nodes, c % nodes
    if len({a, b, c}) != 3:
        return
    topology = baseline(nodes)
    total = (
        topology.distance(a, b)
        + topology.distance(b, c)
        + topology.distance(c, a)
    )
    assert total % topology.total_stages == 0
    assert total in (topology.total_stages, 2 * topology.total_stages)
