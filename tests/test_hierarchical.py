"""Protocol tests for the hierarchical (two-level) ring engine."""

import pytest
from dataclasses import replace

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import build_engine, run_simulation
from repro.memory.states import CacheState
from repro.sim.kernel import Simulator
from tests.conftest import make_engine, run_reference


def make_hier(num_processors=8, clusters=2):
    sim = Simulator()
    base = SystemConfig(
        num_processors=num_processors, protocol=Protocol.HIERARCHICAL
    )
    config = replace(base, ring=replace(base.ring, clusters=clusters))
    return sim, build_engine(sim, config)


def find_address(engine, predicate, start=0):
    for index in range(start, start + 50_000):
        address = engine.address_map.shared_block_address(index)
        if predicate(address):
            return address
    raise AssertionError("no matching shared block found")


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_geometry():
    _, engine = make_hier(8, 2)
    assert engine.per_cluster == 4
    assert engine.cluster_of(0) == 0
    assert engine.cluster_of(7) == 1
    assert engine.local_position(5) == 1
    assert engine.iri_position == 4
    # Local rings carry nodes + IRI; global ring carries the IRIs.
    local_rings, global_ring = engine.rings[:2], engine.rings[2]
    assert len(engine.rings) == 3
    assert all(ring.topology is engine.topology for ring in local_rings)
    assert engine.topology.num_nodes == 5
    assert global_ring.topology.num_nodes == 2


def _drive_mixed_traffic(sim, engine):
    """Reads then writes to a few shared blocks from every node."""
    for index in range(4):
        address = engine.address_map.shared_block_address(index)
        for node in range(engine.num_nodes):
            run_reference(sim, engine, node, address, False)
        run_reference(sim, engine, index, address, True)
    sim.run()
    return sim.now


@pytest.mark.parametrize(
    "protocol",
    [Protocol.SNOOPING, Protocol.DIRECTORY, Protocol.LINKED_LIST],
)
def test_flat_network_utilization_is_its_ring_s(protocol):
    sim, engine = make_engine(protocol, num_processors=8)
    elapsed = _drive_mixed_traffic(sim, engine)
    (ring,) = engine.rings
    utilization = engine.network_utilization(elapsed)
    assert utilization > 0
    assert utilization == ring.aggregate_utilization(elapsed)


def test_network_utilization_is_plain_mean_over_rings():
    """Every local ring and the global ring count once, whatever
    their stage counts: today's arithmetic, pinned bit for bit."""
    sim, engine = make_hier(8, 2)
    elapsed = _drive_mixed_traffic(sim, engine)
    values = [ring.aggregate_utilization(elapsed) for ring in engine.rings]
    assert len(values) == engine.clusters + 1
    assert all(values)
    assert engine.network_utilization(elapsed) == sum(values) / len(values)


def test_uneven_clusters_rejected():
    with pytest.raises(ValueError):
        make_hier(num_processors=8, clusters=3)


def test_single_cluster_rejected():
    with pytest.raises(ValueError):
        make_hier(num_processors=8, clusters=1)


# ----------------------------------------------------------------------
# Coherence behaviour
# ----------------------------------------------------------------------
def test_cold_read_and_write(setup=None):
    sim, engine = make_hier()
    address = engine.address_map.shared_block_address(0)
    run_reference(sim, engine, 0, address, False)
    assert engine.caches[0].state_of(address) is CacheState.RS
    run_reference(sim, engine, 0, address, True)
    assert engine.caches[0].state_of(address) is CacheState.WE
    engine.check_invariants()


def test_cross_cluster_write_invalidates_everywhere():
    sim, engine = make_hier(8, 2)
    address = engine.address_map.shared_block_address(0)
    for node in (0, 3, 4, 7):  # readers in both clusters
        run_reference(sim, engine, node, address, False)
    run_reference(sim, engine, 1, address, True)
    sim.run()
    for node in (0, 3, 4, 7):
        assert engine.caches[node].state_of(address) is CacheState.INV
    assert engine.caches[1].state_of(address) is CacheState.WE
    engine.check_invariants()


def test_cross_cluster_dirty_read_downgrades():
    sim, engine = make_hier(8, 2)
    address = engine.address_map.shared_block_address(0)
    run_reference(sim, engine, 0, address, True)  # cluster 0 owns
    run_reference(sim, engine, 6, address, False)  # cluster 1 reads
    sim.run()
    assert engine.caches[0].state_of(address) is CacheState.RS
    assert engine.caches[6].state_of(address) is CacheState.RS
    block = engine.address_map.block_of(address)
    assert block not in engine.dirty_owners
    engine.check_invariants()


def test_local_transaction_cheaper_than_remote():
    sim, engine = make_hier(8, 2)
    # A block homed at node 1 (cluster 0): local for node 0, remote
    # for node 4.
    address = find_address(
        engine,
        lambda a: engine.address_map.home_of(a) == 1,
    )
    local_latency = run_reference(sim, engine, 0, address, False)

    sim2, engine2 = make_hier(8, 2)
    remote_latency = run_reference(sim2, engine2, 4, address, False)
    assert local_latency < remote_latency


def test_locality_counters():
    sim, engine = make_hier(8, 2)
    address_local = find_address(
        engine, lambda a: engine.address_map.home_of(a) == 1
    )
    address_remote = find_address(
        engine, lambda a: engine.cluster_of(engine.address_map.home_of(a)) == 1
    )
    run_reference(sim, engine, 0, address_local, False)
    run_reference(sim, engine, 0, address_remote, False)
    assert engine.local_transactions == 1
    assert engine.global_transactions == 1
    assert engine.locality_fraction == pytest.approx(0.5)


def test_cross_cluster_writeback_round_trip():
    sim, engine = make_hier(8, 2)
    num_lines = engine.caches[0].num_lines
    address = find_address(
        engine, lambda a: engine.cluster_of(engine.address_map.home_of(a)) == 1
    )
    conflict_index = (
        engine.address_map.block_of(address)
        - engine.address_map.block_of(engine.address_map.shared_block_address(0))
        + num_lines
    )
    conflict = engine.address_map.shared_block_address(conflict_index)
    run_reference(sim, engine, 0, address, True)
    run_reference(sim, engine, 0, conflict, False)
    sim.run()
    block = engine.address_map.block_of(address)
    assert block not in engine.dirty_owners
    engine.check_invariants()


def test_full_simulation_smoke_and_invariants():
    result = run_simulation(
        "mp3d", num_processors=8, protocol=Protocol.HIERARCHICAL,
        data_refs=1_000,
    )
    assert 0.0 < result.processor_utilization <= 1.0
    assert result.shared_miss_latency_ns > 0.0


def test_hierarchy_beats_flat_ring_at_64p():
    """The reason the KSR1/Hector hierarchies were built: shorter
    segments cut latency even for uniform traffic."""
    flat = run_simulation(
        "fft", num_processors=64, protocol=Protocol.SNOOPING,
        data_refs=1_200,
    )
    base = SystemConfig(num_processors=64, protocol=Protocol.HIERARCHICAL)
    config = replace(base, ring=replace(base.ring, clusters=8))
    hierarchical = run_simulation(
        "fft", config=config, data_refs=1_200, num_processors=64
    )
    assert (
        hierarchical.shared_miss_latency_ns < flat.shared_miss_latency_ns
    )
    assert (
        hierarchical.processor_utilization
        >= flat.processor_utilization - 0.01
    )
