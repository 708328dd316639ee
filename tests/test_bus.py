"""Protocol and timing tests for the split-transaction bus system."""

import pytest

from repro.core.config import Protocol
from repro.core.metrics import MissClass
from repro.memory.states import CacheState
from tests.conftest import make_engine, run_reference
from tests.test_snooping import local_shared_address, remote_shared_address


@pytest.fixture
def setup():
    sim, engine = make_engine(Protocol.BUS)
    return sim, engine


def shared_address(engine, index=0):
    return engine.address_map.shared_block_address(index)


def test_cold_read_installs_rs(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 0, address, False)
    assert engine.caches[0].state_of(address) is CacheState.RS


def test_remote_miss_minimum_six_bus_cycles(setup):
    """Paper section 4.3: a remote miss needs at least six bus cycles
    plus the memory fetch, excluding arbitration."""
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    latency = run_reference(sim, engine, 0, address, False)
    bus_clock = engine.config.bus.clock_ps
    minimum = 6 * bus_clock + engine.config.memory.access_ps
    assert latency >= minimum
    assert latency <= minimum + 4 * bus_clock  # uncontended slack


def test_local_clean_read_skips_bus(setup):
    sim, engine = setup
    node = 1
    address = local_shared_address(engine, node)
    run_reference(sim, engine, node, address, False)
    assert engine.bus.grants == 0
    assert engine.stats.counts_by_class()[MissClass.LOCAL_CLEAN] == 1


def test_remote_miss_uses_two_bus_grants(setup):
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    run_reference(sim, engine, 0, address, False)
    assert engine.bus.grants == 2  # request phase + reply phase


def test_upgrade_uses_single_grant(setup):
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    run_reference(sim, engine, 0, address, False)
    grants_before = engine.bus.grants
    run_reference(sim, engine, 0, address, True)
    assert engine.bus.grants == grants_before + 1
    assert engine.stats.upgrade_latency.count == 1


def test_write_invalidates_sharers_at_request_phase(setup):
    sim, engine = setup
    address = shared_address(engine)
    for node in range(3):
        run_reference(sim, engine, node, address, False)
    run_reference(sim, engine, 3, address, True)
    for node in range(3):
        assert engine.caches[node].state_of(address) is CacheState.INV
    assert engine.caches[3].state_of(address) is CacheState.WE
    engine.check_invariants()


def test_dirty_miss_served_by_owner_cache(setup):
    sim, engine = setup
    address = shared_address(engine)
    run_reference(sim, engine, 1, address, True)
    latency = run_reference(sim, engine, 3, address, False)
    assert engine.stats.counts_by_class()[MissClass.REMOTE_DIRTY] == 1
    assert engine.caches[1].state_of(address) is CacheState.RS
    # Cache response replaces the memory access in the latency.
    assert latency >= 6 * engine.config.bus.clock_ps + engine.config.memory.cache_response_ps


def test_bus_serialises_concurrent_misses(setup):
    """Two simultaneous remote misses cannot overlap their bus phases."""
    sim, engine = setup
    address_a = remote_shared_address(engine, 0)
    address_b = remote_shared_address(
        engine, 1, index_start=1_000
    )
    assert engine.address_map.block_of(address_a) != engine.address_map.block_of(address_b)
    results = {}

    def body(node, address):
        from repro.memory.cache import AccessOutcome

        outcome = engine.caches[node].classify(address, False)
        latency = yield from engine.miss(node, address, outcome)
        results[node] = latency

    sim.spawn(body(0, address_a))
    sim.spawn(body(1, address_b))
    sim.run()
    # Four bus grants total; busy time is the sum of all phases.
    assert engine.bus.grants == 4
    expected_busy = 2 * (
        engine.config.bus.request_cycles + engine.config.bus.reply_cycles
    ) * engine.config.bus.clock_ps
    assert engine.bus.busy_time == expected_busy


def test_writeback_uses_bus(setup):
    sim, engine = setup
    num_lines = engine.caches[0].num_lines
    addr_a = remote_shared_address(engine, 0)
    conflict_index = (
        engine.address_map.block_of(addr_a)
        - engine.address_map.block_of(engine.address_map.shared_block_address(0))
        + num_lines
    )
    addr_b = engine.address_map.shared_block_address(conflict_index)
    run_reference(sim, engine, 0, addr_a, True)
    grants_before = engine.bus.grants
    run_reference(sim, engine, 0, addr_b, False)
    sim.run()
    block_a = engine.address_map.block_of(addr_a)
    assert block_a not in engine.dirty_owners
    assert engine.bus.grants > grants_before


def test_private_traffic_never_touches_bus(setup):
    sim, engine = setup
    address = engine.address_map.private_block_address(2, 9)
    run_reference(sim, engine, 2, address, True)
    run_reference(sim, engine, 2, address, False)
    assert engine.bus.grants == 0


def test_bus_utilization_reported(setup):
    sim, engine = setup
    address = remote_shared_address(engine, 0)
    run_reference(sim, engine, 0, address, False)
    assert 0.0 < engine.network_utilization(sim.now) <= 1.0


def test_faster_bus_lowers_latency():
    from dataclasses import replace

    from repro.core.config import SystemConfig
    from repro.core.experiment import build_engine
    from repro.sim.kernel import Simulator

    latencies = {}
    for clock_ps in (20_000, 10_000):
        sim = Simulator()
        base = SystemConfig(num_processors=4, protocol=Protocol.BUS)
        config = replace(base, bus=replace(base.bus, clock_ps=clock_ps))
        engine = build_engine(sim, config)
        address = remote_shared_address(engine, 0)
        latencies[clock_ps] = run_reference(sim, engine, 0, address, False)
    assert latencies[10_000] < latencies[20_000]


def test_invariants_after_mixed_traffic(setup):
    sim, engine = setup
    addresses = [shared_address(engine, i) for i in range(5)]
    for round_number in range(3):
        for node in range(4):
            for address in addresses:
                run_reference(
                    sim, engine, node, address, (node + round_number) % 2 == 0
                )
    sim.run()
    engine.check_invariants()
