"""Bit-exact digests of the analytical models' solved numbers.

Every float the models return is hashed through ``float.hex``, so a
change in the last bit of any operating point, breakdown or Table 4
clock changes a digest.  The inputs are built in code (no simulation),
and the configurations are a seeded sample of the design benchmark's
ring and bus axes, so the digests pin the equations and both solvers
alone.  A refactor of the equations or of the solvers that keeps
every operation's operands and order must leave all digests unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
import pytest

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.core.results import ModelInputs
from repro.core.sensitivity import apply_parameter
from repro.models import MODEL_FAMILIES
from repro.models.grid import ModelGrid, solve_grid
from repro.models.matching import matching_bus_clock_ns

PROCESSORS = 16
CYCLES_NS = [float(cycle) for cycle in range(1, 21)]
#: The design benchmark's axes.
RING_AXES = {
    "ring_clock_ps": list(range(1_000, 6_000, 500)),
    "memory_access_ps": list(range(40_000, 290_000, 10_000)),
    "ring_width_bits": [16, 32, 64],
}
BUS_AXES = {
    "bus_clock_ps": list(range(5_000, 55_000, 5_000)),
    "memory_access_ps": list(range(40_000, 290_000, 10_000)),
    "cache_response_ps": [70_000, 140_000, 210_000],
}
#: Configurations sampled per family.
SAMPLE = 6

FAMILY_PROTOCOL = {
    "ring_snooping": Protocol.SNOOPING,
    "bus": Protocol.BUS,
    "ring_directory": Protocol.DIRECTORY,
    "ring_linkedlist": Protocol.LINKED_LIST,
}


def _inputs(protocol: Protocol) -> ModelInputs:
    """A fixed event mix; the directory mix exercises every field the
    directory and linked-list equations read."""
    snooping = protocol is Protocol.SNOOPING
    f_miss = {klass: 0.0 for klass in MissClass}
    f_miss[MissClass.PRIVATE] = 0.0031
    f_miss[MissClass.LOCAL_CLEAN] = 0.0017
    f_miss[MissClass.REMOTE_CLEAN] = 0.0123
    f_miss[MissClass.REMOTE_DIRTY] = 0.0047 if snooping else 0.0
    f_miss[MissClass.DIRTY_ONE_CYCLE] = 0.0 if snooping else 0.0029
    f_miss[MissClass.TWO_CYCLE] = 0.0 if snooping else 0.0021
    return ModelInputs(
        benchmark="digest",
        num_processors=PROCESSORS,
        protocol=protocol,
        data_refs_per_instr=0.31,
        f_miss=f_miss,
        f_upgrade_with_sharers=0.0019,
        f_upgrade_without_sharers=0.0008,
        f_writeback=0.0013,
        f_sharing_writeback=0.0006,
        f_probes=0.0217 if snooping else 0.0391,
        f_broadcast_probes=0.0217 if snooping else 0.0019,
        f_blocks=0.0189,
        f_memory_accesses=0.0211,
        f_forwards=0.0 if snooping else 0.0093,
        mean_upgrade_traversals=0.0 if snooping else 1.73,
    )


def _idle_inputs(protocol: Protocol) -> ModelInputs:
    """No events at all: every solve takes the solvers' idle exit."""
    return ModelInputs(
        benchmark="idle",
        num_processors=PROCESSORS,
        protocol=protocol,
        data_refs_per_instr=0.0,
        f_miss={klass: 0.0 for klass in MissClass},
        f_upgrade_with_sharers=0.0,
        f_upgrade_without_sharers=0.0,
        f_writeback=0.0,
        f_sharing_writeback=0.0,
        f_probes=0.0,
        f_broadcast_probes=0.0,
        f_blocks=0.0,
        f_memory_accesses=0.0,
    )


def _family_inputs(family: str) -> ModelInputs:
    if family in ("ring_snooping", "bus"):
        return _inputs(Protocol.SNOOPING)
    return _inputs(Protocol.DIRECTORY)


def _axes(family: str):
    return BUS_AXES if family == "bus" else RING_AXES


def _sampled_configs(family: str):
    axes = _axes(family)
    combos = list(itertools.product(*axes.values()))
    picks = sorted(random.Random(1993).sample(range(len(combos)), SAMPLE))
    base = SystemConfig(num_processors=PROCESSORS, protocol=FAMILY_PROTOCOL[family])
    for position in picks:
        config = base
        for parameter, value in zip(axes, combos[position]):
            config = apply_parameter(config, parameter, value)
        yield config


def _digest(values) -> str:
    return hashlib.sha256(
        " ".join(float(value).hex() for value in values).encode()
    ).hexdigest()


_POINT_FIELDS = (
    "processor_cycle_ns",
    "processor_utilization",
    "network_utilization",
    "shared_miss_latency_ns",
    "upgrade_latency_ns",
    "time_per_instruction_ps",
)

#: sha256 over every float of the sampled scalar sweeps, per family.
SWEEP_DIGESTS = {
    "ring_snooping": "ef7fe77327bde9d1f29e52145d3b383bc88435f96ad52a2097aae15dad20a4e2",
    "bus": "718375515c98db92d0110dbb64b472aa87a121a59d8c38892cb70a94b3c6ebc9",
    "ring_directory": "0ea39f63906ae3a4f996113e0c8aeba10e3efe383fe7d800f562427955c7d2e6",
    "ring_linkedlist": "4e8d7793c7d7f51f79fb3224f5a0a1d01049b610bd13e4c1b06e6809c0f40d9c",
}

#: sha256 over ``breakdown(T)`` at fixed times, per family.
BREAKDOWN_DIGESTS = {
    "ring_snooping": "44f756dc7d2c07649d1d562dd367b18e277437b31491a16afd1f10dcba860fdd",
    "bus": "861659d7fe4f5fec3dcc769ed390541d202171ee3bdc66adf08fa2829031f33d",
    "ring_directory": "cabe32bc55fbd9472075cff50407aeea157bb957fec2a72664119d571a267d09",
    "ring_linkedlist": "7be64dfe42edd65e5e71c597b72419b7b5f67ee4b935bd58aa72d590abb25563",
}

#: sha256 over Table 4's matching bus clocks at the sampled ring configs.
MATCHING_DIGEST = (
    "66175d72f50208b4cc012f04c874f4179de5edf30d70ab830308a62a62cf9165"
)

#: sha256 over every array of one small product grid's solution, per family.
GRID_DIGESTS = {
    "ring_snooping": "80cb1f939185a335cc07d7ee767ec5e114bbea0a47c676a5f9b1682b4756833b",
    "bus": "36096907e26eba59534e1a10d42f3f1206b108858087a0d91ec829ee82df9121",
    "ring_directory": "f2120aae19af742936ec0f441a8fe750863616fe399ff775ecdaca351c169373",
    "ring_linkedlist": "0451313e92013fba77c258ea133b5473a99b68a1373534da24b866b6ee42293f",
}


def sweep_digest(family: str) -> str:
    configs = list(_sampled_configs(family))
    runs = [(config, _family_inputs(family)) for config in configs]
    runs.append((configs[0], _idle_inputs(FAMILY_PROTOCOL[family])))
    values = []
    for config, inputs in runs:
        sweep = MODEL_FAMILIES[family](config, inputs).sweep(CYCLES_NS)
        for point in sweep.points:
            values.extend(getattr(point, name) for name in _POINT_FIELDS)
    return _digest(values)


def breakdown_digest(family: str) -> str:
    inputs = _family_inputs(family)
    values = []
    for config in _sampled_configs(family):
        model = MODEL_FAMILIES[family](config, inputs)
        for time_ps in (1_000.0, 7_500.0, 30_000.0, 250_000.0):
            breakdown = model.breakdown(time_ps)
            values.extend(breakdown.latencies[name] for name in sorted(breakdown.latencies))
            values.append(breakdown.network_utilization)
            values.append(breakdown.bank_utilization)
    return _digest(values)


def matching_digest() -> str:
    inputs = _inputs(Protocol.SNOOPING)
    values = []
    for config in _sampled_configs("ring_snooping"):
        for cycle_ps in (2_500, 10_000):
            values.append(matching_bus_clock_ns(config, inputs, cycle_ps))
    return _digest(values)


def grid_digest(family: str) -> str:
    axes = {
        name: [values[0], values[len(values) // 2], values[-1]]
        for name, values in _axes(family).items()
    }
    base = SystemConfig(num_processors=PROCESSORS, protocol=FAMILY_PROTOCOL[family])
    solution = solve_grid(
        ModelGrid.from_product(
            family, base, _family_inputs(family), cycles_ns=CYCLES_NS, parameters=axes
        )
    )
    values = []
    for name in (
        "time_per_instruction_ps",
        "processor_utilization",
        "network_utilization",
        "bank_utilization",
        "shared_miss_latency_ns",
        "upgrade_latency_ns",
    ):
        values.extend(np.asarray(getattr(solution, name)).tolist())
    values.extend(solution.converged.astype(float).tolist())
    values.extend(solution.failed.astype(float).tolist())
    return _digest(values)


@pytest.mark.parametrize("family", sorted(FAMILY_PROTOCOL))
def test_scalar_sweeps_are_bit_exact(family):
    assert sweep_digest(family) == SWEEP_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(FAMILY_PROTOCOL))
def test_breakdowns_are_bit_exact(family):
    assert breakdown_digest(family) == BREAKDOWN_DIGESTS[family]


def test_matching_bus_clocks_are_bit_exact():
    assert matching_digest() == MATCHING_DIGEST


@pytest.mark.parametrize("family", sorted(FAMILY_PROTOCOL))
def test_grid_solutions_are_bit_exact(family):
    assert grid_digest(family) == GRID_DIGESTS[family]
