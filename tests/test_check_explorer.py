"""The exhaustive explorer: clean protocols pass, seeded bugs fail.

Mutation testing is the checker's own acceptance test: we copy an
engine, inject a classic coherence bug (a dropped invalidation -- the
canonical lost-coherence failure in snoopy protocols), and require the
explorer to find it with a short, minimal, replayable counterexample.
A checker that passes clean protocols but cannot find a seeded bug is
vacuous.
"""

from __future__ import annotations

import json

import pytest

from repro.check import EngineHarness, InvariantViolation, explore
from repro.check.explorer import COUNTEREXAMPLE_SCHEMA, step_alphabet
from repro.check.state import Ref, StepSpec
from repro.ring.directory import DirectoryRingSystem
from repro.ring.snooping import SnoopingRingSystem

PROTOCOLS = ("snooping", "directory", "linkedlist")


# ----------------------------------------------------------------------
# Clean protocols: exhaustive pass at the acceptance configuration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_explore_two_nodes_one_line_is_clean_and_exhaustive(protocol):
    raw = explore(protocol, nodes=2, lines=1, symmetry="none")
    assert raw.ok, raw.summary()
    assert raw.complete, "2n/1l must be exhausted, not truncated"
    assert raw.states >= 5
    assert raw.steps_applied >= raw.states
    assert raw.group_size == 1
    reduced = explore(protocol, nodes=2, lines=1)
    assert reduced.ok and reduced.complete
    assert reduced.symmetry == "full" and reduced.group_size == 2
    # The reduction only merges states, never invents or loses them.
    assert 1 <= reduced.states <= raw.states


def test_explore_bus_is_clean():
    report = explore("bus", nodes=2, lines=1)
    assert report.ok and report.complete, report.summary()


def test_explore_without_races_is_clean():
    report = explore("snooping", nodes=2, lines=1, races=False)
    assert report.ok and report.complete, report.summary()
    assert report.alphabet_size == 4  # 2 nodes x 1 line x {R, W}


def test_step_alphabet_shape():
    singles = [s for s in step_alphabet(2, 1) if not s.is_race]
    races = [s for s in step_alphabet(2, 1) if s.is_race]
    assert len(singles) == 4
    # Races pair refs at distinct nodes only.
    assert len(races) == 4
    assert all(
        step.refs[0].node != step.refs[1].node for step in races
    )


def test_explore_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        explore("token-ring", nodes=2, lines=1)


# ----------------------------------------------------------------------
# Mutants
# ----------------------------------------------------------------------
class DroppedInvalidationSnooping(SnoopingRingSystem):
    """Bug: the write probe's invalidation snoop is silently lost."""

    def schedule_invalidate(self, node, address, at_cycle):
        pass


class DroppedInvalidationDirectory(DirectoryRingSystem):
    """Bug: the home multicasts but sharers never invalidate."""

    def schedule_invalidate(self, node, address, at_cycle):
        pass


def mutant_harness(engine_type):
    """An EngineHarness whose engine is replaced by a mutant copy.

    The mutant adopts the original engine's entire state (caches,
    schedulers, directories), so only the overridden method differs.
    """

    class MutantHarness(EngineHarness):
        def __init__(self, protocol, nodes, lines):
            super().__init__(protocol, nodes, lines)
            mutant = object.__new__(engine_type)
            mutant.__dict__ = self.engine.__dict__
            self.engine = mutant

    return MutantHarness


def test_explorer_catches_dropped_invalidation_in_snooping():
    report = explore(
        "snooping",
        nodes=2,
        lines=1,
        harness_factory=mutant_harness(DroppedInvalidationSnooping),
    )
    assert not report.ok, "seeded bug missed"
    counterexample = report.counterexample
    assert counterexample.depth <= 20
    assert counterexample.kind in {"swmr", "freshness", "agreement"}
    # BFS minimality: some step involves a write (the bug needs one).
    assert any(
        ref.is_write
        for step in counterexample.script
        for ref in step.refs
    )


def test_explorer_catches_dropped_invalidation_in_directory():
    report = explore(
        "directory",
        nodes=2,
        lines=1,
        harness_factory=mutant_harness(DroppedInvalidationDirectory),
    )
    assert not report.ok, "seeded bug missed"
    assert report.counterexample.depth <= 20


def test_sequential_steps_alone_catch_the_snooping_mutant():
    # Even without race steps the bug surfaces: W(a) then W(b) leaves
    # a's stale copy alive, and the next reference exposes it.
    report = explore(
        "snooping",
        nodes=2,
        lines=1,
        races=False,
        harness_factory=mutant_harness(DroppedInvalidationSnooping),
    )
    assert not report.ok
    assert report.counterexample.depth <= 20


# ----------------------------------------------------------------------
# Counterexamples: replay and golden format
# ----------------------------------------------------------------------
def failing_report():
    report = explore(
        "snooping",
        nodes=2,
        lines=1,
        harness_factory=mutant_harness(DroppedInvalidationSnooping),
    )
    assert not report.ok
    return report


def test_counterexample_replays_deterministically():
    counterexample = failing_report().counterexample
    # On the mutant, the script reproduces the violation every time.
    mutant = mutant_harness(DroppedInvalidationSnooping)
    for _ in range(2):
        harness = mutant(
            counterexample.protocol,
            counterexample.nodes,
            counterexample.lines,
        )
        with pytest.raises(InvariantViolation):
            for step in counterexample.script:
                harness.apply(step)
            harness.check(strict=True)


def test_counterexample_script_passes_on_the_clean_engine():
    counterexample = failing_report().counterexample
    harness = counterexample.replay()  # clean EngineHarness
    harness.check(strict=True)  # the bug is in the mutant, not here


def test_counterexample_golden_format(tmp_path):
    counterexample = failing_report().counterexample
    payload = counterexample.as_dict()
    assert payload["schema"] == COUNTEREXAMPLE_SCHEMA
    assert set(payload) == {
        "schema",
        "protocol",
        "nodes",
        "lines",
        "violation",
        "depth",
        "script",
    }
    assert payload["protocol"] == "snooping"
    assert payload["nodes"] == 2 and payload["lines"] == 1
    assert set(payload["violation"]) == {"kind", "message"}
    assert payload["depth"] == len(payload["script"])
    for index, step in enumerate(payload["script"]):
        assert set(step) == {"step", "label", "refs"}
        assert step["step"] == index
        for ref in step["refs"]:
            assert set(ref) == {"node", "line", "op"}
            assert ref["op"] in {"read", "write"}

    path = tmp_path / "counterexample.json"
    counterexample.write_json(str(path))
    assert json.loads(path.read_text()) == payload
    # Serialisation is stable: a second write is byte-identical.
    first = path.read_text()
    counterexample.write_json(str(path))
    assert path.read_text() == first


def test_counterexample_describe_mentions_the_violation():
    counterexample = failing_report().counterexample
    text = counterexample.describe()
    assert counterexample.kind in text
    assert "snooping" in text


# ----------------------------------------------------------------------
# Symmetry reduction and its oracle
# ----------------------------------------------------------------------
def test_symmetry_reduction_beats_four_x_at_three_nodes_two_lines():
    raw = explore("snooping", nodes=3, lines=2, symmetry="none")
    reduced = explore("snooping", nodes=3, lines=2, symmetry="full")
    assert raw.ok and raw.complete and reduced.ok and reduced.complete
    assert reduced.states * 4 <= raw.states, (
        f"reduction only {raw.states}/{reduced.states}x"
    )
    # Orbit counting sanity: the raw space is at most |G| copies of
    # the reduced one.
    assert raw.states <= reduced.states * reduced.group_size


def test_reduced_search_agrees_with_the_raw_oracle_on_mutants():
    factory = mutant_harness(DroppedInvalidationSnooping)
    raw = explore("snooping", 2, 1, symmetry="none", harness_factory=factory)
    reduced = explore(
        "snooping", 2, 1, symmetry="full", harness_factory=factory
    )
    assert not raw.ok and not reduced.ok
    assert raw.counterexample.kind == reduced.counterexample.kind
    # Symmetry never changes the step order at a given depth, so the
    # minimal counterexample is literally the same script.
    assert raw.counterexample.script == reduced.counterexample.script


def test_hierarchical_protocol_is_clean_and_exhaustive():
    report = explore("hierarchical", nodes=4, lines=1)
    assert report.ok and report.complete, report.summary()
    # Cluster-respecting group: (2! x 2! x 2!) node perms, 1 line perm.
    assert report.group_size == 8


def test_explore_rejects_unknown_symmetry():
    with pytest.raises(ValueError):
        explore("snooping", nodes=2, lines=1, symmetry="rotational")


# ----------------------------------------------------------------------
# Parallel frontier expansion: bit-identical to serial
# ----------------------------------------------------------------------
class ParallelMutantHarness(EngineHarness):
    """Module-level (hence picklable) snooping mutant for jobs > 1."""

    def __init__(self, protocol, nodes, lines):
        super().__init__(protocol, nodes, lines)
        mutant = object.__new__(DroppedInvalidationSnooping)
        mutant.__dict__ = self.engine.__dict__
        self.engine = mutant


@pytest.mark.parametrize(
    "bounds, truncated_by",
    [
        ({}, []),
        # Cut before the second level's first entry.
        ({"max_states": 5}, ["max_states"]),
        ({"max_depth": 2}, ["max_depth"]),
    ],
    ids=["exhaustive", "max-states", "max-depth"],
)
def test_parallel_exploration_is_bit_identical_to_serial(
    bounds, truncated_by
):
    serial = explore("snooping", nodes=3, lines=2, jobs=1, **bounds)
    parallel = explore("snooping", nodes=3, lines=2, jobs=2, **bounds)
    assert serial.ok and parallel.ok
    assert serial.truncated_by == parallel.truncated_by == truncated_by
    assert serial.complete == parallel.complete == (not truncated_by)
    assert serial.visited_fingerprints == parallel.visited_fingerprints
    assert serial.counters() == parallel.counters()


@pytest.mark.parametrize(
    "races, depth",
    # Without races the violation sits in the second entry of the
    # second level, in the second of its batches at jobs=2.
    [(True, 1), (False, 2)],
    ids=["races", "no-races"],
)
def test_parallel_exploration_finds_the_same_counterexample(races, depth):
    serial = explore(
        "snooping", 2, 1, jobs=1, races=races,
        harness_factory=ParallelMutantHarness,
    )
    parallel = explore(
        "snooping", 2, 1, jobs=2, races=races,
        harness_factory=ParallelMutantHarness,
    )
    assert not serial.ok and not parallel.ok
    assert serial.counterexample.depth == depth
    assert serial.counterexample.script == parallel.counterexample.script
    assert serial.counterexample.kind == parallel.counterexample.kind
    assert serial.counters() == parallel.counters()


#: A depth-2 prefix whose second step is a race.
_PREFIX = (
    StepSpec((Ref(0, 0, True),)),
    StepSpec((Ref(1, 0, False), Ref(0, 1, True))),
)


def _observed(harness):
    """Everything a thawed child must share with a fresh replay."""
    return (
        harness.snapshot(),
        harness.sim.now,
        next(harness.sim._sequence),
        [cache.stats for cache in harness.engine.caches],
    )


def test_clone_expansion_matches_fresh_replay():
    """A child thawed from a frozen state lands, for every alphabet step
    (races included), exactly where replaying its whole script lands."""
    for protocol in ("snooping", "directory", "linkedlist", "bus",
                     "hierarchical"):
        image = EngineHarness.replay(protocol, 2, 2, _PREFIX).clone()
        for step in step_alphabet(2, 2):
            child = image.clone()
            child.apply(step)
            replayed = EngineHarness.replay(
                protocol, 2, 2, _PREFIX + (step,)
            )
            assert _observed(child) == _observed(replayed), (
                protocol, step.label()
            )


def test_children_of_one_image_share_no_state():
    image = EngineHarness.replay("directory", 2, 2, _PREFIX).clone()
    first, second = image.clone(), image.clone()
    before = second.snapshot()
    first.apply(StepSpec((Ref(1, 1, True),)))
    assert first.snapshot() != before
    assert second.snapshot() == before
    assert image.clone().snapshot() == before


def test_a_harness_class_defined_in_a_function_thaws_to_itself():
    class LocalHarness(EngineHarness):
        pass

    harness = LocalHarness("snooping", 2, 1)
    harness.apply(StepSpec((Ref(0, 0, True),)))
    child = harness.clone().clone()
    assert type(child) is LocalHarness
    assert child.snapshot() == harness.snapshot()


def test_images_share_the_configuration_unchanged():
    harness = EngineHarness.replay("hierarchical", 2, 2, _PREFIX)
    image = harness.clone()
    config = harness.engine.config
    assert config in image.table
    fields = repr(config)
    for step in step_alphabet(2, 2):
        child = image.clone()
        assert child.engine.config is config
        child.apply(step)
    assert repr(config) == fields


def test_clone_refuses_mid_transaction_state():
    harness = EngineHarness("snooping", 2, 1)
    harness.sim.spawn(iter(()), name="pending")
    with pytest.raises(RuntimeError):
        harness.clone()


# ----------------------------------------------------------------------
# Outcomes: exhaustive vs truncated, and refused setups
# ----------------------------------------------------------------------
def test_truncated_run_reports_itself_as_such():
    report = explore("snooping", nodes=2, lines=1, max_depth=1)
    assert report.ok and not report.complete
    assert report.outcome == "truncated"
    assert report.truncated_by == ["max_depth"]
    assert "NOT an exhaustiveness proof" in report.summary()

    capped = explore("snooping", nodes=2, lines=1, max_states=2)
    assert capped.ok and not capped.complete
    assert "max_states" in capped.truncated_by


def test_exhaustive_run_reports_itself_as_such():
    report = explore("snooping", nodes=2, lines=1)
    assert report.complete and report.outcome == "exhaustive"
    assert "EXHAUSTIVE" in report.summary()
    failing = failing_report()
    assert failing.outcome == "violation"


def test_exploration_is_pure():
    # The answer to one setup never depends on what ran before it: a
    # bounded run after an exhaustive one is still the bounded answer.
    fresh = explore("snooping", nodes=2, lines=1, max_depth=1)
    explore("snooping", nodes=2, lines=1)
    again = explore("snooping", nodes=2, lines=1, max_depth=1)
    assert again.outcome == fresh.outcome == "truncated"
    assert again.summary() == fresh.summary()
    assert again.counters() == fresh.counters()
    assert again.visited_fingerprints == fresh.visited_fingerprints


@pytest.mark.parametrize(
    "protocol, nodes, lines, field",
    [
        ("snooping", 1, 1, "nodes must be >= 2"),
        ("snooping", 2, 0, "lines must be >= 1"),
        ("hierarchical", 3, 1, "nodes must be even"),
        ("snooping", 12, 1, "nodes=12, lines=1: symmetry group of order"),
        ("snooping", 4, 6, "nodes=4, lines=6: symmetry group of order"),
    ],
)
def test_out_of_range_setups_are_refused_before_building(
    monkeypatch, protocol, nodes, lines, field
):
    import repro.check.explorer as explorer

    def no_build(*args, **kwargs):
        raise AssertionError("built a harness for a refused setup")

    monkeypatch.setattr(explorer, "CanonicalContext", no_build)
    with pytest.raises(ValueError, match=field):
        explore(protocol, nodes=nodes, lines=lines, harness_factory=no_build)


def test_group_order_formula_matches_the_built_group():
    from repro.check.symmetry import group_order, permutation_group

    for nodes, lines, per_cluster in [
        (2, 1, None), (4, 2, None), (5, 2, None), (3, 3, None),
        (4, 3, 2), (6, 2, 3), (2, 1, 1),
    ]:
        for symmetry in ("full", "none"):
            built = permutation_group(nodes, lines, symmetry, per_cluster)
            assert group_order(
                nodes, lines, symmetry, per_cluster
            ) == len(built)
    # Without building it: 12! node permutations.
    assert group_order(12, 1) == 479_001_600
    assert group_order(12, 1, "none") == 1


# ----------------------------------------------------------------------
# Step/Ref value semantics used by the visited set
# ----------------------------------------------------------------------
def test_refs_and_steps_are_hashable_values():
    a = Ref(0, 0, True)
    assert a == Ref(0, 0, True)
    assert len({a, Ref(0, 0, True)}) == 1
    step = StepSpec((a, Ref(1, 0, False)))
    assert step.is_race
    assert step == StepSpec((a, Ref(1, 0, False)))


def test_step_spec_rejects_empty_and_oversized():
    with pytest.raises(ValueError):
        StepSpec(())
    with pytest.raises(ValueError):
        StepSpec((Ref(0, 0, False),) * 3)
