"""Symmetry reduction: the canonicalizer must be a true symmetry.

Two properties carry the whole reduction argument:

* **Orbit collapse**: relabeling a state by any group element must not
  change its canonical form (``canonical(g . s) == canonical(s)``).
* **Reachability transport**: relabeling a *script* by a node
  permutation reaches the relabeled state, so (for single-reference
  steps, which drain to a timing-independent quiescent state) the
  canonical fingerprint of the reached state is permutation-invariant.

If either failed, the reduced search could merge states the protocol
distinguishes (unsound) or split an orbit (losing the reduction).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.state import EngineHarness, Ref, StepSpec
from repro.check.symmetry import (
    SYMMETRY_MODES,
    CanonicalContext,
    cluster_permutations,
    encode_state,
    permutation_group,
    relabel_view,
    state_fingerprint,
)
from repro.sim.rng import DeterministicRng

PROTOCOLS = ("snooping", "directory", "linkedlist", "bus")


def permute_snapshot(state, node_perm, line_perm):
    """Apply a group element to a raw ``AbstractState`` snapshot."""
    caches, views = state
    return (
        tuple(
            sorted(
                (node_perm[node], line_perm[line], name)
                for node, line, name in caches
            )
        ),
        tuple(
            sorted(
                (line_perm[line], raw_relabel(view, node_perm))
                for line, view in views
            )
        ),
    )


def raw_relabel(view, node_perm):
    """Relabel a view's node ids while keeping the raw (None) encoding."""
    tag = view[0]
    if tag == "dirty-bit":
        _, dirty, owner = view
        return (tag, dirty, None if owner is None else node_perm[owner])
    if tag == "full-map":
        _, dirty, sharers = view
        return (tag, dirty, tuple(sorted(node_perm[s] for s in sharers)))
    _, dirty, chain = view
    return (tag, dirty, tuple(node_perm[n] for n in chain))


def random_scripts(rng, nodes, lines, count, length):
    for _ in range(count):
        yield [
            StepSpec(
                (
                    Ref(
                        rng.randint(0, nodes - 1),
                        rng.randint(0, lines - 1),
                        rng.bernoulli(0.4),
                    ),
                )
            )
            for _ in range(length)
        ]


# ----------------------------------------------------------------------
# Group construction
# ----------------------------------------------------------------------
def test_full_group_is_the_product_of_symmetric_groups():
    group = permutation_group(3, 2, "full")
    assert len(group) == 6 * 2  # 3! node perms x 2! line perms
    assert len(set(group)) == len(group)


def test_identity_group_for_symmetry_none():
    group = permutation_group(3, 2, "none")
    assert group == (((0, 1, 2), (0, 1)),)


def test_unknown_symmetry_mode_rejected():
    with pytest.raises(ValueError):
        permutation_group(2, 1, "partial")
    assert "partial" not in SYMMETRY_MODES


def test_cluster_permutations_respect_the_partition():
    perms = cluster_permutations(4, 2)
    # S_2 wr S_2: 2 inner x 2 inner x 2 outer = 8 elements (vs 4! = 24).
    assert len(perms) == 8
    assert len(set(perms)) == 8
    for perm in perms:
        # Nodes 0,1 stay together (land in one cluster), same for 2,3.
        assert {perm[0] // 2} == {perm[1] // 2}
        assert {perm[2] // 2} == {perm[3] // 2}


def test_cluster_permutations_reject_uneven_split():
    with pytest.raises(ValueError):
        cluster_permutations(5, 2)


def test_hierarchical_context_uses_the_cluster_subgroup():
    context = CanonicalContext("hierarchical", 4, 2, "full")
    assert context.group_size == 8 * 2  # wreath product x 2! lines
    flat = CanonicalContext("snooping", 4, 2, "full")
    assert flat.group_size == 24 * 2


# ----------------------------------------------------------------------
# View relabeling
# ----------------------------------------------------------------------
def test_relabel_view_encodes_missing_owner_as_minus_one():
    assert relabel_view(("dirty-bit", True, None), (1, 0)) == (
        "dirty-bit",
        True,
        -1,
    )


def test_relabel_view_sorts_full_map_sharers():
    assert relabel_view(("full-map", False, (0, 2)), (2, 1, 0)) == (
        "full-map",
        False,
        (0, 2),
    )


def test_relabel_view_preserves_list_order():
    # The sharing chain is ordered head-first; relabeling must not sort.
    assert relabel_view(("list", True, (2, 0, 1)), (1, 2, 0)) == (
        "list",
        True,
        (0, 1, 2),
    )


def test_relabel_view_rejects_unknown_tag():
    with pytest.raises(ValueError):
        relabel_view(("bitmap", False, ()), (0, 1))


# ----------------------------------------------------------------------
# The core soundness property: canonical is orbit-invariant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_canonical_form_is_invariant_over_the_orbit(protocol):
    nodes, lines = 3, 2
    context = CanonicalContext(protocol, nodes, lines, "full")
    rng = DeterministicRng(2026)
    for script in random_scripts(rng, nodes, lines, count=6, length=4):
        harness = EngineHarness(protocol, nodes, lines)
        for step in script:
            harness.apply(step)
        state = harness.snapshot()
        reference = context.canonical(state)
        for node_perm, line_perm in context.group:
            permuted = permute_snapshot(state, node_perm, line_perm)
            assert context.canonical(permuted) == reference
        assert state_fingerprint(reference) == context.fingerprint(state)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_relabeled_scripts_reach_the_same_canonical_state(protocol):
    """Transport: run g(script), land in the canonical class of g(state)."""
    nodes, lines = 3, 1
    context = CanonicalContext(protocol, nodes, lines, "full")
    rng = DeterministicRng(517)
    for script in random_scripts(rng, nodes, lines, count=4, length=4):
        baseline = EngineHarness(protocol, nodes, lines)
        for step in script:
            baseline.apply(step)
        want = context.fingerprint(baseline.snapshot())
        for node_perm in itertools.permutations(range(nodes)):
            relabeled = EngineHarness(protocol, nodes, lines)
            for step in script:
                relabeled.apply(
                    StepSpec(
                        tuple(
                            Ref(node_perm[ref.node], ref.line, ref.is_write)
                            for ref in step.refs
                        )
                    )
                )
            assert context.fingerprint(relabeled.snapshot()) == want


def test_identity_encoding_is_injective_on_distinct_states():
    harness = EngineHarness("snooping", 2, 1)
    cold = harness.snapshot()
    harness.apply(StepSpec((Ref(0, 0, True),)))
    warm = harness.snapshot()
    identity = ((0, 1), (0,))
    assert encode_state(cold, *identity, 2, 1) != encode_state(
        warm, *identity, 2, 1
    )


def test_fingerprints_are_stable_hex_digests():
    context = CanonicalContext("snooping", 2, 1, "full")
    state = EngineHarness("snooping", 2, 1).snapshot()
    first = context.fingerprint(state)
    second = CanonicalContext("snooping", 2, 1, "full").fingerprint(state)
    assert first == second
    assert len(first) == 64 and int(first, 16) >= 0


# ----------------------------------------------------------------------
# The sorted canonical form against the built group
# ----------------------------------------------------------------------
_NAMES = ("INV", "RS", "WE")


@st.composite
def abstract_states(draw):
    """A random abstract state of any view style, or of the hierarchy."""
    style = draw(st.sampled_from(("dirty-bit", "full-map", "list", "hier")))
    nodes = draw(st.sampled_from((2, 4)) if style == "hier" else st.integers(2, 4))
    lines = draw(st.integers(1, 3 if nodes < 4 else 2))
    tag = "dirty-bit" if style == "hier" else style
    caches = tuple(
        (node, line, draw(st.sampled_from(_NAMES)))
        for node in range(nodes)
        for line in range(lines)
    )
    views = []
    for line in range(lines):
        dirty = draw(st.booleans())
        if tag == "dirty-bit":
            owner = draw(st.one_of(st.none(), st.integers(0, nodes - 1)))
            views.append((line, (tag, dirty, owner)))
        else:
            members = draw(
                st.lists(st.integers(0, nodes - 1), unique=True, max_size=nodes)
            )
            detail = tuple(sorted(members)) if tag == "full-map" else tuple(members)
            views.append((line, (tag, dirty, detail)))
    protocol = {"dirty-bit": "snooping", "full-map": "directory",
                "list": "linkedlist", "hier": "hierarchical"}[style]
    return protocol, nodes, lines, (caches, tuple(views))


@settings(max_examples=300, deadline=None)
@given(abstract_states(), st.data())
def test_sorted_form_is_an_orbit_invariant_relabeling(case, data):
    protocol, nodes, lines, state = case
    context = CanonicalContext(protocol, nodes, lines, "full")
    node_perm, line_perm = data.draw(st.sampled_from(context.group))
    canonical = context.canonical(state)
    relabeled = permute_snapshot(state, node_perm, line_perm)
    assert context.canonical(relabeled) == canonical
    # The form is one relabeling's encoding, so distinct orbits never
    # share it.
    assert canonical in {
        encode_state(state, g_nodes, g_lines, nodes, lines)
        for g_nodes, g_lines in context.group
    }


class GroupMinimumContext(CanonicalContext):
    """The built-group minimum: the canonical form before sorting."""

    def canonical(self, state):
        return min(
            encode_state(state, node_perm, line_perm, self.nodes, self.lines)
            for node_perm, line_perm in self.group
        )


@pytest.mark.parametrize(
    "protocol, nodes",
    [("snooping", 3), ("directory", 3), ("linkedlist", 3), ("bus", 3),
     ("hierarchical", 4)],
)
def test_sorted_search_matches_the_group_minimum_search(
    monkeypatch, protocol, nodes
):
    import repro.check.explorer as explorer

    # The hierarchy needs an even node count; its 4-node search runs
    # without race steps to stay quick.
    sorted_form = explorer.explore(protocol, nodes, 2, races=nodes < 4)
    monkeypatch.setattr(explorer, "CanonicalContext", GroupMinimumContext)
    oracle = explorer.explore(protocol, nodes, 2, races=nodes < 4)
    assert sorted_form.ok and oracle.ok
    assert sorted_form.complete and oracle.complete
    assert (
        sorted_form.states,
        sorted_form.steps_applied,
        sorted_form.max_depth_reached,
    ) == (oracle.states, oracle.steps_applied, oracle.max_depth_reached)
