"""Symmetry reduction for the model checker's abstract states.

The checked systems are highly symmetric: every processor runs the
same protocol engine, and every checked line carries the same
metadata organisation.  Relabeling the processors (and the lines with
them) therefore maps reachable states onto reachable states and
preserves every invariant verdict -- the classic *scalarset* symmetry
of Murphi-style protocol verification.  Exploring one representative
per orbit shrinks the visited set by up to ``nodes! x lines!`` without
giving up any invariant coverage: every state the reduced search
visits is a real, concretely reached state, and every counterexample
is a real failing script.

Canonicalization picks the lexicographically smallest relabeling of a
state under the configured permutation group:

* flat protocols (``snooping``, ``directory``, ``linkedlist``,
  ``bus``) use the full product group ``S_nodes x S_lines``;
* the two-level ``hierarchical`` ring only admits permutations that
  respect the cluster partition (swapping whole clusters, or nodes
  within one cluster) -- relabeling across clusters would move a node
  onto a different local ring.

Honesty note (also in ``docs/CHECKING.md``): the protocol *logic* is
exactly symmetric under these relabelings, but transaction *timing*
is not -- ring distance to a line's home node changes with the
labels.  Single-reference steps drain to a timing-independent
quiescent state, so reduction is exact for them; two-reference race
steps resolve by event order, so a relabeled race can land in a
different (still legal, still symmetric-equivalent-or-new) outcome.
The identity group (``symmetry="none"``) is kept as the equivalence
oracle and explores the raw space.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MAX_GROUP_ORDER",
    "SYMMETRY_MODES",
    "CanonicalContext",
    "cluster_permutations",
    "encode_state",
    "group_order",
    "permutation_group",
    "relabel_view",
    "state_fingerprint",
]

#: Accepted values for the explorer's ``symmetry`` knob.
SYMMETRY_MODES = ("full", "none")

#: Largest permutation group a checker configuration may ask for.  The
#: group is built as a tuple and every visited state is minimised over
#: it, so the order bounds both memory and per-state cost; the largest
#: configuration CI checks (5 nodes, 2 lines) has order 240.
MAX_GROUP_ORDER = 10_000

#: A node (or line) permutation: ``perm[old_label] == new_label``.
Perm = Tuple[int, ...]


def _identity(size: int) -> Perm:
    return tuple(range(size))


def cluster_permutations(nodes: int, per_cluster: int) -> List[Perm]:
    """Node permutations preserving a partition into equal clusters.

    The group is the wreath product ``S_per_cluster wr S_clusters``:
    permute the nodes within each cluster independently, then permute
    whole clusters.  For 4 nodes in 2 clusters that is 8 elements
    (versus 24 for the full symmetric group).
    """
    if per_cluster <= 0 or nodes % per_cluster:
        raise ValueError(
            f"{nodes} nodes do not split into clusters of {per_cluster}"
        )
    clusters = nodes // per_cluster
    inner = list(itertools.permutations(range(per_cluster)))
    perms: List[Perm] = []
    for outer in itertools.permutations(range(clusters)):
        for pick in itertools.product(inner, repeat=clusters):
            perm = [0] * nodes
            for cluster in range(clusters):
                for slot in range(per_cluster):
                    perm[cluster * per_cluster + slot] = (
                        outer[cluster] * per_cluster + pick[cluster][slot]
                    )
            perms.append(tuple(perm))
    return perms


def group_order(
    nodes: int,
    lines: int,
    symmetry: str = "full",
    per_cluster: Optional[int] = None,
) -> int:
    """``len(permutation_group(...))`` by formula, building nothing."""
    if symmetry == "none":
        return 1
    if per_cluster is None:
        node_order = math.factorial(nodes)
    else:
        clusters = nodes // per_cluster
        node_order = (
            math.factorial(per_cluster) ** clusters
            * math.factorial(clusters)
        )
    return node_order * math.factorial(lines)


@lru_cache(maxsize=64)
def permutation_group(
    nodes: int,
    lines: int,
    symmetry: str = "full",
    per_cluster: Optional[int] = None,
) -> Tuple[Tuple[Perm, Perm], ...]:
    """The (node-perm, line-perm) pairs canonicalization minimises over.

    ``symmetry="none"`` yields the identity group (the oracle path);
    ``per_cluster`` restricts node permutations to the
    cluster-respecting subgroup (hierarchical rings).
    """
    if symmetry not in SYMMETRY_MODES:
        raise ValueError(
            f"unknown symmetry mode {symmetry!r}; "
            f"expected one of {SYMMETRY_MODES}"
        )
    if symmetry == "none":
        return ((_identity(nodes), _identity(lines)),)
    if per_cluster is None:
        node_perms: Sequence[Perm] = list(
            itertools.permutations(range(nodes))
        )
    else:
        node_perms = cluster_permutations(nodes, per_cluster)
    line_perms = list(itertools.permutations(range(lines)))
    return tuple(
        (node_perm, line_perm)
        for node_perm in node_perms
        for line_perm in line_perms
    )


def relabel_view(view: tuple, node_perm: Perm) -> tuple:
    """One line's coherence metadata with node labels permuted.

    ``None`` owners are encoded as ``-1`` so relabeled views stay
    totally ordered (canonicalization takes a ``min``; comparing
    ``None`` against an ``int`` would raise).
    """
    tag = view[0]
    if tag == "dirty-bit":
        _, dirty, owner = view
        return (tag, dirty, -1 if owner is None else node_perm[owner])
    if tag == "full-map":
        _, dirty, sharers = view
        return (tag, dirty, tuple(sorted(node_perm[s] for s in sharers)))
    if tag == "list":
        # The sharing chain is ordered (head first); relabel in place.
        _, dirty, chain = view
        return (tag, dirty, tuple(node_perm[n] for n in chain))
    raise ValueError(f"unknown coherence view tag {tag!r}")


def encode_state(
    state: tuple,
    node_perm: Perm,
    line_perm: Perm,
    nodes: int,
    lines: int,
) -> tuple:
    """One relabeling of an ``AbstractState``, as a comparable tuple.

    Layout: a dense row-major matrix of cache-state names indexed by
    the *new* labels, then the per-line views in new-label order.  The
    encoding with the identity permutation is injective over abstract
    states of a fixed configuration, so identity-canonicalization
    counts exactly the raw state space.
    """
    caches, views = state
    matrix: Dict[Tuple[int, int], str] = {}
    for node, line, name in caches:
        matrix[(node_perm[node], line_perm[line])] = name
    relabeled: Dict[int, tuple] = {}
    for line, view in views:
        relabeled[line_perm[line]] = relabel_view(view, node_perm)
    return (
        tuple(
            matrix[(node, line)]
            for node in range(nodes)
            for line in range(lines)
        ),
        tuple(relabeled[line] for line in range(lines)),
    )


def state_fingerprint(encoded: tuple) -> str:
    """Stable content hash of an encoded (canonical) state."""
    canonical = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CanonicalContext:
    """Canonicalization bound to one checker configuration.

    Bundles the permutation group for ``(nodes, lines, symmetry)`` --
    cluster-respecting when the protocol is hierarchical -- and
    exposes the two operations the explorer needs: the canonical
    encoded form of a state and its fingerprint.
    """

    def __init__(
        self,
        protocol: str,
        nodes: int,
        lines: int,
        symmetry: str = "full",
        per_cluster: Optional[int] = None,
    ) -> None:
        if per_cluster is None and protocol == "hierarchical":
            from repro.check.state import hierarchy_per_cluster

            per_cluster = hierarchy_per_cluster(nodes)
        self.protocol = protocol
        self.nodes = nodes
        self.lines = lines
        self.symmetry = symmetry
        self.group = permutation_group(
            nodes, lines, symmetry, per_cluster=per_cluster
        )

    @property
    def group_size(self) -> int:
        return len(self.group)

    def canonical(self, state: tuple) -> tuple:
        """The minimal encoding of ``state`` over the group."""
        group = self.group
        nodes, lines = self.nodes, self.lines
        if len(group) == 1:
            node_perm, line_perm = group[0]
            return encode_state(state, node_perm, line_perm, nodes, lines)
        return min(
            encode_state(state, node_perm, line_perm, nodes, lines)
            for node_perm, line_perm in group
        )

    def fingerprint(self, state: tuple) -> str:
        return state_fingerprint(self.canonical(state))
