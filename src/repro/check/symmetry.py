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

The symmetry group is

* for flat protocols (``snooping``, ``directory``, ``linkedlist``,
  ``bus``), the full product group ``S_nodes x S_lines``;
* for the two-level ``hierarchical`` ring, only the permutations that
  respect the cluster partition (swapping whole clusters, or nodes
  within one cluster) -- relabeling across clusters would move a node
  onto a different local ring.

**Canonical form by sorting.**  The canonical form of a state is the
encoding of one relabeling of it, chosen without enumerating the
group.  For each line permutation, every node gets a *signature*: its
row of cache states, and per line its owner flag (dirty bit), sharer
flag (full map) or chain position (sharing list), all in the permuted
line order.  The nodes are relabeled in signature order -- on the
hierarchy, sorted within each cluster, then whole clusters sorted by
their sorted signatures -- and the state is encoded under that
relabeling; the smallest encoding over the line permutations is the
canonical form.  Nodes with equal signatures are interchangeable
(swapping them leaves the state unchanged), so the form depends only
on the orbit, and it is the encoding of a relabeling of the state, so
distinct orbits never share it.  Its cost grows with ``lines!`` sorts
of the nodes, not with ``nodes! x lines!`` encodings.  The built
groups (:func:`permutation_group`, :func:`cluster_permutations`) stay
as the test oracle: the property tests check the form against them.

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
from functools import cached_property, lru_cache
from operator import itemgetter
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

#: Largest symmetry group a checker configuration may ask for.  The
#: canonical form never builds the group, but it sorts every state once
#: per line permutation, and ``lines!`` is a factor of the order, so the
#: bound caps that per-state cost.  The order also tracks how fast the
#: raw state space grows with nodes and lines: every configuration past
#: the bound (7 nodes, or 4 nodes with 6 lines) is far beyond what one
#: search can finish.  The largest configurations CI checks, 5 nodes by
#: 2 lines and 4 by 3, have orders 240 and 144.
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
    """Every (node-perm, line-perm) pair of the symmetry group.

    The test oracle for :class:`CanonicalContext`: the canonical form
    must be the encoding of one of these relabelings, and equal for
    every relabeling of a state.  ``symmetry="none"`` yields the
    identity group; ``per_cluster`` restricts node permutations to the
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
        return (tag, dirty, tuple(sorted([node_perm[s] for s in sharers])))
    if tag == "list":
        # The sharing chain is ordered (head first); relabel in place.
        _, dirty, chain = view
        return (tag, dirty, tuple([node_perm[n] for n in chain]))
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


def _roles(view: tuple, nodes: int) -> list:
    """Each node's part in one line's coherence metadata.

    The owner flag (dirty bit), the sharer flag (full map) or the
    chain position, ``-1`` off the chain (sharing list).  Two nodes
    with equal roles are interchangeable in the view.
    """
    tag, _, detail = view
    if tag == "dirty-bit":
        return [node == detail for node in range(nodes)]
    if tag == "full-map":
        sharers = set(detail)
        return [node in sharers for node in range(nodes)]
    if tag == "list":
        position = {node: index for index, node in enumerate(detail)}
        return [position.get(node, -1) for node in range(nodes)]
    raise ValueError(f"unknown coherence view tag {tag!r}")


def _signatures(cluster: list) -> list:
    return [signature for signature, _ in cluster]


class CanonicalContext:
    """Canonicalization bound to one checker configuration.

    Sorts states into their canonical form for ``(nodes, lines,
    symmetry)`` -- cluster by cluster when the protocol is
    hierarchical -- and exposes the two operations the explorer needs:
    the canonical encoded form of a state and its fingerprint.
    """

    def __init__(
        self,
        protocol: str,
        nodes: int,
        lines: int,
        symmetry: str = "full",
        per_cluster: Optional[int] = None,
    ) -> None:
        if symmetry not in SYMMETRY_MODES:
            raise ValueError(
                f"unknown symmetry mode {symmetry!r}; "
                f"expected one of {SYMMETRY_MODES}"
            )
        if per_cluster is None and protocol == "hierarchical":
            from repro.check.state import hierarchy_per_cluster

            per_cluster = hierarchy_per_cluster(nodes)
        self.protocol = protocol
        self.nodes = nodes
        self.lines = lines
        self.symmetry = symmetry
        self.per_cluster = per_cluster
        self.group_size = group_order(nodes, lines, symmetry, per_cluster)
        #: ``(line order, picker)`` per line permutation: the order
        #: lists the old lines in their new order, and the picker
        #: takes a node's per-line cells in that order (``None`` for
        #: the identity, whose cells are already in order).
        orders = list(itertools.permutations(range(lines)))
        self._orders = [(orders[0], None)] + [
            (order, itemgetter(*order)) for order in orders[1:]
        ]
        #: ``(first, stop)`` node labels of each cluster; one cluster
        #: holding every node on a flat protocol.  Clusters of one node
        #: admit every node permutation, so they sort as one cluster too.
        size = nodes if per_cluster in (None, 1) else per_cluster
        self._clusters = [
            (start, start + size) for start in range(0, nodes, size)
        ]

    @cached_property
    def group(self) -> Tuple[Tuple[Perm, Perm], ...]:
        """The built symmetry group (the tests' oracle; never searched)."""
        return permutation_group(
            self.nodes, self.lines, self.symmetry, self.per_cluster
        )

    def canonical(self, state: tuple) -> tuple:
        """The canonical encoding of ``state`` (see the module docstring).

        ``state`` is an ``AbstractState`` whose cache triples list every
        (node, line) in row-major order and whose views are in line
        order, as the harnesses' ``snapshot`` builds them.
        """
        nodes, lines = self.nodes, self.lines
        caches, views = state
        views = [view for _, view in views]
        if self.symmetry == "none":
            identity = range(nodes)
            return (
                tuple([cell[2] for cell in caches]),
                tuple([relabel_view(view, identity) for view in views]),
            )
        roles = [_roles(view, nodes) for view in views]
        # cells[node][line] = (cache-state name, role in the line's view)
        cells = [
            tuple(
                [
                    (caches[node * lines + line][2], roles[line][node])
                    for line in range(lines)
                ]
            )
            for node in range(nodes)
        ]
        best = None
        for order, pick in self._orders:
            signatures = cells if pick is None else list(map(pick, cells))
            ranked = [
                sorted(zip(signatures[start:stop], range(start, stop)))
                for start, stop in self._clusters
            ]
            if len(ranked) > 1:
                # Whole clusters in the order of their sorted signatures.
                ranked.sort(key=_signatures)
            perm = [0] * nodes
            label = 0
            for cluster in ranked:
                for _, node in cluster:
                    perm[node] = label
                    label += 1
            encoded = (
                tuple(
                    [
                        name
                        for cluster in ranked
                        for signature, _ in cluster
                        for name, _ in signature
                    ]
                ),
                tuple([relabel_view(views[line], perm) for line in order]),
            )
            if best is None or encoded < best:
                best = encoded
        return best

    def fingerprint(self, state: tuple) -> str:
        return state_fingerprint(self.canonical(state))
