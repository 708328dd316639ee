"""Abstract interpreter for the guarded-action protocol specs.

Executes a :class:`~repro.spec.core.ProtocolSpec` over the checker's
abstract state -- a per-(node, line) cache-state matrix plus per-line
coherence metadata (a dirty flag and an ordered sharer chain, newest
first).  From that single metadata shape every protocol's
``coherence_view`` is derived (``view_style``):

* ``dirty-bit`` -- ``(tag, dirty, owner-if-dirty)``; the owner is the
  chain head (the last writer).
* ``full-map``  -- ``(tag, dirty, sorted(chain))``: presence bits.
* ``list``      -- ``(tag, dirty, chain)``: SCI order, head first.

:func:`to_abstract` emits exactly the ``AbstractState`` tuples the
engine harness snapshots, so spec-predicted and engine-observed states
compare by equality.

Reference semantics mirror the engines' classify-then-requalify
behaviour: a rule is selected by the requester's *current* line state
and the guard over the line's *current* metadata.  For a two-reference
race step the interpreter predicts the **set** of both serialisation
orders (the engines serialise racing transactions under the block lock
and requalify the loser, so the committed outcome is always one of the
two sequential orders); :func:`step_successors` returns that set and
the checker asserts membership.

This module may be imported from engine import paths, so like
:mod:`repro.spec.core` it must not import observers, the checker, or
numpy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.memory.states import CacheState

from repro.spec.core import GuardedAction, ProtocolSpec

__all__ = [
    "SpecDivergence",
    "SpecMachine",
    "select_rule",
]

_INV = CacheState.INV
_RS = CacheState.RS
_WE = CacheState.WE


class SpecDivergence(Exception):
    """The spec has no (or no unique) enabled rule for a reference.

    In a correct spec this is unreachable from the cold state; the
    checker surfaces it as a ``spec-divergence`` violation.
    """


@dataclass
class _LineMeta:
    """Coherence metadata for one line: dirty flag + sharer chain
    (newest first; the head is the owner while dirty)."""

    dirty: bool = False
    chain: Tuple[int, ...] = ()


@dataclass
class SpecMachine:
    """The abstract system state a spec executes over.

    Plain data throughout -- ``clone`` is a deep copy, which is what
    lets the explorer expand spec states exactly like engine states.
    """

    spec: ProtocolSpec
    nodes: int
    lines: int
    caches: Dict[Tuple[int, int], CacheState] = field(default_factory=dict)
    meta: Dict[int, _LineMeta] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.caches:
            self.caches = {
                (node, line): _INV
                for node in range(self.nodes)
                for line in range(self.lines)
            }
        if not self.meta:
            self.meta = {line: _LineMeta() for line in range(self.lines)}

    def clone(self) -> "SpecMachine":
        return copy.deepcopy(self)

    # ------------------------------------------------------------------
    # Reference execution
    # ------------------------------------------------------------------
    def apply_ref(self, node: int, line: int, is_write: bool) -> None:
        """Fire the unique enabled rule for one reference."""
        rule = select_rule(
            self.spec,
            "write" if is_write else "read",
            self.caches[(node, line)],
            self.meta[line].dirty,
        )
        self._fire(rule, node, line)

    def _fire(self, rule: GuardedAction, node: int, line: int) -> None:
        meta = self.meta[line]
        for action_name in rule.actions:
            op = self.spec.op_of(action_name)
            if op == "fill-shared":
                self.caches[(node, line)] = _RS
            elif op == "fill-exclusive":
                self.caches[(node, line)] = _WE
            elif op == "upgrade-line":
                self.caches[(node, line)] = _WE
            elif op == "track-shared":
                meta.chain = (node,) + tuple(
                    sharer for sharer in meta.chain if sharer != node
                )
                meta.dirty = False
            elif op == "track-exclusive":
                meta.chain = (node,)
                meta.dirty = True
            elif op == "invalidate-sharers":
                victims = [
                    other
                    for other in range(self.nodes)
                    if other != node
                    and self.caches[(other, line)] is not _INV
                ]
                for victim in victims:
                    self.caches[(victim, line)] = _INV
                meta.chain = tuple(
                    sharer for sharer in meta.chain if sharer not in victims
                )
            elif op == "invalidate-owner":
                owner = self._owner(line, rule)
                self.caches[(owner, line)] = _INV
                meta.chain = tuple(
                    sharer for sharer in meta.chain if sharer != owner
                )
            elif op == "downgrade-owner":
                self.caches[(self._owner(line, rule), line)] = _RS
            elif op == "memory-writeback":
                meta.dirty = False
            elif op in ("drop-shared", "drop-owned"):
                self.caches[(node, line)] = _INV
                meta.chain = tuple(
                    sharer for sharer in meta.chain if sharer != node
                )
                if op == "drop-owned":
                    meta.dirty = False
            else:
                raise SpecDivergence(
                    f"{self.spec.protocol}/{rule.name}: "
                    f"uninterpretable op {op!r}"
                )
        self.caches[(node, line)] = rule.next_state

    def _owner(self, line: int, rule: GuardedAction) -> int:
        meta = self.meta[line]
        if not meta.chain:
            raise SpecDivergence(
                f"{self.spec.protocol}/{rule.name}: line {line} has no "
                f"owner to act on (chain empty)"
            )
        return meta.chain[0]

    # ------------------------------------------------------------------
    # Step prediction
    # ------------------------------------------------------------------
    def step_successors(
        self, refs: Sequence[Tuple[int, int, bool]]
    ) -> List["SpecMachine"]:
        """Successor set for one checker step (1 ref, or a 2-ref race).

        A single reference has exactly one successor.  A race step
        yields one successor per serialisation order, deduplicated by
        abstract state -- the engines' block lock serialises the racing
        transactions and requalifies the loser, so the committed
        outcome is always one of these.
        """
        orders = (
            [tuple(refs)]
            if len(refs) == 1
            else [tuple(refs), tuple(reversed(list(refs)))]
        )
        successors: List[SpecMachine] = []
        seen = set()
        for order in orders:
            machine = self.clone()
            for node, line, is_write in order:
                machine.apply_ref(node, line, is_write)
            abstract = machine.to_abstract()
            if abstract not in seen:
                seen.add(abstract)
                successors.append(machine)
        return successors

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def view_of(self, line: int) -> tuple:
        meta = self.meta[line]
        style = self.spec.view_style
        if style == "dirty-bit":
            owner = meta.chain[0] if meta.dirty and meta.chain else None
            return (style, meta.dirty, owner)
        if style == "full-map":
            return (style, meta.dirty, tuple(sorted(meta.chain)))
        if style == "list":
            return (style, meta.dirty, tuple(meta.chain))
        raise SpecDivergence(
            f"{self.spec.protocol}: unknown view style {style!r}"
        )

    def to_abstract(self):
        """The same ``AbstractState`` shape the engine harness emits."""
        caches = tuple(
            (node, line, self.caches[(node, line)].name)
            for node in range(self.nodes)
            for line in range(self.lines)
        )
        views = tuple(
            (line, self.view_of(line)) for line in range(self.lines)
        )
        return (caches, views)


def select_rule(
    spec: ProtocolSpec, event: str, state: CacheState, dirty: bool
) -> GuardedAction:
    """The unique rule enabled for ``(event, state)`` under the line's
    metadata; raises :class:`SpecDivergence` on zero or several."""
    enabled = [
        rule
        for rule in spec.rules
        if rule.event == event
        and rule.state is state
        and (
            rule.guard == "always"
            or (rule.guard == "line-dirty") == dirty
        )
    ]
    if len(enabled) != 1:
        names = [rule.name for rule in enabled] or "none"
        raise SpecDivergence(
            f"{spec.protocol}: {len(enabled)} rules enabled for "
            f"({event}, {state.name}, "
            f"{'dirty' if dirty else 'clean'}): {names}"
        )
    return enabled[0]
