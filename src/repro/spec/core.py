"""Guarded-action protocol specifications.

Each protocol's coherence transitions are written **once** as
:class:`GuardedAction` records -- ``(state, event) -> guard, actions,
next_state`` -- over the :class:`~repro.memory.states.CacheState`
vocabulary.  The record names the *requester's* line state before and
after, the guard over the line's coherence metadata that enables the
rule, and the ordered micro-actions (protocol-flavoured names, shared
generic semantics) the transaction performs.

One description, three consumers:

* the engines: at import :mod:`repro.sim.engine` derives a commit
  table from every spec, and each transaction commits through it
  (:meth:`~repro.sim.engine.CoherenceEngine.commit`);
* the model checker executes the spec through
  :mod:`repro.spec.interp` and cross-checks every engine step against
  the spec's predicted successors (``repro check explore
  --expansion spec``);
* the ``repro spec`` CLI prints and diffs the tables and runs the
  divergence check.

The module must stay observer-free -- only the standard library and
:mod:`repro.memory.states` may be imported here -- because the engine
base imports it, and the hot-path import lint must keep holding.
``tests/test_spec.py`` pins that with an AST lint.

Every spec in :data:`SPECS` is validated at import by
:func:`validate_spec`: action names must resolve, every commit a rule
can drive must be legal per ``ALLOWED_TRANSITIONS``, the requester's
``state -> next_state`` move must match the rule's actions, guards
within one ``(event, state)`` cell must not overlap, and the union of
commits across all protocols must equal ``ALLOWED_TRANSITIONS``
exactly -- no silently unreachable legality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.memory.states import (
    ALLOWED_TRANSITIONS,
    CacheState,
    IllegalTransition,
)

__all__ = [
    "EVENTS",
    "GUARDS",
    "OP_COMMITS",
    "SPECS",
    "Commit",
    "GuardedAction",
    "ProtocolSpec",
    "SpecValidationError",
    "commit_table",
    "diff_tables",
    "mutate_rule",
    "render_table",
    "spec_for",
    "validate_spec",
]

_INV = CacheState.INV
_RS = CacheState.RS
_WE = CacheState.WE

#: One cache-line commit: ``(action, before, after)`` in the
#: ``ALLOWED_TRANSITIONS`` vocabulary.
Commit = Tuple[str, CacheState, CacheState]

#: Events a rule may fire on.  ``read``/``write`` are processor
#: references; ``evict`` is frame replacement ahead of a fill.
EVENTS: Tuple[str, ...] = ("read", "write", "evict")

#: Guard predicates over the line's coherence metadata.  ``line-clean``
#: and ``line-dirty`` partition on the dirty bit; ``always`` is the
#: unconditional guard (hit and evict rules).
GUARDS: Tuple[str, ...] = ("always", "line-clean", "line-dirty")

#: Generic micro-action semantics and the cache-line commits each may
#: drive.  Protocol specs bind protocol-flavoured *names* to these ops
#: (``purge-walk`` and ``multicast-invalidate`` are both
#: ``invalidate-sharers``); the interpreter executes the op, the
#: commit-table derivation unions the commits.
#:
#: ``fill-shared`` legally commits from RS as well as INV: concurrent
#: shared-mode readers pipeline under a shared block lock, so a second
#: reader's fill can land on a line the first already installed.
OP_COMMITS: Mapping[str, Tuple[Commit, ...]] = {
    # requester-side commits
    "fill-shared": (("fill", _INV, _RS), ("fill", _RS, _RS)),
    "fill-exclusive": (("fill", _INV, _WE),),
    "upgrade-line": (("upgrade", _RS, _WE),),
    "drop-shared": (("evict", _RS, _INV),),
    "drop-owned": (("evict", _WE, _INV),),
    # remote-side commits
    "invalidate-sharers": (("invalidate", _RS, _INV),),
    "invalidate-owner": (("invalidate", _WE, _INV),),
    "downgrade-owner": (("downgrade", _WE, _RS),),
    # metadata-only micro-actions (no cache-line commit)
    "memory-writeback": (),
    "track-shared": (),
    "track-exclusive": (),
}

#: Ops that move the *requester's* line, and the (before -> after)
#: moves they permit.  Used to validate that a rule's ``state ->
#: next_state`` is actually achieved by its action list.
_REQUESTER_OPS: Mapping[str, Tuple[Tuple[CacheState, CacheState], ...]] = {
    "fill-shared": ((_INV, _RS), (_RS, _RS)),
    "fill-exclusive": ((_INV, _WE),),
    "upgrade-line": ((_RS, _WE),),
    "drop-shared": ((_RS, _INV),),
    "drop-owned": ((_WE, _INV),),
}


class SpecValidationError(IllegalTransition):
    """A guarded-action spec that fails structural validation."""


@dataclass(frozen=True)
class GuardedAction:
    """One transition rule: ``(state, event) -> guard, actions, next``.

    ``actions`` holds protocol-flavoured micro-action *names*; the
    owning :class:`ProtocolSpec` maps each name to its generic op.
    """

    name: str
    event: str
    state: CacheState
    guard: str
    actions: Tuple[str, ...]
    next_state: CacheState

    def describe(self) -> str:
        acts = ", ".join(self.actions) if self.actions else "-"
        return (
            f"({self.state.name}, {self.event}) [{self.guard}] "
            f"-> {acts} -> {self.next_state.name}"
        )


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol's full guarded-action transition table.

    ``actions`` maps the protocol's micro-action names to generic ops
    (keys of :data:`OP_COMMITS`); ``view_style`` names the coherence
    metadata shape the protocol exposes to the checker (``dirty-bit``,
    ``full-map`` or ``list``).
    """

    protocol: str
    view_style: str
    actions: Mapping[str, str]
    rules: Tuple[GuardedAction, ...]

    def rule(self, name: str) -> GuardedAction:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(f"{self.protocol} spec has no rule {name!r}")

    def op_of(self, action_name: str) -> str:
        try:
            return self.actions[action_name]
        except KeyError:
            raise SpecValidationError(
                f"{self.protocol} spec references unknown action "
                f"{action_name!r}"
            ) from None

    def rule_commits(self, rule: GuardedAction) -> Tuple[Commit, ...]:
        commits: List[Commit] = []
        for action_name in rule.actions:
            commits.extend(OP_COMMITS[self.op_of(action_name)])
        return tuple(commits)

    def commits(self) -> FrozenSet[Commit]:
        out: set = set()
        for rule in self.rules:
            out.update(self.rule_commits(rule))
        return frozenset(out)


def _common_rules(
    spec_actions: Mapping[str, str],
) -> Tuple[GuardedAction, ...]:
    """The shared MSI write-invalidate rule shape, over a protocol's
    action vocabulary (reverse-lookup by generic op)."""
    by_op: Dict[str, str] = {}
    for name, op in spec_actions.items():
        if op in by_op:
            raise SpecValidationError(
                f"two action names ({by_op[op]!r}, {name!r}) "
                f"bind the same op {op!r}"
            )
        by_op[op] = name

    def acts(*ops: str) -> Tuple[str, ...]:
        return tuple(by_op[op] for op in ops if op in by_op)

    return (
        GuardedAction("read-hit-shared", "read", _RS, "always", (), _RS),
        GuardedAction("read-hit-owned", "read", _WE, "always", (), _WE),
        GuardedAction(
            "read-miss-clean", "read", _INV, "line-clean",
            acts("fill-shared", "track-shared"), _RS,
        ),
        GuardedAction(
            "read-miss-dirty", "read", _INV, "line-dirty",
            acts(
                "downgrade-owner", "memory-writeback",
                "fill-shared", "track-shared",
            ),
            _RS,
        ),
        GuardedAction("write-hit", "write", _WE, "always", (), _WE),
        GuardedAction(
            "upgrade-clean", "write", _RS, "line-clean",
            acts("invalidate-sharers", "upgrade-line", "track-exclusive"),
            _WE,
        ),
        GuardedAction(
            "write-miss-clean", "write", _INV, "line-clean",
            acts("invalidate-sharers", "fill-exclusive", "track-exclusive"),
            _WE,
        ),
        GuardedAction(
            "write-miss-dirty", "write", _INV, "line-dirty",
            acts("invalidate-owner", "fill-exclusive", "track-exclusive"),
            _WE,
        ),
        GuardedAction(
            "evict-shared", "evict", _RS, "always", acts("drop-shared"), _INV
        ),
        GuardedAction(
            "evict-owned", "evict", _WE, "always", acts("drop-owned"), _INV
        ),
    )


def _spec(
    protocol: str, view_style: str, actions: Mapping[str, str]
) -> ProtocolSpec:
    return ProtocolSpec(
        protocol=protocol,
        view_style=view_style,
        actions=dict(actions),
        rules=_common_rules(actions),
    )


#: The five protocols, one guarded-action table each.  The rule shape
#: is the shared MSI write-invalidate machine; what differs is the
#: *mechanism* each protocol uses for the remote side -- broadcast
#: snoop, directory multicast, sharing-list walk -- and the metadata
#: it keeps, which is exactly what the action names and ``view_style``
#: record.
SPECS: Dict[str, ProtocolSpec] = {
    "snooping": _spec(
        "snooping",
        "dirty-bit",
        {
            "fill-shared": "fill-shared",
            "fill-exclusive": "fill-exclusive",
            "commit-upgrade": "upgrade-line",
            "set-dirty-bit": "track-exclusive",
            "snoop-invalidate": "invalidate-sharers",
            "owner-invalidate": "invalidate-owner",
            "snoop-downgrade": "downgrade-owner",
            "sharing-writeback": "memory-writeback",
            "drop-line": "drop-shared",
            "writeback-evict": "drop-owned",
        },
    ),
    "directory": _spec(
        "directory",
        "full-map",
        {
            "fill-shared": "fill-shared",
            "fill-exclusive": "fill-exclusive",
            "commit-upgrade": "upgrade-line",
            "dir-add-sharer": "track-shared",
            "dir-set-exclusive": "track-exclusive",
            "multicast-invalidate": "invalidate-sharers",
            "forward-invalidate": "invalidate-owner",
            "forward-downgrade": "downgrade-owner",
            "sharing-writeback": "memory-writeback",
            "dir-detach": "drop-shared",
            "writeback-evict": "drop-owned",
        },
    ),
    "linkedlist": _spec(
        "linkedlist",
        "list",
        {
            "fill-shared": "fill-shared",
            "fill-exclusive": "fill-exclusive",
            "commit-upgrade": "upgrade-line",
            "list-prepend": "track-shared",
            "list-set-exclusive": "track-exclusive",
            "purge-walk": "invalidate-sharers",
            "head-invalidate": "invalidate-owner",
            "head-downgrade": "downgrade-owner",
            "sharing-writeback": "memory-writeback",
            "list-rollout": "drop-shared",
            "writeback-evict": "drop-owned",
        },
    ),
    "bus": _spec(
        "bus",
        "dirty-bit",
        {
            "fill-shared": "fill-shared",
            "fill-exclusive": "fill-exclusive",
            "commit-upgrade": "upgrade-line",
            "set-dirty-bit": "track-exclusive",
            "bus-invalidate": "invalidate-sharers",
            "bus-owner-invalidate": "invalidate-owner",
            "bus-downgrade": "downgrade-owner",
            "sharing-writeback": "memory-writeback",
            "drop-line": "drop-shared",
            "writeback-evict": "drop-owned",
        },
    ),
    "hierarchical": _spec(
        "hierarchical",
        "dirty-bit",
        {
            "fill-shared": "fill-shared",
            "fill-exclusive": "fill-exclusive",
            "commit-upgrade": "upgrade-line",
            "set-dirty-bit": "track-exclusive",
            "interring-invalidate": "invalidate-sharers",
            "owner-invalidate": "invalidate-owner",
            "snoop-downgrade": "downgrade-owner",
            "sharing-writeback": "memory-writeback",
            "drop-line": "drop-shared",
            "writeback-evict": "drop-owned",
        },
    ),
}


def spec_for(protocol: str) -> ProtocolSpec:
    try:
        return SPECS[protocol]
    except KeyError:
        raise ValueError(
            f"unknown protocol {protocol!r}; "
            f"expected one of {sorted(SPECS)}"
        ) from None


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def validate_spec(spec: ProtocolSpec) -> None:
    """Structural validation of one protocol's table.

    Raises :class:`SpecValidationError` when an action name is
    unbound, a rule can drive a commit outside ``ALLOWED_TRANSITIONS``,
    a rule's ``state -> next_state`` move is not achieved by its
    actions, or two rules in the same ``(event, state)`` cell have
    overlapping guards (a nondeterministic spec).
    """
    for name, op in spec.actions.items():
        if op not in OP_COMMITS:
            raise SpecValidationError(
                f"{spec.protocol} action {name!r} binds unknown op {op!r}"
            )
    cells: Dict[Tuple[str, CacheState], List[GuardedAction]] = {}
    for rule in spec.rules:
        if rule.event not in EVENTS:
            raise SpecValidationError(
                f"{spec.protocol}/{rule.name}: unknown event {rule.event!r}"
            )
        if rule.guard not in GUARDS:
            raise SpecValidationError(
                f"{spec.protocol}/{rule.name}: unknown guard {rule.guard!r}"
            )
        for action, before, after in spec.rule_commits(rule):
            if (before, after) not in ALLOWED_TRANSITIONS.get(
                action, frozenset()
            ):
                raise SpecValidationError(
                    f"{spec.protocol}/{rule.name} drives illegal "
                    f"{action}: {before.name} -> {after.name}"
                )
        moves = [
            move
            for action_name in rule.actions
            for move in _REQUESTER_OPS.get(spec.op_of(action_name), ())
        ]
        if moves:
            if (rule.state, rule.next_state) not in moves:
                raise SpecValidationError(
                    f"{spec.protocol}/{rule.name}: actions move the "
                    f"requester {moves}, but the rule declares "
                    f"{rule.state.name} -> {rule.next_state.name}"
                )
        elif rule.next_state is not rule.state:
            raise SpecValidationError(
                f"{spec.protocol}/{rule.name}: no requester action, "
                f"yet declares {rule.state.name} -> "
                f"{rule.next_state.name}"
            )
        cells.setdefault((rule.event, rule.state), []).append(rule)
    for (event, state), rules in cells.items():
        guards = [rule.guard for rule in rules]
        if len(guards) != len(set(guards)) or (
            len(rules) > 1 and "always" in guards
        ):
            raise SpecValidationError(
                f"{spec.protocol}: overlapping guards {guards} for "
                f"({event}, {state.name})"
            )


def _validate_registry() -> None:
    union: set = set()
    for spec in SPECS.values():
        validate_spec(spec)
        for action, before, after in spec.commits():
            union.add((action, before, after))
    allowed = {
        (action, before, after)
        for action, pairs in ALLOWED_TRANSITIONS.items()
        for before, after in pairs
    }
    if union != allowed:
        missing = sorted(
            f"{a}:{b.name}->{c.name}" for a, b, c in allowed - union
        )
        extra = sorted(
            f"{a}:{b.name}->{c.name}" for a, b, c in union - allowed
        )
        raise SpecValidationError(
            "spec registry does not tile ALLOWED_TRANSITIONS "
            f"(missing {missing}, extra {extra})"
        )


# ----------------------------------------------------------------------
# Commit-table derivation (the ``repro spec --verify`` commit count)
# ----------------------------------------------------------------------
#: Canonical ordering of the derived table: action group order first,
#: then (before, after) in state-declaration order.
_ACTION_ORDER = ("fill", "upgrade", "invalidate", "downgrade", "evict")
_STATE_ORDER = (_INV, _RS, _WE)


def commit_table(protocol: str) -> Tuple[Commit, ...]:
    """The protocol's commits in canonical order, derived from its
    guarded-action spec: one tuple per distinct ``(action, before,
    after)`` transition the spec can commit."""
    commits = spec_for(protocol).commits()
    return tuple(
        sorted(
            commits,
            key=lambda commit: (
                _ACTION_ORDER.index(commit[0]),
                _STATE_ORDER.index(commit[1]),
                _STATE_ORDER.index(commit[2]),
            ),
        )
    )


# ----------------------------------------------------------------------
# Rendering and diffing (the ``repro spec`` CLI)
# ----------------------------------------------------------------------
def render_table(spec: ProtocolSpec) -> str:
    """Fixed-width text rendering of one protocol's table."""
    header = ("rule", "state", "event", "guard", "actions", "next")
    rows = [
        (
            rule.name,
            rule.state.name,
            rule.event,
            rule.guard,
            ", ".join(rule.actions) or "-",
            rule.next_state.name,
        )
        for rule in spec.rules
    ]
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows))
        for col in range(len(header))
    ]

    def fmt(row: Tuple[str, ...]) -> str:
        return "  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ).rstrip()

    rule = "  ".join("-" * width for width in widths)
    lines = [
        f"{spec.protocol} (view: {spec.view_style})",
        fmt(header),
        rule,
    ]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def diff_tables(left: ProtocolSpec, right: ProtocolSpec) -> str:
    """Rule-by-rule diff of two protocol tables.

    Lines are prefixed ``=`` (identical shape), ``~`` (same rule name,
    different actions -- the protocols' mechanisms differ) or ``-``/
    ``+`` (rule present on one side only).
    """
    lines = [f"--- {left.protocol}", f"+++ {right.protocol}"]
    left_rules = {rule.name: rule for rule in left.rules}
    right_rules = {rule.name: rule for rule in right.rules}
    for name in list(left_rules) + [
        name for name in right_rules if name not in left_rules
    ]:
        a, b = left_rules.get(name), right_rules.get(name)
        if a is None:
            lines.append(f"+ {name}: {b.describe()}")
        elif b is None:
            lines.append(f"- {name}: {a.describe()}")
        elif a.describe() == b.describe():
            lines.append(f"= {name}: {a.describe()}")
        else:
            lines.append(f"~ {name}:")
            lines.append(f"~   {left.protocol:<12} {a.describe()}")
            lines.append(f"~   {right.protocol:<12} {b.describe()}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Mutation (for the spec's own mutation tests)
# ----------------------------------------------------------------------
def mutate_rule(
    spec: ProtocolSpec,
    rule_name: str,
    *,
    guard: Optional[str] = None,
    next_state: Optional[CacheState] = None,
    drop_action: Optional[str] = None,
) -> ProtocolSpec:
    """A copy of ``spec`` with one rule perturbed, **not** validated.

    Mutation tests use this to prove the validator or the exhaustive
    explorer catches a single-field spec error; it deliberately skips
    :func:`validate_spec` so the mutant reaches the checker.
    """
    target = spec.rule(rule_name)
    changes: dict = {}
    if guard is not None:
        changes["guard"] = guard
    if next_state is not None:
        changes["next_state"] = next_state
    if drop_action is not None:
        if drop_action not in target.actions:
            raise KeyError(
                f"rule {rule_name!r} has no action {drop_action!r}"
            )
        changes["actions"] = tuple(
            action for action in target.actions if action != drop_action
        )
    mutated = replace(target, **changes)
    return replace(
        spec,
        rules=tuple(
            mutated if rule.name == rule_name else rule
            for rule in spec.rules
        ),
    )


_validate_registry()
