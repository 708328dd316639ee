"""Parallel, symmetry-reduced exploration of small protocol configs.

In the spirit of the CSP/FDR models Meunier et al. built for
ring-based coherence (and of classic Murphi protocol verification),
the explorer enumerates every quiescent system state reachable from
the cold state under a bounded reference alphabet -- all single
references plus, optionally, all two-node concurrent "race" steps --
for a small configuration (2--4 nodes, 1--2 shared lines).  At every
newly reached state it asserts the full strict invariant set (SWMR,
directory--cache agreement, freshness, bystander legality, and
deadlock/livelock freedom during the drain).

Three mechanisms make the search CI-exhaustive at the
4-processor/2-line acceptance configuration instead of toy-only:

* **Symmetry reduction** (:mod:`repro.check.symmetry`).  States are
  canonicalized under processor and line relabeling before the
  visited-set test, so one representative per orbit is explored --
  a 4--12x cut in visited states at 4p/2l, measured per protocol in
  ``docs/CHECKING.md``.  ``symmetry="none"`` keeps the raw
  (identity-canonicalized) search as the equivalence oracle.
* **One-step expansions.**  Engine state lives in suspended processes
  *only between* events; at quiescence the whole harness is plain
  data.  When the search first reaches a state it freezes the harness
  once into a :class:`~repro.check.state.HarnessImage`, and the
  frontier entry holds that image, not a live harness.  Expanding the
  entry thaws one independent child per alphabet step and applies the
  step -- O(1) steps per expansion -- instead of replaying the entire
  script (O(depth)).  Scripts are still carried on every frontier
  entry: a BFS node's script *is* its reproduction recipe, and BFS
  order guarantees the first violation found has a minimal script
  within the reduced search.
* **A sharded frontier** (``jobs > 1``).  Each BFS level is split
  into batches expanded on the :func:`repro.core.parallel.map_tasks`
  process pool.  Images never leave their process, so a worker
  replays each entry's script once, freezes the result once, thaws
  one child per alphabet step, and returns ``(entry, step,
  canonical-fingerprint | violation)`` records.  The coordinator
  absorbs records in deterministic entry/step order, so parallel runs
  produce **bit-identical** visited sets, counters and
  counterexamples to serial runs.

The search is pure: its answer depends only on its arguments, never on
what ran before.  Every configured search finishes in one run, so no
partial search is saved; a finished served ``check`` job is cached by
its job fingerprint in :func:`repro.serve.protocol.run_job` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.check.invariants import InvariantViolation
from repro.memory.states import IllegalTransition
from repro.ring.base import ProtocolError
from repro.check.state import (
    PROTOCOLS,
    AbstractState,
    EngineHarness,
    HarnessImage,
    Ref,
    StepSpec,
    hierarchy_per_cluster,
)
from repro.check.specmode import SpecCheckedHarness, SpecHarness
from repro.check.symmetry import (
    MAX_GROUP_ORDER,
    SYMMETRY_MODES,
    CanonicalContext,
    group_order,
)

__all__ = [
    "EXPANSION_MODES",
    "Counterexample",
    "ExploreReport",
    "explore",
    "step_alphabet",
    "validate_setup",
]

#: Expansion modes: which harness expands frontier states.
#:
#: * ``"engine"``    -- the live engine (:class:`EngineHarness`).
#: * ``"spec"``      -- the engine cross-checked step-by-step against
#:   the guarded-action spec (:class:`SpecCheckedHarness`); clean runs
#:   are bit-identical to ``"engine"``, and any engine/spec mismatch
#:   becomes a ``spec-divergence`` counterexample.
#: * ``"spec-only"`` -- the spec alone (:class:`SpecHarness`), no
#:   engine; exact for ``races=False`` alphabets only.
EXPANSION_MODES: Dict[str, type] = {
    "engine": EngineHarness,
    "spec": SpecCheckedHarness,
    "spec-only": SpecHarness,
}

#: Golden counterexample schema version (tests pin the layout).
COUNTEREXAMPLE_SCHEMA = 1


@dataclass
class Counterexample:
    """A minimal failing script, replayable on a fresh engine."""

    protocol: str
    nodes: int
    lines: int
    script: Tuple[StepSpec, ...]
    kind: str
    message: str

    @property
    def depth(self) -> int:
        return len(self.script)

    def as_dict(self) -> dict:
        """Stable JSON-serialisable form (schema pinned by tests)."""
        return {
            "schema": COUNTEREXAMPLE_SCHEMA,
            "protocol": self.protocol,
            "nodes": self.nodes,
            "lines": self.lines,
            "violation": {"kind": self.kind, "message": self.message},
            "depth": self.depth,
            "script": [
                {
                    "step": index,
                    "label": step.label(),
                    "refs": [
                        {
                            "node": ref.node,
                            "line": ref.line,
                            "op": "write" if ref.is_write else "read",
                        }
                        for ref in step.refs
                    ],
                }
                for index, step in enumerate(self.script)
            ],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def replay(self, tracer: Optional[object] = None) -> EngineHarness:
        """Re-execute the failing script on a fresh engine.

        Raises the original violation again (same deterministic
        kernel); with ``tracer`` attached the failure run produces a
        full event trace for ``repro trace``-style inspection.
        """
        return EngineHarness.replay(
            self.protocol,
            self.nodes,
            self.lines,
            self.script,
            tracer=tracer,
        )

    def describe(self) -> str:
        steps = "\n".join(
            f"  {index + 1}. {step.label()}"
            for index, step in enumerate(self.script)
        )
        return (
            f"{self.kind} violation on {self.protocol} "
            f"({self.nodes} nodes, {self.lines} lines) after "
            f"{self.depth} step(s):\n{steps}\n  -> {self.message}"
        )


@dataclass
class ExploreReport:
    """Outcome of one :func:`explore` run.

    ``states`` counts *canonical* (orbit-representative) states; with
    ``symmetry="none"`` that equals the raw state count, which is how
    the reduction factor is measured.  ``complete`` is ``True`` only
    when the frontier drained with no bound hit -- a clean
    ``complete=False`` run is **not** a proof, and :meth:`summary`
    says so explicitly (``truncated_by`` names the bounds that bit).
    """

    protocol: str
    nodes: int
    lines: int
    states: int = 0
    steps_applied: int = 0
    states_expanded: int = 0
    states_canonicalized: int = 0
    replay_steps: int = 0
    max_depth_reached: int = 0
    complete: bool = False
    truncated_by: List[str] = field(default_factory=list)
    counterexample: Optional[Counterexample] = None
    alphabet_size: int = 0
    limits: Dict[str, int] = field(default_factory=dict)
    symmetry: str = "full"
    group_size: int = 1
    jobs: int = 1
    expansion: str = "engine"
    visited_fingerprints: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    @property
    def outcome(self) -> str:
        """``"violation"``, ``"exhaustive"`` or ``"truncated"``."""
        if self.counterexample is not None:
            return "violation"
        return "exhaustive" if self.complete else "truncated"

    def counters(self) -> Dict[str, int]:
        """Deterministic work counters (gated by ``repro bench``)."""
        return {
            "states": self.states,
            "steps_applied": self.steps_applied,
            "states_expanded": self.states_expanded,
            "states_canonicalized": self.states_canonicalized,
            "max_depth": self.max_depth_reached,
        }

    def summary(self) -> str:
        if not self.ok:
            return self.counterexample.describe()
        reduction = (
            f", symmetry group {self.group_size}"
            if self.symmetry != "none"
            else ", no symmetry reduction"
        )
        base = (
            f"{self.protocol}: {self.states} canonical states, "
            f"{self.steps_applied} transitions explored "
            f"(depth <= {self.max_depth_reached}, "
            f"alphabet {self.alphabet_size}{reduction}), "
            f"0 violations"
        )
        if self.complete:
            return base + " -- EXHAUSTIVE (state space fully explored)"
        bounds = ", ".join(self.truncated_by) or "bounds"
        return (
            base
            + f" -- TRUNCATED by {bounds}: bounded search, NOT an "
            "exhaustiveness proof"
        )


def step_alphabet(
    nodes: int, lines: int, *, races: bool = True
) -> List[StepSpec]:
    """Every step the explorer may take from any state.

    Single steps: each (node, line, read/write).  Race steps: each
    unordered pair of single references at *distinct* nodes (same-node
    pairs are sequential by definition -- a processor issues one
    reference at a time).
    """
    singles = [
        Ref(node, line, is_write)
        for node in range(nodes)
        for line in range(lines)
        for is_write in (False, True)
    ]
    steps = [StepSpec((ref,)) for ref in singles]
    if races:
        for i, first in enumerate(singles):
            for second in singles[i + 1 :]:
                if first.node != second.node:
                    steps.append(StepSpec((first, second)))
    return steps


def validate_setup(
    protocol: str,
    nodes: int,
    lines: int,
    symmetry: str = "full",
    *,
    expansion: str = "engine",
    races: bool = True,
) -> None:
    """Refuse a configuration the explorer cannot run, building nothing.

    Each ``ValueError`` names the offending field.  The symmetry group
    is sized by formula: ``nodes=12`` would otherwise materialise all
    12! node permutations before the first state is reached.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {protocol!r}; "
            f"expected one of {sorted(PROTOCOLS)}"
        )
    if symmetry not in SYMMETRY_MODES:
        raise ValueError(
            f"unknown symmetry mode {symmetry!r}; "
            f"expected one of {SYMMETRY_MODES}"
        )
    if nodes < 2:
        raise ValueError(f"nodes must be >= 2, got {nodes}")
    if lines < 1:
        raise ValueError(f"lines must be >= 1, got {lines}")
    per_cluster = (
        hierarchy_per_cluster(nodes) if protocol == "hierarchical" else None
    )
    order = group_order(nodes, lines, symmetry, per_cluster)
    if order > MAX_GROUP_ORDER:
        raise ValueError(
            f"nodes={nodes}, lines={lines}: symmetry group of order "
            f"{order} exceeds {MAX_GROUP_ORDER}; check fewer nodes or "
            f"lines"
        )
    if expansion not in EXPANSION_MODES:
        raise ValueError(
            f"unknown expansion mode {expansion!r}; "
            f"expected one of {sorted(EXPANSION_MODES)}"
        )
    if expansion == "spec-only" and races:
        raise ValueError(
            "expansion=spec-only is exact for races=False only "
            "(race arbitration belongs to the engine); use "
            "expansion='spec' to check race steps"
        )


@dataclass
class _Entry:
    """One frontier state: its script, and (when local) its image."""

    script: Tuple[StepSpec, ...]
    image: Optional[HarnessImage] = None

    @property
    def depth(self) -> int:
        return len(self.script)


def _violation_kind(violation: BaseException) -> str:
    # InvariantViolation is a ProtocolError; IllegalTransition and
    # other ProtocolErrors are the engines' own built-in assertions
    # tripping before the oracle ran -- equally a bug.
    return getattr(violation, "kind", None) or (
        "illegal-transition"
        if isinstance(violation, IllegalTransition)
        else "protocol-error"
    )


def _replay_entry(
    harness_factory, protocol: str, nodes: int, lines: int, script
):
    harness = harness_factory(protocol, nodes, lines)
    for step in script:
        harness.apply(step)
    return harness


def _expand_batch(payload):
    """Worker: expand a batch of frontier entries, one step each.

    ``payload`` is ``(protocol, nodes, lines, races, symmetry,
    harness_factory, entries)`` with ``entries`` a list of ``(position,
    script)`` pairs.  Each entry's prefix is replayed and frozen once
    (the only O(depth) cost, amortised over the whole alphabet), then
    every alphabet step runs on a child thawed from that image.
    Records come back in deterministic (position, step) order:

    * ``("state", step_index, fingerprint)`` -- canonical fingerprint
      of the reached state;
    * ``("violation", step_index, kind, message)`` -- the batch stops
      at the first violation (later records would be discarded by the
      coordinator anyway).
    """
    protocol, nodes, lines, races, symmetry, factory, entries = payload
    alphabet = step_alphabet(nodes, lines, races=races)
    context = CanonicalContext(protocol, nodes, lines, symmetry)
    results = []
    replayed = 0
    for position, script in entries:
        image = _replay_entry(factory, protocol, nodes, lines, script).clone()
        replayed += len(script)
        records: List[tuple] = []
        halted = False
        for step_index, step in enumerate(alphabet):
            child = image.clone()
            try:
                child.apply(step)
                child.check(strict=True)
            except (ProtocolError, IllegalTransition) as violation:
                records.append(
                    (
                        "violation",
                        step_index,
                        _violation_kind(violation),
                        str(violation),
                    )
                )
                halted = True
                break
            records.append(
                ("state", step_index, context.fingerprint(child.snapshot()))
            )
        results.append((position, records))
        if halted:
            break
    return results, replayed


def explore(
    protocol: str,
    nodes: int = 2,
    lines: int = 1,
    *,
    races: bool = True,
    max_depth: int = 12,
    max_states: int = 20_000,
    symmetry: str = "full",
    jobs: int = 1,
    expansion: str = "engine",
    harness_factory=EngineHarness,
) -> ExploreReport:
    """BFS the quiescent state space; stop at the first violation.

    ``symmetry`` selects the canonicalization group (``"full"`` =
    processor x line relabeling, cluster-respecting on the
    hierarchical ring; ``"none"`` = identity, the raw-space oracle).
    ``jobs > 1`` shards each BFS level across the process pool --
    results are bit-identical to serial.

    ``expansion`` selects what expands frontier states (see
    :data:`EXPANSION_MODES`): the engine alone, the engine
    cross-checked against the guarded-action spec (``"spec"``,
    bit-identical to ``"engine"`` when they agree -- any mismatch is a
    ``spec-divergence`` counterexample), or the spec alone
    (``"spec-only"``, which requires ``races=False``).

    ``harness_factory`` lets tests substitute a harness whose engine
    (or spec) carries an injected bug (mutation testing); for
    ``jobs > 1`` it must be picklable (a module-level class).  It is
    mutually exclusive with a non-default ``expansion``.

    The search is exhaustive (``complete=True``) when it drains the
    frontier without hitting ``max_depth`` or ``max_states``; both
    bounds exist only as safety rails for configs larger than the
    checker's design point, and a bounded clean run reports itself as
    truncated, never as a proof.

    Raises ``ValueError`` (see :func:`validate_setup`) before building
    anything when the configuration is out of range.
    """
    validate_setup(
        protocol, nodes, lines, symmetry, expansion=expansion, races=races
    )
    if expansion != "engine":
        if harness_factory is not EngineHarness:
            raise ValueError(
                "expansion and harness_factory are mutually exclusive"
            )
        harness_factory = EXPANSION_MODES[expansion]
    alphabet = step_alphabet(nodes, lines, races=races)
    context = CanonicalContext(protocol, nodes, lines, symmetry)
    report = ExploreReport(
        protocol=protocol,
        nodes=nodes,
        lines=lines,
        alphabet_size=len(alphabet),
        limits={"max_depth": max_depth, "max_states": max_states},
        symmetry=symmetry,
        group_size=context.group_size,
        jobs=max(1, jobs),
        expansion=expansion,
    )

    initial = harness_factory(protocol, nodes, lines)
    visited = {context.fingerprint(initial.snapshot())}
    frontier: List[_Entry] = [_Entry(script=(), image=initial.clone())]
    report.states = 1
    report.states_canonicalized = 1

    def absorb_state(entry: _Entry, step: StepSpec, fingerprint: str,
                     depth: int, harness) -> None:
        report.steps_applied += 1
        report.states_canonicalized += 1
        if fingerprint in visited:
            return
        visited.add(fingerprint)
        report.states += 1
        report.max_depth_reached = max(report.max_depth_reached, depth)
        next_frontier.append(
            _Entry(
                script=entry.script + (step,),
                image=None if harness is None else harness.clone(),
            )
        )

    def absorb_violation(entry: _Entry, step: StepSpec, kind: str,
                         message: str) -> None:
        report.counterexample = Counterexample(
            protocol=protocol,
            nodes=nodes,
            lines=lines,
            script=entry.script + (step,),
            kind=kind,
            message=message,
        )

    while frontier and report.counterexample is None:
        depth = min(entry.depth for entry in frontier) + 1
        if depth > max_depth:
            report.truncated_by.append("max_depth")
            break
        level = [entry for entry in frontier if entry.depth + 1 == depth]
        carried = [entry for entry in frontier if entry.depth + 1 != depth]
        next_frontier: List[_Entry] = []
        truncated_at: Optional[int] = None

        if report.jobs > 1:
            positions = list(range(len(level)))
            batch_size = max(
                1, (len(level) + report.jobs * 4 - 1) // (report.jobs * 4)
            )
            batches = [
                positions[start : start + batch_size]
                for start in range(0, len(positions), batch_size)
            ]
            from repro.core.parallel import map_tasks

            outputs = map_tasks(
                _expand_batch,
                [
                    (
                        protocol,
                        nodes,
                        lines,
                        races,
                        symmetry,
                        harness_factory,
                        [(pos, level[pos].script) for pos in batch],
                    )
                    for batch in batches
                ],
                jobs=report.jobs,
            )
            records_for: Dict[int, list] = {}
            for results, replayed in outputs:
                report.replay_steps += replayed
                for position, records in results:
                    records_for[position] = records
            for position, entry in enumerate(level):
                if len(visited) >= max_states:
                    truncated_at = position
                    break
                report.states_expanded += 1
                for record in records_for.get(position, ()):
                    if record[0] == "violation":
                        _, step_index, kind, message = record
                        absorb_violation(
                            entry, alphabet[step_index], kind, message
                        )
                        break
                    _, step_index, fingerprint = record
                    absorb_state(
                        entry, alphabet[step_index], fingerprint, depth,
                        harness=None,
                    )
                if report.counterexample is not None:
                    break
        else:
            for position, entry in enumerate(level):
                if len(visited) >= max_states:
                    truncated_at = position
                    break
                if entry.image is None:
                    entry.image = _replay_entry(
                        harness_factory, protocol, nodes, lines, entry.script
                    ).clone()
                    report.replay_steps += len(entry.script)
                report.states_expanded += 1
                for step in alphabet:
                    child = entry.image.clone()
                    try:
                        child.apply(step)
                        child.check(strict=True)
                    except (
                        ProtocolError,
                        IllegalTransition,
                    ) as violation:
                        absorb_violation(
                            entry, step, _violation_kind(violation),
                            str(violation),
                        )
                        break
                    absorb_state(
                        entry,
                        step,
                        context.fingerprint(child.snapshot()),
                        depth,
                        harness=child,
                    )
                entry.image = None  # free the image promptly
                if report.counterexample is not None:
                    break

        if report.counterexample is not None:
            break
        if truncated_at is not None:
            report.truncated_by.append("max_states")
            break
        frontier = carried + next_frontier

    # Drained frontier with every bound intact: a full proof.
    if report.counterexample is None and not report.truncated_by:
        report.complete = True

    report.visited_fingerprints = sorted(visited)
    return report
