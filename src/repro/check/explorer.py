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
  data.  A state is frozen once into a
  :class:`~repro.check.state.HarnessImage`, and one generator,
  ``_expand``, expands it: it thaws one independent child per
  alphabet step, applies and checks the step, and yields the child's
  canonical encoding (or the violation, and stops) -- O(1) steps
  per expansion instead of replaying the entire script (O(depth)).
  Scripts are still carried on every frontier entry: a BFS node's
  script *is* its reproduction recipe, and BFS order guarantees the
  first violation found has a minimal script within the reduced
  search.  The visited set is keyed by the canonical encodings
  themselves; each distinct state is hashed to its fingerprint string
  once, at the end, for ``ExploreReport.visited_fingerprints``.
* **A sharded frontier** (``jobs > 1``).  Each BFS level is split
  into batches expanded on the :func:`repro.core.parallel.map_tasks`
  process pool.  Images never leave their process, so a worker
  rebuilds each entry with the harness's ``replay``, freezes it once
  and runs the same ``_expand``, returning only the records.  One
  loop consumes the records of either runner in deterministic
  entry/step order, so parallel runs produce **bit-identical**
  visited sets, counters and counterexamples to serial runs.

The search is pure: its answer depends only on its arguments, never on
what ran before.  Every configured search finishes in one run, so no
partial search is saved; a finished served ``check`` job is cached by
its job fingerprint in :func:`repro.serve.protocol.run_job` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.memory.states import IllegalTransition
from repro.ring.base import ProtocolError
from repro.check.state import (
    PROTOCOLS,
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
    state_fingerprint,
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
    """One frontier state: its script and, on a serial search, its image."""

    script: Tuple[StepSpec, ...]
    image: Optional[HarnessImage] = None


def _violation_kind(violation: BaseException) -> str:
    # InvariantViolation is a ProtocolError; IllegalTransition and
    # other ProtocolErrors are the engines' own built-in assertions
    # tripping before the oracle ran -- equally a bug.
    return getattr(violation, "kind", None) or (
        "illegal-transition"
        if isinstance(violation, IllegalTransition)
        else "protocol-error"
    )


def _expand(image: HarnessImage, alphabet, context: CanonicalContext):
    """Expand one frozen state by every alphabet step, in order.

    Yields ``(step_index, encoding, child)`` per step: the canonical
    encoding of the state the step reaches (a tuple, the visited set's
    key), and the thawed child itself.  A step that breaks an invariant
    yields ``(step_index, kind, message)`` instead and ends the
    expansion; its third field is a ``str``, a state's never is.  The
    generator is lazy, so the consumer tests (and freezes, if new) each
    child before the next one is thawed.
    """
    canonical = context.canonical
    for step_index, step in enumerate(alphabet):
        child = image.clone()
        try:
            child.apply(step)
            child.check(strict=True)
        except (ProtocolError, IllegalTransition) as violation:
            yield step_index, _violation_kind(violation), str(violation)
            return
        yield step_index, canonical(child.snapshot()), child


def _expand_batch(payload):
    """Worker: expand a batch of frontier scripts through :func:`_expand`.

    ``payload`` is ``(protocol, nodes, lines, races, symmetry,
    harness_factory, scripts)``.  Images never leave their process, so
    each script is rebuilt with the harness's own ``replay`` and frozen
    once (the only O(depth) cost, amortised over the whole alphabet).
    The children are dropped: a state's record comes back as
    ``(step_index, encoding, None)``.  Returns the records per script;
    the batch stops after its first violating script, where the
    coordinator stops reading.
    """
    protocol, nodes, lines, races, symmetry, factory, scripts = payload
    alphabet = step_alphabet(nodes, lines, races=races)
    context = CanonicalContext(protocol, nodes, lines, symmetry)
    expanded = []
    for script in scripts:
        image = factory.replay(protocol, nodes, lines, script).clone()
        records = [
            (step_index, outcome, detail if type(detail) is str else None)
            for step_index, outcome, detail in _expand(
                image, alphabet, context
            )
        ]
        expanded.append(records)
        if type(records[-1][2]) is str:
            break
    return expanded


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

    def serial_expansions(level: List[_Entry]):
        for entry in level:
            # The entry lets go of its image: the expansion holds the
            # last reference, so each image is freed once expanded.
            image, entry.image = entry.image, None
            yield entry, _expand(image, alphabet, context)

    def sharded_expansions(level: List[_Entry]):
        from repro.core.parallel import map_tasks

        size = -(-len(level) // (report.jobs * 4))
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
                    [entry.script for entry in level[start : start + size]],
                )
                for start in range(0, len(level), size)
            ],
            jobs=report.jobs,
        )
        # A batch cut short by a violation ends the search at that
        # entry, so the records line up with the level up to there.
        return zip(
            level, (records for expanded in outputs for records in expanded)
        )

    expansions = sharded_expansions if report.jobs > 1 else serial_expansions
    initial = harness_factory(protocol, nodes, lines)
    # Keyed by canonical encoding; each is hashed to its fingerprint
    # string once, at the end.
    visited = {context.canonical(initial.snapshot())}
    frontier = [_Entry(script=(), image=initial.clone())]
    # The frontier holds one BFS level at a time.
    depth = 0
    while frontier and report.ok and not report.truncated_by:
        depth += 1
        if depth > max_depth:
            report.truncated_by.append("max_depth")
            break
        next_frontier: List[_Entry] = []
        for entry, records in expansions(frontier):
            if len(visited) >= max_states:
                report.truncated_by.append("max_states")
                break
            report.states_expanded += 1
            for step_index, outcome, detail in records:
                if type(detail) is str:
                    report.counterexample = Counterexample(
                        protocol=protocol,
                        nodes=nodes,
                        lines=lines,
                        script=entry.script + (alphabet[step_index],),
                        kind=outcome,
                        message=detail,
                    )
                    break
                report.steps_applied += 1
                if outcome not in visited:
                    visited.add(outcome)
                    report.max_depth_reached = depth
                    next_frontier.append(
                        _Entry(
                            script=entry.script + (alphabet[step_index],),
                            image=None if detail is None else detail.clone(),
                        )
                    )
            if not report.ok:
                break
        frontier = next_frontier

    # Drained frontier with every bound intact: a full proof.
    report.complete = report.ok and not report.truncated_by
    report.states = len(visited)
    # One canonical form for the initial state, then one per transition.
    report.states_canonicalized = 1 + report.steps_applied
    report.visited_fingerprints = sorted(map(state_fingerprint, visited))
    return report
