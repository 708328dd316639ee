"""Spec-driven expansion harnesses for the explorer.

Two ways to drive the explorer from the guarded-action specs in
:mod:`repro.spec`:

* :class:`SpecCheckedHarness` -- the ``--expansion spec`` mode.  It
  enumerates the enabled guarded actions to predict each step's
  successor set, executes the step on the live engine, and asserts
  the engine landed inside the prediction.  Because the engine still
  executes every step, a clean run's visited sets, counters and
  counterexamples are **bit-identical** to the plain
  :class:`~repro.check.state.EngineHarness` path -- the exhaustive
  search doubles as an exhaustive spec/engine equivalence proof.
  Divergence in either direction surfaces as a ``spec-divergence``
  counterexample with the usual minimal replayable script.

* :class:`SpecHarness` -- the ``--expansion spec-only`` mode.  No
  engine at all: steps execute purely on the abstract
  :class:`~repro.spec.interp.SpecMachine`, with structural SWMR /
  view-agreement checks standing in for the engine oracles.  It is
  exact for single-reference alphabets (``races=False``) -- a race
  step's committed order is engine arbitration the spec deliberately
  does not model -- and the explorer rejects it otherwise.

Both freeze into a :class:`~repro.check.state.HarnessImage` for
one-step expansion, and both are module-level classes, so the factory
itself pickles for ``jobs > 1`` frontier sharding.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.memory.states import CacheState

from repro.check.invariants import InvariantViolation
from repro.check.state import (
    EngineHarness,
    HarnessImage,
    StepSpec,
    _Freezer,
)
from repro.spec import spec_for
from repro.spec.interp import SpecDivergence, SpecMachine

__all__ = ["SpecCheckedHarness", "SpecHarness"]


def _machine_for(protocol: str, nodes: int, lines: int) -> SpecMachine:
    return SpecMachine(spec=spec_for(protocol), nodes=nodes, lines=lines)


def _refs_of(step: StepSpec) -> Tuple[Tuple[int, int, bool], ...]:
    return tuple((ref.node, ref.line, ref.is_write) for ref in step.refs)


class SpecCheckedHarness(EngineHarness):
    """Engine harness that cross-checks every step against the spec.

    ``spec_registry`` is a test hook: a ``{protocol: ProtocolSpec}``
    mapping that overrides :data:`repro.spec.SPECS` (mutation tests
    bind a perturbed spec here and let the explorer find the first
    script on which it disagrees with the engine).
    """

    spec_registry: Optional[dict] = None

    def __init__(self, protocol: str, nodes: int, lines: int) -> None:
        super().__init__(protocol, nodes, lines)
        self.machine = _machine_for(protocol, nodes, lines)
        if self.spec_registry and protocol in self.spec_registry:
            self.machine.spec = self.spec_registry[protocol]

    def apply(self, step: StepSpec) -> None:
        try:
            predicted = self.machine.step_successors(_refs_of(step))
        except SpecDivergence as exc:
            raise InvariantViolation(
                "spec-divergence",
                f"step {step.label()}: spec has no defined successor "
                f"({exc})",
            ) from exc
        super().apply(step)
        actual = self.snapshot()
        for machine in predicted:
            if machine.to_abstract() == actual:
                self.machine = machine
                return
        expected = " | ".join(
            str(machine.to_abstract()) for machine in predicted
        )
        raise InvariantViolation(
            "spec-divergence",
            f"step {step.label()}: engine reached {actual}, spec "
            f"predicts {expected}",
        )


class SpecHarness:
    """Engine-free harness: the spec *is* the transition system.

    Implements the harness protocol the explorer needs (``apply``,
    ``check``, ``snapshot``, ``clone``) over a
    :class:`~repro.spec.interp.SpecMachine`.  Structural checks
    replace the engine oracles: single-writer (at most one WE copy,
    and no other copy beside it), metadata/cache agreement (the view's
    sharer set must equal the actual holders, its dirty flag must
    match the presence of a WE copy), and bystander legality is
    implied by the rule semantics.  Race steps are rejected: which
    serialisation commits is engine arbitration, which the spec
    models only as a prediction *set* (see ``SpecCheckedHarness``).
    """

    def __init__(self, protocol: str, nodes: int, lines: int) -> None:
        self.protocol = protocol
        self.nodes = nodes
        self.lines = lines
        self.machine = _machine_for(protocol, nodes, lines)

    def apply(self, step: StepSpec) -> None:
        if step.is_race:
            raise ValueError(
                "SpecHarness is exact for single-reference steps only "
                "(races=False); use SpecCheckedHarness for race steps"
            )
        try:
            for node, line, is_write in _refs_of(step):
                self.machine.apply_ref(node, line, is_write)
        except SpecDivergence as exc:
            raise InvariantViolation(
                "spec-divergence",
                f"step {step.label()}: {exc}",
            ) from exc

    def check(self, *, strict: bool = True) -> None:
        for line in range(self.lines):
            holders = self._holders(line)
            writers = [
                node
                for node, state in holders.items()
                if state is CacheState.WE
            ]
            if len(writers) > 1 or (writers and len(holders) > 1):
                raise InvariantViolation(
                    "swmr",
                    f"line {line}: WE at {writers} alongside copies "
                    f"at {sorted(holders)}",
                )
            tag, dirty, body = self.machine.view_of(line)
            if dirty != bool(writers):
                raise InvariantViolation(
                    "agreement",
                    f"line {line}: view dirty={dirty} but writers "
                    f"are {writers}",
                )
            if tag in ("full-map", "list"):
                listed = set(body)
                actual = set(holders)
                mismatch = (
                    listed != actual if strict else not actual <= listed
                )
                if mismatch:
                    raise InvariantViolation(
                        "agreement",
                        f"line {line}: view lists sharers "
                        f"{sorted(listed)} but holders are "
                        f"{sorted(actual)}",
                    )
            elif dirty and writers and body != writers[0]:
                raise InvariantViolation(
                    "agreement",
                    f"line {line}: view owner {body} but WE copy is "
                    f"at node {writers[0]}",
                )

    def snapshot(self):
        return self.machine.to_abstract()

    def clone(self) -> HarnessImage:
        """Freeze this harness, like :meth:`EngineHarness.clone`."""
        freezer = _Freezer()
        freezer.dump(self)
        return freezer.image()

    def _holders(self, line: int) -> Dict[int, CacheState]:
        return {
            node: self.machine.caches[(node, line)]
            for node in range(self.nodes)
            if self.machine.caches[(node, line)] is not CacheState.INV
        }

    @classmethod
    def replay(
        cls,
        protocol: str,
        nodes: int,
        lines: int,
        script: Iterable[StepSpec],
        *,
        stop_before_last: bool = False,
        tracer: Optional[object] = None,
    ) -> "SpecHarness":
        steps: List[StepSpec] = list(script)
        if stop_before_last:
            steps = steps[:-1]
        harness = cls(protocol, nodes, lines)
        for step in steps:
            harness.apply(step)
        return harness
