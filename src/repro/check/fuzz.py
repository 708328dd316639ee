"""Seeded random-walk fuzzing of configurations beyond explorer scale.

Exhaustive exploration saturates at 2--4 nodes; the behaviours the
paper actually measures (8--16 nodes, many lines, eviction pressure)
live in state spaces far too large to enumerate.  The fuzzer covers
them probabilistically: long seeded walks through the same
:class:`~repro.check.state.EngineHarness` step machinery, with every
drained step judged by the same strict invariant oracle the explorer
uses.  Randomness comes from :class:`repro.sim.rng.DeterministicRng`,
so any reported violation carries its seed and step index and replays
bit-identically.

Walk shape: mostly single references (exact freshness oracle), a
configurable fraction of two-node race steps (lock/commit
interleavings), over a line pool sized to exceed the cache (conflict
evictions and write-backs included in the walk).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.check.explorer import validate_setup
from repro.check.invariants import InvariantViolation
from repro.check.state import EngineHarness, Ref, StepSpec
from repro.memory.states import IllegalTransition
from repro.ring.base import ProtocolError
from repro.sim.rng import DeterministicRng

__all__ = [
    "FuzzBatchReport",
    "FuzzReport",
    "fuzz",
    "fuzz_many",
    "validate_walks",
]


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz` walk."""

    protocol: str
    nodes: int
    lines: int
    seed: int
    steps_applied: int = 0
    races_applied: int = 0
    violation_kind: Optional[str] = None
    violation_message: Optional[str] = None
    failing_step: Optional[int] = None
    script: Tuple[StepSpec, ...] = ()

    @property
    def ok(self) -> bool:
        return self.violation_kind is None

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.protocol}: {self.steps_applied} steps "
                f"({self.races_applied} races) at {self.nodes} nodes / "
                f"{self.lines} lines, seed {self.seed}: 0 violations"
            )
        return (
            f"{self.protocol}: {self.violation_kind} violation at step "
            f"{self.failing_step} (seed {self.seed}, {self.nodes} "
            f"nodes, {self.lines} lines): {self.violation_message}"
        )


def _random_step(
    rng: DeterministicRng,
    nodes: int,
    lines: int,
    write_fraction: float,
    race_fraction: float,
) -> StepSpec:
    def one_ref(node: int) -> Ref:
        return Ref(
            node,
            rng.randint(0, lines - 1),
            rng.bernoulli(write_fraction),
        )

    first = one_ref(rng.randint(0, nodes - 1))
    if nodes > 1 and rng.bernoulli(race_fraction):
        other = rng.randint(0, nodes - 2)
        if other >= first.node:
            other += 1
        second = one_ref(other)
        return StepSpec(tuple(sorted((first, second))))
    return StepSpec((first,))


def validate_walks(
    protocol: str, nodes: int, lines: int, steps: int, num_seeds: int = 1
) -> None:
    """Refuse a campaign the fuzzer cannot run, building nothing.

    The explorer's checks without a symmetry group (a walk needs none),
    plus at least one step and one walk.  Each ``ValueError`` starts
    with the field it refuses.
    """
    validate_setup(protocol, nodes, lines, "none")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be >= 1, got {num_seeds}")


def fuzz(
    protocol: str,
    nodes: int = 8,
    lines: int = 24,
    steps: int = 10_000,
    seed: int = 1,
    *,
    write_fraction: float = 0.35,
    race_fraction: float = 0.25,
    check_every: int = 1,
    harness_factory=EngineHarness,
) -> FuzzReport:
    """One seeded random walk; stops at the first violation.

    ``check_every`` > 1 trades oracle coverage for speed on very long
    walks (the freshness and bystander checks inside the harness still
    run every step).  The failing script prefix is kept in the report,
    so a violation replays without re-deriving the walk.
    """
    validate_walks(protocol, nodes, lines, steps)
    rng = DeterministicRng(seed)
    harness = harness_factory(protocol, nodes, lines)
    report = FuzzReport(
        protocol=protocol, nodes=nodes, lines=lines, seed=seed
    )
    script: List[StepSpec] = []
    for index in range(steps):
        step = _random_step(
            rng, nodes, lines, write_fraction, race_fraction
        )
        script.append(step)
        try:
            harness.apply(step)
            if (index + 1) % check_every == 0:
                harness.check(strict=True)
        except (ProtocolError, IllegalTransition) as violation:
            report.violation_kind = getattr(violation, "kind", None) or (
                "illegal-transition"
                if isinstance(violation, IllegalTransition)
                else "protocol-error"
            )
            report.violation_message = str(violation)
            report.failing_step = index
            report.script = tuple(script)
            return report
        report.steps_applied += 1
        report.races_applied += step.is_race
    return report


@dataclass
class FuzzBatchReport:
    """Outcome of a :func:`fuzz_many` campaign (one report per seed)."""

    protocol: str
    nodes: int
    lines: int
    base_seed: int
    reports: Tuple[FuzzReport, ...] = ()

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def steps_applied(self) -> int:
        return sum(report.steps_applied for report in self.reports)

    @property
    def failures(self) -> Tuple[FuzzReport, ...]:
        return tuple(r for r in self.reports if not r.ok)

    def first_failure(self) -> Optional[FuzzReport]:
        return self.failures[0] if self.failures else None

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.protocol}: {len(self.reports)} walks, "
                f"{self.steps_applied} total steps at {self.nodes} "
                f"nodes / {self.lines} lines (base seed "
                f"{self.base_seed}): 0 violations"
            )
        failing = ", ".join(str(r.seed) for r in self.failures)
        return (
            f"{self.protocol}: {len(self.failures)} of "
            f"{len(self.reports)} walks failed (seeds {failing}); "
            f"first: {self.first_failure().summary()}"
        )


def _fuzz_worker(payload) -> FuzzReport:
    kwargs = dict(payload)
    return fuzz(
        kwargs.pop("protocol"),
        kwargs.pop("nodes"),
        kwargs.pop("lines"),
        kwargs.pop("steps"),
        kwargs.pop("seed"),
        **kwargs,
    )


def fuzz_many(
    protocol: str,
    nodes: int = 8,
    lines: int = 24,
    steps: int = 10_000,
    seed: int = 1,
    *,
    num_seeds: int = 4,
    jobs: int = 1,
    write_fraction: float = 0.35,
    race_fraction: float = 0.25,
    check_every: int = 1,
    harness_factory=EngineHarness,
) -> FuzzBatchReport:
    """``num_seeds`` independent walks, optionally sharded over a pool.

    Walk ``i`` runs with :func:`repro.core.parallel.derive_seed`
    ``(seed, i)`` -- the per-walk seed depends only on the base seed
    and the walk's index, never on worker scheduling, so serial and
    parallel campaigns find exactly the same violations and every
    finding replays as a plain :func:`fuzz` call with the derived
    seed.  Walks never stop early on another walk's failure: the batch
    verdict is the same regardless of ordering.
    """
    from repro.core.parallel import derive_seed, map_tasks

    validate_walks(protocol, nodes, lines, steps, num_seeds)
    payloads = [
        (
            ("protocol", protocol),
            ("nodes", nodes),
            ("lines", lines),
            ("steps", steps),
            ("seed", derive_seed(seed, index)),
            ("write_fraction", write_fraction),
            ("race_fraction", race_fraction),
            ("check_every", check_every),
            ("harness_factory", harness_factory),
        )
        for index in range(num_seeds)
    ]
    reports = map_tasks(_fuzz_worker, payloads, jobs=jobs)
    return FuzzBatchReport(
        protocol=protocol,
        nodes=nodes,
        lines=lines,
        base_seed=seed,
        reports=tuple(reports),
    )
