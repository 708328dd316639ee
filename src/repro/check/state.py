"""State abstraction, replay harness and state images for the checker.

The coherence engines are process-oriented: their in-flight state
lives in suspended Python generators, which can be neither copied nor
pickled.  The checker therefore never snapshots a *live* engine.
Instead it works over **quiescent** abstract states -- the engine
after the event heap has drained -- and reaches any such state either
by *replaying* a script of reference steps on a freshly built engine,
or by *thawing* an image of a quiescent harness (below).  A BFS node's
script stays its reproduction recipe either way, which gives the
explorer minimal counterexamples for free.

A step is one or two concurrent references (the two-reference "race"
steps exercise the shared-lock, snapshot and gated-commit paths that
sequential replay alone cannot reach).  After spawning the refs the
harness drains the heap under a generous horizon; a heap that outlives
the horizon is reported as divergence (livelock), stuck processes as
deadlock.

On top of the structural invariants the harness keeps a **freshness
oracle**: a shadow version counter per line plus the version each
node's copy was sourced from.  A node that hits on a copy older than
the line's current version has read a stale value -- the data-value
coherence bug that SWMR violations cause but that metadata checks
alone can miss.  The oracle is exact for single-reference steps; after
a race step the interleaving chosen by the event loop decides which
write is last, so the oracle resynchronises instead of judging.

**Freeze once, thaw per step.**  At quiescence the whole harness --
caches, directories, locks, statistics, clock, sequence counter -- is
plain data.  :meth:`EngineHarness.clone` freezes it once into a
:class:`HarnessImage`: ``pickle`` protocol-5 bytes plus a side table of
objects the bytes refer to by persistent id instead of copying.  The
table holds every class object (so harness classes defined inside a
function, which plain pickle rejects, thaw to that same class), every
enum member, and the immutable configuration tree (``SystemConfig``
and its parts, ``FrameLayout``, ``RingTopology``, ``ProtocolSpec``).
No step mutates those: they are frozen dataclasses, and after
construction the only writes to them are ``cached_property`` values
derived from their own fields.  :meth:`HarnessImage.clone` thaws one
independent harness from the image, whose future behaviour is
bit-identical to replaying the frozen harness's script on a fresh
engine.  Images live only in the process that froze them; they are
never stored.
"""

from __future__ import annotations

import enum
import io
import pickle
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import (
    BusConfig,
    CacheConfig,
    MemoryConfig,
    ProcessorConfig,
    Protocol,
    RingConfig,
    SystemConfig,
)
from repro.memory.cache import AccessOutcome
from repro.memory.states import CacheState
from repro.ring.slots import FrameLayout
from repro.ring.topology import RingTopology
from repro.sim.kernel import Simulator
from repro.spec.core import ProtocolSpec

from repro.check.invariants import InvariantViolation, check_addresses

__all__ = [
    "DRAIN_HORIZON_PS",
    "HIERARCHY_CLUSTERS",
    "PROTOCOLS",
    "Ref",
    "StepSpec",
    "AbstractState",
    "EngineHarness",
    "HarnessImage",
    "hierarchy_per_cluster",
]

#: 50 ms of simulated time -- orders of magnitude beyond any legal
#: transaction at checker scale.  A heap still live past this horizon
#: is divergence, not latency.
DRAIN_HORIZON_PS = 50_000_000_000

#: Protocols the checker drives, keyed by CLI spelling.
PROTOCOLS: Dict[str, Protocol] = {
    "snooping": Protocol.SNOOPING,
    "directory": Protocol.DIRECTORY,
    "linkedlist": Protocol.LINKED_LIST,
    "bus": Protocol.BUS,
    "hierarchical": Protocol.HIERARCHICAL,
}

#: Checker configurations of the hierarchical ring always use two
#: local rings: the smallest hierarchy that exercises every
#: inter-cluster path, and the one the symmetry group is built for.
HIERARCHY_CLUSTERS = 2


def hierarchy_per_cluster(nodes: int) -> int:
    """Nodes per local ring at checker scale (and a validity check)."""
    if nodes % HIERARCHY_CLUSTERS:
        raise ValueError(
            f"nodes must be even for hierarchical checking "
            f"(got {nodes}: {HIERARCHY_CLUSTERS} equal clusters)"
        )
    return nodes // HIERARCHY_CLUSTERS

#: State changes a *bystander* -- a (node, line) pair not referenced in
#: the current step -- may legally undergo: invalidation, downgrade, or
#: nothing.  A bystander that gains a copy or gains write permission
#: marks a protocol bug regardless of any metadata agreement.
_LEGAL_BYSTANDER = frozenset(
    {
        (CacheState.INV, CacheState.INV),
        (CacheState.RS, CacheState.RS),
        (CacheState.WE, CacheState.WE),
        (CacheState.RS, CacheState.INV),
        (CacheState.WE, CacheState.RS),
        (CacheState.WE, CacheState.INV),
    }
)


@dataclass(frozen=True, order=True)
class Ref:
    """One processor reference: ``node`` touches shared line ``line``."""

    node: int
    line: int
    is_write: bool

    def label(self) -> str:
        return f"{'W' if self.is_write else 'R'}(n{self.node},l{self.line})"


@dataclass(frozen=True)
class StepSpec:
    """One explorer step: 1 ref, or 2 concurrent refs (a race)."""

    refs: Tuple[Ref, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.refs) <= 2:
            raise ValueError("a step holds one or two references")

    @property
    def is_race(self) -> bool:
        return len(self.refs) > 1

    def label(self) -> str:
        inner = " || ".join(ref.label() for ref in self.refs)
        return f"[{inner}]" if self.is_race else inner


#: Hashable canonical form of a quiescent system state: per-(node,
#: line) cache states plus each line's coherence metadata view.  Two
#: scripts reaching the same AbstractState are protocol-equivalent for
#: every future step, which is what makes the BFS visited-set sound.
AbstractState = Tuple[
    Tuple[Tuple[int, int, str], ...],  # (node, line, cache-state name)
    Tuple[Tuple[int, tuple], ...],  # (line, coherence_view)
]


#: Immutable configuration objects an image shares with its harness
#: by reference instead of copying (see the module docstring).
_SHARED_TYPES = frozenset(
    {
        BusConfig,
        CacheConfig,
        FrameLayout,
        MemoryConfig,
        ProcessorConfig,
        ProtocolSpec,
        RingConfig,
        RingTopology,
        SystemConfig,
    }
)

#: Types that are never shared: the bulk of a harness, skipped first.
_COPIED_TYPES = frozenset(
    {int, str, float, bool, bytes, list, dict, tuple, set, type(None)}
)


class HarnessImage:
    """A quiescent harness frozen once; :meth:`clone` thaws a child.

    ``data`` is the harness pickled at protocol 5, and ``table`` holds
    the objects ``data`` refers to by persistent id: classes, enum
    members and the immutable configuration tree.  Every thawed child
    is independent of the image and of every other child; the table's
    objects are the only ones they share, and no step mutates them.
    """

    __slots__ = ("data", "table")

    def __init__(self, data: bytes, table: Tuple[object, ...]) -> None:
        self.data = data
        self.table = table

    def clone(self):
        """Thaw one independent harness from this image."""
        unpickler = pickle.Unpickler(io.BytesIO(self.data))
        # A C lookup, not a Python method: thawing runs no Python code
        # of its own beyond ``Simulator.__setstate__``.
        unpickler.persistent_load = self.table.__getitem__
        return unpickler.load()


class _Freezer(pickle.Pickler):
    """Pickles a harness, moving shared objects into a side table."""

    def __init__(self) -> None:
        self._buffer = io.BytesIO()
        super().__init__(self._buffer, protocol=5)
        self._table: List[object] = []
        self._index: Dict[int, int] = {}

    def persistent_id(self, obj: object) -> Optional[int]:
        kind = type(obj)
        if kind in _COPIED_TYPES:
            return None
        if not (
            kind in _SHARED_TYPES or isinstance(obj, (type, enum.Enum))
        ):
            return None
        index = self._index.get(id(obj))
        if index is None:
            index = self._index[id(obj)] = len(self._table)
            self._table.append(obj)
        return index

    def image(self) -> HarnessImage:
        return HarnessImage(self._buffer.getvalue(), tuple(self._table))


def _small_config(protocol: Protocol, nodes: int, lines: int) -> SystemConfig:
    # A cache comfortably larger than the checked line pool: conflict
    # evictions would be driven by private fills the checker never
    # issues, so every state change is a protocol action.
    cache = CacheConfig(size_bytes=1024, block_size=32)
    ring = RingConfig()
    if protocol is Protocol.HIERARCHICAL:
        hierarchy_per_cluster(nodes)  # validates the node count
        ring = RingConfig(clusters=HIERARCHY_CLUSTERS)
    return SystemConfig(
        num_processors=nodes, protocol=protocol, ring=ring, cache=cache
    )


class EngineHarness:
    """A fresh engine plus the oracles, driven by :class:`StepSpec`.

    ``apply(step)`` spawns the step's references, drains the event
    heap, updates the freshness oracle and runs the bystander check.
    It raises :class:`InvariantViolation` (kinds ``deadlock``,
    ``divergence``, ``freshness`` or ``bystander``) -- structural
    SWMR/agreement checking stays with the caller via
    :meth:`check` so each layer picks its strictness.
    """

    def __init__(self, protocol: str, nodes: int, lines: int) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; "
                f"expected one of {sorted(PROTOCOLS)}"
            )
        self.protocol = protocol
        self.nodes = nodes
        self.lines = lines
        self.sim = Simulator()
        from repro.core.experiment import build_engine

        self.engine = build_engine(
            self.sim, _small_config(PROTOCOLS[protocol], nodes, lines)
        )
        self.addresses: List[int] = [
            self.engine.address_map.shared_block_address(line)
            for line in range(lines)
        ]
        #: Shadow write counter per line (the "data value" stand-in).
        self.versions: List[int] = [0] * lines
        #: Version each node's current copy was sourced from.
        self.observed: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def apply(self, step: StepSpec) -> None:
        before = self._cache_matrix()
        spawned = False
        hits: List[Ref] = []
        for ref in step.refs:
            address = self.addresses[ref.line]
            outcome = self.engine.caches[ref.node].classify(
                address, ref.is_write
            )
            if outcome is AccessOutcome.HIT:
                hits.append(ref)
                continue
            self.sim.spawn(
                self.engine.miss(ref.node, address, outcome),
                name=f"check:{ref.label()}",
            )
            spawned = True
        if spawned:
            self._drain(step)
        self._check_bystanders(step, before)
        self._account_freshness(step, hits)

    def _drain(self, step: StepSpec) -> None:
        self.sim.run(until=self.sim.now + DRAIN_HORIZON_PS)
        if self.sim.peek() is not None:
            raise InvariantViolation(
                "divergence",
                f"event heap still live {DRAIN_HORIZON_PS} ps after "
                f"step {step.label()} (livelock)",
            )
        if self.sim.active_process_count > 0:
            raise InvariantViolation(
                "deadlock",
                f"{self.sim.active_process_count} process(es) stuck "
                f"after step {step.label()}",
            )

    def _check_bystanders(
        self, step: StepSpec, before: Dict[Tuple[int, int], CacheState]
    ) -> None:
        touched = {(ref.node, ref.line) for ref in step.refs}
        after = self._cache_matrix()
        for key, prior in before.items():
            if key in touched:
                continue
            if (prior, after[key]) not in _LEGAL_BYSTANDER:
                node, line = key
                raise InvariantViolation(
                    "bystander",
                    f"step {step.label()} moved uninvolved node {node} "
                    f"line {line} from {prior.name} to {after[key].name}",
                )

    def _account_freshness(
        self, step: StepSpec, hits: Sequence[Ref]
    ) -> None:
        if step.is_race:
            # The event loop picked the write order; resynchronise.
            for ref in step.refs:
                if ref.is_write:
                    self.versions[ref.line] += 1
            self._resync_observed()
            return
        (ref,) = step.refs
        address = self.addresses[ref.line]
        current = self.versions[ref.line]
        if ref in hits:
            # Served entirely from the local copy: it must be current.
            seen = self.observed.get((ref.node, ref.line), 0)
            if seen != current:
                raise InvariantViolation(
                    "freshness",
                    f"{ref.label()} hit on version {seen} of line "
                    f"{ref.line}, current is {current}",
                )
        if ref.is_write:
            self.versions[ref.line] = current + 1
            self.observed[(ref.node, ref.line)] = current + 1
        else:
            self.observed[(ref.node, ref.line)] = current
        # Copies invalidated by this step no longer pin a version.
        for node in range(self.nodes):
            if (
                self.engine.caches[node].state_of(address)
                is CacheState.INV
            ):
                self.observed.pop((node, ref.line), None)

    def _resync_observed(self) -> None:
        for line, address in enumerate(self.addresses):
            for node in range(self.nodes):
                if (
                    self.engine.caches[node].state_of(address)
                    is not CacheState.INV
                ):
                    self.observed[(node, line)] = self.versions[line]
                else:
                    self.observed.pop((node, line), None)

    # ------------------------------------------------------------------
    # Oracles and canonicalization
    # ------------------------------------------------------------------
    def check(self, *, strict: bool = True) -> None:
        """Structural invariants over every checked line."""
        check_addresses(self.engine, self.addresses, strict=strict)

    def snapshot(self) -> AbstractState:
        caches = tuple(
            (node, line, state.name)
            for (node, line), state in sorted(
                self._cache_matrix().items()
            )
        )
        views = tuple(
            (
                line,
                self.engine.coherence_view(
                    self.engine.address_map.block_of(address)
                ),
            )
            for line, address in enumerate(self.addresses)
        )
        return (caches, views)

    def clone(self) -> HarnessImage:
        """Freeze this *quiescent* harness into a :class:`HarnessImage`.

        At quiescence nothing live remains -- the event heap is empty
        and no process is suspended mid-transaction -- so the whole
        object graph (caches, directories, locks, RNG, clock) is plain
        data.  The image is taken once per state; each
        ``image.clone()`` then thaws an independent child whose future
        behaviour is bit-identical to replaying this harness's script
        on a fresh engine.  This is what makes frontier expansion cost
        one step instead of ``depth`` steps.
        """
        if self.sim.peek() is not None:
            raise RuntimeError(
                "clone() requires a quiescent harness "
                "(the event heap is still live)"
            )
        freezer = _Freezer()
        freezer.dump(self)
        return freezer.image()

    def _cache_matrix(self) -> Dict[Tuple[int, int], CacheState]:
        return {
            (node, line): self.engine.caches[node].state_of(address)
            for node in range(self.nodes)
            for line, address in enumerate(self.addresses)
        }

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
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
    ) -> "EngineHarness":
        """Rebuild the state a script reaches, on a fresh engine.

        ``stop_before_last`` replays all but the final step (the state
        a counterexample starts from).  ``tracer`` is attached to the
        fresh simulator for the whole replay, so a counterexample can
        be re-executed under :class:`repro.obs.Tracer` to produce a
        full event trace of the failure.
        """
        steps = list(script)
        if stop_before_last:
            steps = steps[:-1]
        harness = cls(protocol, nodes, lines)
        if tracer is not None:
            harness.sim.tracer = tracer
        for step in steps:
            harness.apply(step)
        return harness
