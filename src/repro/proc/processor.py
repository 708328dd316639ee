"""Trace-driven blocking processor model.

Follows the paper's processor assumptions (section 4.1):

* every instruction executes in one processor cycle as long as its
  data access (if any) hits in the cache;
* instruction references never miss (their hit rate is effectively 1);
* the processor **blocks** on every miss and on every invalidation
  (permission upgrade) until the coherence transaction completes.

Most references hit, so the hit path sets the cost of a run:

* a hit is decided inline against the cache's line table
  (:attr:`DirectMappedCache.lines`) with the rule
  :meth:`DirectMappedCache.classify` states, and makes no call; only
  misses and upgrades go through ``classify``;
* the per-reference tallies live in locals and are flushed into
  :class:`ProcessorCounters` and the cache's stats before every
  suspension and at the end, so both are exact whenever the processor
  is suspended;
* consecutive hitting references are *batched*: the processor
  counts their instructions and posts a single kernel event for their
  busy time when it either misses or reaches ``batch_refs`` hits.  The
  batch bound keeps a processor from running unboundedly ahead of
  simulated time between coherence interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterable, Optional

from repro.core.config import ProcessorConfig
from repro.memory.address import SHARED_BASE
from repro.memory.cache import AccessOutcome, DirectMappedCache
from repro.memory.states import CacheState
from repro.sim.kernel import Simulator
from repro.traces.records import TraceRecord

__all__ = ["ProcessorCounters", "TraceProcessor"]


@dataclass
class ProcessorCounters:
    """Per-processor reference and timing counters."""

    instructions: int = 0
    data_refs: int = 0
    private_refs: int = 0
    private_writes: int = 0
    shared_refs: int = 0
    shared_writes: int = 0
    #: Shared-data misses requiring a block fetch (upgrades excluded),
    #: for the paper's "shared miss rate".
    shared_fetch_misses: int = 0
    busy_ps: int = 0
    blocked_ps: int = 0
    finished_at_ps: int = 0
    #: Upgrades issued to the store buffer without stalling (weak
    #: ordering) and writes absorbed by an already-pending upgrade.
    overlapped_upgrades: int = 0
    buffered_writes: int = 0

    @property
    def elapsed_ps(self) -> int:
        return self.busy_ps + self.blocked_ps

    @property
    def utilization(self) -> float:
        """Fraction of time busy rather than waiting on coherence."""
        elapsed = self.elapsed_ps
        return self.busy_ps / elapsed if elapsed else 0.0

    @property
    def shared_miss_rate(self) -> float:
        if not self.shared_refs:
            return 0.0
        return self.shared_fetch_misses / self.shared_refs


class TraceProcessor:
    """One processor consuming a trace against a coherence engine.

    The ``engine`` is any object exposing ``caches[node]`` and a
    ``miss(node, address, outcome)`` generator returning when the
    processor may resume (all ring engines and the bus system qualify).
    """

    def __init__(
        self,
        sim: Simulator,
        node: int,
        engine: Any,
        trace: Iterable[TraceRecord],
        config: Optional[ProcessorConfig] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.engine = engine
        self.trace = trace
        self.config = config or ProcessorConfig()
        self.cache: DirectMappedCache = engine.caches[node]
        self.counters = ProcessorCounters()
        #: Blocks with an upgrade in flight (weak ordering only).
        self._pending_upgrades: set = set()

    def run(self) -> Generator[Any, Any, None]:
        """Process body: execute the whole trace.

        Hits are tested inline and the tallies flushed before every
        suspension, as the module docstring describes.
        """
        sim = self.sim
        counters = self.counters
        cache = self.cache
        lines = cache.lines
        block_size = cache.block_size
        num_lines = cache.num_lines
        we = CacheState.WE
        shared_base = SHARED_BASE
        cycle = self.config.cycle_ps
        batch_limit = self.config.batch_refs
        # Since the last suspension: the instructions (whose cycles are
        # the busy time owed), the references by kind, and the hits --
        # ``hits`` is also the batch length.
        instructions = hits = hit_writes = 0
        private_refs = private_writes = shared_refs = shared_writes = 0
        for instr_before, address, is_write in self.trace:
            instructions += instr_before
            shared = address >= shared_base
            if shared:
                shared_refs += 1
                shared_writes += is_write
            else:
                private_refs += 1
                private_writes += is_write

            block = address // block_size
            line = lines.get(block % num_lines)
            if (
                line is not None
                and line.tag == block // num_lines
                and (not is_write or line.state is we)
            ):
                hits += 1
                hit_writes += is_write
                if hits >= batch_limit:
                    self._flush(
                        instructions, private_refs, private_writes,
                        shared_refs, shared_writes, hits, hit_writes,
                    )
                    busy_ps = instructions * cycle
                    instructions = hits = hit_writes = 0
                    private_refs = private_writes = 0
                    shared_refs = shared_writes = 0
                    yield sim.timeout(busy_ps)
                    counters.busy_ps += busy_ps
                continue

            outcome = cache.classify(address, is_write)
            if shared and outcome is not AccessOutcome.UPGRADE:
                counters.shared_fetch_misses += 1
            if (
                outcome is AccessOutcome.UPGRADE
                and self.config.weak_ordering
                and shared
            ):
                # Weak ordering: the store retires into a buffer and
                # the invalidation proceeds in the background; repeat
                # writes to a block with an upgrade already in flight
                # are absorbed by the buffer.
                block = self.engine.address_map.block_of(address)
                if block in self._pending_upgrades:
                    counters.buffered_writes += 1
                else:
                    self._pending_upgrades.add(block)
                    counters.overlapped_upgrades += 1
                    sim.spawn(
                        self._background_upgrade(address, block),
                        name=f"wupg:n{self.node}",
                    )
                continue
            self._flush(
                instructions, private_refs, private_writes,
                shared_refs, shared_writes, hits, hit_writes,
            )
            busy_ps = instructions * cycle
            instructions = hits = hit_writes = 0
            private_refs = private_writes = shared_refs = shared_writes = 0
            if busy_ps:
                yield sim.timeout(busy_ps)
                counters.busy_ps += busy_ps
            blocked_from = sim.now
            yield from self.engine.miss(self.node, address, outcome)
            counters.blocked_ps += sim.now - blocked_from
            tracer = sim.tracer
            if tracer is not None:
                tracer.complete(
                    blocked_from,
                    sim.now - blocked_from,
                    "proc",
                    f"stall.{outcome.name.lower()}",
                    f"cpu{self.node}",
                    address=f"{address:#x}",
                )

        self._flush(
            instructions, private_refs, private_writes,
            shared_refs, shared_writes, hits, hit_writes,
        )
        busy_ps = instructions * cycle
        if busy_ps:
            yield sim.timeout(busy_ps)
            counters.busy_ps += busy_ps
        counters.finished_at_ps = sim.now

    def _flush(
        self,
        instructions: int,
        private_refs: int,
        private_writes: int,
        shared_refs: int,
        shared_writes: int,
        hits: int,
        hit_writes: int,
    ) -> None:
        """Add :meth:`run`'s local tallies to the counters and stats."""
        counters = self.counters
        counters.instructions += instructions
        counters.data_refs += private_refs + shared_refs
        counters.private_refs += private_refs
        counters.private_writes += private_writes
        counters.shared_refs += shared_refs
        counters.shared_writes += shared_writes
        stats = self.cache.stats
        stats.reads += hits - hit_writes
        stats.writes += hit_writes

    def _background_upgrade(self, address: int, block: int) -> Generator[Any, Any, None]:
        """Weak ordering: complete a buffered store's upgrade off the
        critical path."""
        try:
            yield from self.engine.miss(
                self.node, address, AccessOutcome.UPGRADE
            )
        finally:
            self._pending_upgrades.discard(block)
