"""Direct-mapped write-back data cache.

The paper's evaluations use 128 Kbyte direct-mapped data caches with
16-byte blocks (section 4.1).  Instruction references are assumed never
to miss, so only a data cache is modelled.

The cache is a pure state container: it answers lookups, applies state
transitions, and reports what coherence action (if any) a reference
requires, but it never advances simulated time -- the protocol engines
own all timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.memory.states import CacheState, assert_transition

__all__ = ["AccessOutcome", "CacheLine", "DirectMappedCache", "CacheStats"]


class AccessOutcome(enum.Enum):
    """What a processor reference requires of the coherence layer."""

    HIT = "hit"
    #: Load to a block not present (INV or tag mismatch).
    READ_MISS = "read-miss"
    #: Store to a block not present.
    WRITE_MISS = "write-miss"
    #: Store to a block present in RS: permission upgrade only
    #: (the paper's "invalidation", footnote 1).
    UPGRADE = "upgrade"


@dataclass(slots=True)
class CacheLine:
    """One direct-mapped frame: tag plus coherence state."""

    tag: int
    state: CacheState


@dataclass
class CacheStats:
    """Reference/outcome counters for one cache."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    upgrades: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    downgrades_received: int = 0

    @property
    def references(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        """Misses requiring a block fetch (upgrades excluded)."""
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        refs = self.references
        return self.misses / refs if refs else 0.0


class DirectMappedCache:
    """A direct-mapped, write-back, write-allocate cache.

    Parameters
    ----------
    size_bytes:
        Total capacity (paper default 128 KB).
    block_size:
        Line size in bytes (paper default 16).

    The protocol engines drive the cache through two interfaces:

    * :meth:`classify` / :meth:`fill` / :meth:`apply_upgrade` for the
      local processor's references, and
    * :meth:`snoop_invalidate` / :meth:`snoop_downgrade` for remote
      coherence actions arriving from the interconnect.
    """

    def __init__(self, size_bytes: int = 128 * 1024, block_size: int = 16) -> None:
        if size_bytes <= 0 or block_size <= 0:
            raise ValueError("cache and block sizes must be positive")
        if size_bytes % block_size:
            raise ValueError("cache size must be a multiple of the block size")
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.num_lines = size_bytes // block_size
        #: Frame index -> resident line.  Only the methods below change
        #: it; elsewhere it is read-only (the processor reads it to test
        #: hits inline).  A resident line is RS or WE: invalidation and
        #: eviction delete the entry, and nothing fills a line to INV.
        self.lines: Dict[int, CacheLine] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        block = address // self.block_size
        return block % self.num_lines, block // self.num_lines

    def state_of(self, address: int) -> CacheState:
        """Coherence state of the block containing ``address``.

        ``_index_and_tag`` is inlined here (and in :meth:`contains`):
        these two lookups run once or more per reference per node on
        the snoop path, and the call + tuple overhead was measurable.
        """
        block = address // self.block_size
        line = self.lines.get(block % self.num_lines)
        if line is None or line.tag != block // self.num_lines:
            return CacheState.INV
        return line.state

    def contains(self, address: int) -> bool:
        """Whether the block is present (RS or WE)."""
        block = address // self.block_size
        line = self.lines.get(block % self.num_lines)
        return (
            line is not None
            and line.tag == block // self.num_lines
            and line.state is not CacheState.INV
        )

    # ------------------------------------------------------------------
    # Processor side
    # ------------------------------------------------------------------
    def classify(self, address: int, is_write: bool) -> AccessOutcome:
        """Classify a reference and count it.

        Hits are applied immediately (no state change is needed for a
        read hit; a write hit requires WE which already holds).  Misses
        and upgrades are *not* applied here -- the protocol engine calls
        :meth:`fill` or :meth:`apply_upgrade` when the transaction
        completes, so the cache contents always reflect committed
        coherence state.

        This is the reference statement of the hit rule: a hit is a
        resident line with a matching tag, in WE if the reference is a
        store.  :meth:`repro.proc.processor.TraceProcessor.run` tests
        the same rule inline against :attr:`lines` and calls this
        method only for references that are not hits, counting its own
        hits into :attr:`stats`.
        """
        state = self.state_of(address)
        if is_write:
            self.stats.writes += 1
            if state is CacheState.WE:
                return AccessOutcome.HIT
            if state is CacheState.RS:
                self.stats.upgrades += 1
                return AccessOutcome.UPGRADE
            self.stats.write_misses += 1
            return AccessOutcome.WRITE_MISS
        self.stats.reads += 1
        if state is not CacheState.INV:
            return AccessOutcome.HIT
        self.stats.read_misses += 1
        return AccessOutcome.READ_MISS

    def victim_for(self, address: int) -> Optional[Tuple[int, CacheState]]:
        """Block (address, state) a fill of ``address`` would evict.

        Returns ``None`` when the frame is empty or already holds the
        same block.  The protocol engine uses this to schedule
        write-backs of WE victims before the fill commits.
        """
        index, tag = self._index_and_tag(address)
        line = self.lines.get(index)
        if line is None or line.tag == tag:
            return None
        victim_block = line.tag * self.num_lines + index
        return victim_block * self.block_size, line.state

    def fill(self, address: int, state: CacheState) -> Optional[Tuple[int, CacheState]]:
        """Install the block in ``state``, returning the evicted victim.

        The victim (if any) is returned as ``(address, state)`` so the
        caller can issue a write-back for WE victims; RS victims are
        dropped silently (write-through of clean data is unnecessary in
        a write-back protocol).
        """
        if state is CacheState.INV:
            raise ValueError("cannot fill a line to INV")
        victim = self.victim_for(address)
        if victim is not None:
            assert_transition("evict", victim[1], CacheState.INV)
        index, tag = self._index_and_tag(address)
        line = self.lines.get(index)
        before = (
            line.state
            if line is not None and line.tag == tag
            else CacheState.INV
        )
        assert_transition("fill", before, state)
        self.lines[index] = CacheLine(tag=tag, state=state)
        if victim is not None and victim[1] is CacheState.WE:
            self.stats.writebacks += 1
        return victim

    def apply_upgrade(self, address: int) -> None:
        """Commit an RS -> WE permission upgrade."""
        index, tag = self._index_and_tag(address)
        line = self.lines.get(index)
        if line is None or line.tag != tag or line.state is not CacheState.RS:
            raise ValueError(
                f"upgrade of address {address:#x} not in RS "
                f"(found {self.state_of(address).name})"
            )
        assert_transition("upgrade", line.state, CacheState.WE)
        line.state = CacheState.WE

    # ------------------------------------------------------------------
    # Interconnect side (snoops / directory actions)
    # ------------------------------------------------------------------
    def snoop_invalidate(self, address: int) -> CacheState:
        """Invalidate the block if present; return the prior state."""
        index, tag = self._index_and_tag(address)
        line = self.lines.get(index)
        if line is None or line.tag != tag:
            return CacheState.INV
        prior = line.state
        assert_transition("invalidate", prior, CacheState.INV)
        del self.lines[index]
        self.stats.invalidations_received += 1
        return prior

    def snoop_downgrade(self, address: int) -> CacheState:
        """Downgrade WE -> RS (remote read of a dirty block)."""
        index, tag = self._index_and_tag(address)
        line = self.lines.get(index)
        if line is None or line.tag != tag:
            return CacheState.INV
        prior = line.state
        if prior is CacheState.WE:
            assert_transition("downgrade", prior, CacheState.RS)
            line.state = CacheState.RS
            self.stats.downgrades_received += 1
        return prior

    def evict(self, address: int) -> CacheState:
        """Remove the block (replacement bookkeeping); return prior state."""
        index, tag = self._index_and_tag(address)
        line = self.lines.get(index)
        if line is None or line.tag != tag:
            return CacheState.INV
        prior = line.state
        assert_transition("evict", prior, CacheState.INV)
        del self.lines[index]
        return prior

    def resident_blocks(self) -> Dict[int, CacheState]:
        """Map of resident block base addresses to their states."""
        result: Dict[int, CacheState] = {}
        for index, line in self.lines.items():
            block = line.tag * self.num_lines + index
            result[block * self.block_size] = line.state
        return result
