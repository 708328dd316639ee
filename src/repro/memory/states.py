"""Cache-line states for the paper's three-state protocols.

Both ring protocols and the bus protocol use the same write-invalidate
write-back state machine (paper section 3.1): Invalid (INV), Read-Shared
(RS) and Write-Exclusive (WE).

This module is also the single source of truth for which state
transitions are *legal*, per coherence action
(:data:`ALLOWED_TRANSITIONS`): the cache asserts every mutation
against it (:func:`assert_transition`), and the ``repro.check`` model
checker and runtime monitor use it as an oracle.  Which transition a
protocol *takes* is the business of :mod:`repro.spec`, whose rules
must stay inside this table; the engines commit through tables derived
from those rules.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "CacheState",
    "ALLOWED_TRANSITIONS",
    "LEGAL_STATE_PAIRS",
    "IllegalTransition",
    "assert_transition",
]


class CacheState(enum.Enum):
    """State of a cache line.

    * ``INV`` -- not present.
    * ``RS``  -- present read-only; other caches may also hold RS copies.
    * ``WE``  -- present read-write; this cache is the *dirty node* and
      owns the only valid copy (memory is stale).
    """

    INV = "invalid"
    RS = "read-shared"
    WE = "write-exclusive"

    @property
    def readable(self) -> bool:
        """Whether a load hits in this state."""
        return self is not CacheState.INV

    @property
    def writable(self) -> bool:
        """Whether a store hits (no coherence action) in this state."""
        return self is CacheState.WE


class IllegalTransition(ValueError):
    """A cache-line mutation outside :data:`ALLOWED_TRANSITIONS`."""


#: Legal (before, after) state pairs per coherence action.  Every
#: engine mutates cache lines only through :class:`DirectMappedCache`
#: (fill / apply_upgrade / snoop_invalidate / snoop_downgrade / evict),
#: and the cache asserts each mutation against this table, so an engine
#: bug that drives an impossible transition fails loudly at the moment
#: it happens instead of corrupting downstream statistics.
#:
#: * ``fill`` -- installing a block after a miss.  ``RS -> RS`` is a
#:   concurrent shared-mode reader re-filling a line another reader of
#:   the same block already installed (read misses pipeline under a
#:   shared block lock).
#: * ``upgrade`` -- committing a granted RS -> WE permission upgrade.
#: * ``invalidate`` -- a remote write's snoop/multicast/purge action.
#: * ``downgrade`` -- a remote read of a dirty block demoting WE.
#: * ``evict`` -- replacement (victim leaves for the write-back buffer
#:   or is dropped clean).
ALLOWED_TRANSITIONS: Dict[str, FrozenSet[Tuple[CacheState, CacheState]]] = {
    "fill": frozenset(
        {
            (CacheState.INV, CacheState.RS),
            (CacheState.INV, CacheState.WE),
            (CacheState.RS, CacheState.RS),
        }
    ),
    "upgrade": frozenset({(CacheState.RS, CacheState.WE)}),
    "invalidate": frozenset(
        {
            (CacheState.RS, CacheState.INV),
            (CacheState.WE, CacheState.INV),
        }
    ),
    "downgrade": frozenset({(CacheState.WE, CacheState.RS)}),
    "evict": frozenset(
        {
            (CacheState.RS, CacheState.INV),
            (CacheState.WE, CacheState.INV),
        }
    ),
}

#: Union of every legal pair, action ignored -- the model checker uses
#: this to validate observed per-line state deltas between steps.
LEGAL_STATE_PAIRS: FrozenSet[Tuple[CacheState, CacheState]] = frozenset(
    pair for pairs in ALLOWED_TRANSITIONS.values() for pair in pairs
)


def assert_transition(
    action: str, before: CacheState, after: CacheState
) -> None:
    """Raise :class:`IllegalTransition` unless the table allows it."""
    allowed = ALLOWED_TRANSITIONS.get(action)
    if allowed is None:
        raise IllegalTransition(f"unknown coherence action {action!r}")
    if (before, after) not in allowed:
        raise IllegalTransition(
            f"illegal {action}: {before.name} -> {after.name}"
        )
