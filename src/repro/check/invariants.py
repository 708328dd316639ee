"""The coherence invariant oracle shared by explorer, fuzzer and monitor.

Every checking layer in ``repro.check`` asserts the same properties,
taken from the protocol-verification literature (Meunier et al. check
them by exhaustive state enumeration; BlackParrot's BedRock checks them
at runtime):

* **SWMR** (single writer / multiple readers) -- at most one cache
  holds a block Write-Exclusive, and never concurrently with
  Read-Shared copies elsewhere.
* **Directory--cache agreement** -- the home's ownership metadata
  (dirty bit, presence bits, or sharing list, exposed uniformly by
  ``engine.coherence_view``) is consistent with the actual cache
  states.

Agreement comes in two strengths.  ``strict`` holds only at
*quiescence* (event heap drained, every background write-back, detach
and in-flight invalidation landed) and mirrors the end-state
assertions of the protocol test suite: a dirty block's owner actually
holds it WE, holders never exceed the recorded sharer set, and the
linked-list chain matches the holder set exactly.  The default weak
form holds at every *commit point* during a live simulation, where
hardware-legal transients exist: a dirty owner whose line sits in the
write-back buffer (cache says INV), a sharer whose presence bit was
cleared at the multicast grant while its invalidation probe is still
sweeping toward it, a just-downgraded owner whose reader has not
filled yet.  Weak mode therefore never compares the *holder set*
against the metadata; it checks SWMR on the caches, that a WE holder
is named by its home (permission is granted before the fill commits,
never after), and that the metadata is internally consistent.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.memory.states import CacheState
from repro.ring.base import ProtocolError

__all__ = [
    "InvariantViolation",
    "holders",
    "check_block",
    "check_engine",
]


class InvariantViolation(ProtocolError):
    """A checked coherence invariant failed.

    ``kind`` labels the invariant class: ``swmr``, ``agreement``,
    ``freshness``, ``deadlock`` or ``divergence``.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def holders(engine, address: int) -> Dict[int, CacheState]:
    """{node: state} for every cache holding the block, all engines."""
    held: Dict[int, CacheState] = {}
    for node, cache in enumerate(engine.caches):
        state = cache.state_of(address)
        if state is not CacheState.INV:
            held[node] = state
    return held


def _writers(held: Dict[int, CacheState]) -> List[int]:
    return [
        node for node, state in held.items() if state is CacheState.WE
    ]


def check_block(
    engine,
    address: int,
    *,
    strict: bool = False,
    held: Optional[Dict[int, CacheState]] = None,
) -> None:
    """Assert SWMR and directory--cache agreement for one block.

    Private blocks carry no coherence metadata and are skipped.  With
    ``strict`` the quiescent-only agreement checks are added (see
    module docstring); the default weak form is safe at any coherence
    commit point.  ``held`` may pass a precomputed holder map (as
    built by :func:`check_engine` in one pass over the caches) to
    avoid the per-block cache scan.
    """
    if not engine.address_map.is_shared(address):
        return
    block = engine.address_map.block_of(address)
    if held is None:
        held = holders(engine, address)
    writing = _writers(held)

    if len(writing) > 1:
        raise InvariantViolation(
            "swmr", f"block {block:#x} WE at nodes {sorted(writing)}"
        )
    if writing and len(held) > 1:
        raise InvariantViolation(
            "swmr",
            f"block {block:#x} WE at {writing[0]} alongside copies at "
            f"{sorted(n for n in held if n != writing[0])}",
        )

    tag, dirty, detail = engine.coherence_view(block)
    if tag == "dirty-bit":
        recorded = [] if detail is None else [detail]
    elif tag in ("full-map", "list"):
        recorded = list(detail)
    else:
        raise InvariantViolation(
            "agreement", f"unknown coherence view tag {tag!r}"
        )
    if len(recorded) != len(set(recorded)):
        raise InvariantViolation(
            "agreement", f"block {block:#x} {tag} lists duplicates: {recorded}"
        )

    # The dirty owner agrees with the caches, whatever the organisation.
    if dirty:
        if len(recorded) != 1:
            raise InvariantViolation(
                "agreement",
                f"block {block:#x} dirty with recorded owners {recorded}, "
                f"caches' writers {writing}",
            )
        (owner,) = recorded
        if (writing or strict) and writing != [owner]:
            raise InvariantViolation(
                "agreement",
                f"block {block:#x} {tag} owner {owner}, caches' writers "
                f"{writing}",
            )
        if strict and not set(held) <= {owner}:
            raise InvariantViolation(
                "agreement",
                f"block {block:#x} dirty at {tag} owner {owner}, caches' "
                f"writers {writing}, but cached at {sorted(held)}",
            )
        return
    if writing:
        raise InvariantViolation(
            "agreement",
            f"block {block:#x} WE at {writing} but {tag} clean (no owner)",
        )

    # Each organisation's own clean state, at quiescence only.
    if not strict:
        return
    if tag == "full-map" and not set(held) <= set(recorded):
        # Presence bits may over-approximate at any time (silent RS
        # replacement) and under-approximate mid-run (the home clears
        # the bit when the invalidation is *sent*, the cache drops the
        # line when it *arrives*); only at quiescence must every
        # holder be visible.
        raise InvariantViolation(
            "agreement",
            f"block {block:#x} cached at {sorted(held)} unknown to "
            f"directory {sorted(recorded)}",
        )
    if tag == "list" and set(held) != set(recorded):
        # Rollout-on-replacement keeps the list exact once every
        # background detach and invalidation has landed.
        raise InvariantViolation(
            "agreement",
            f"block {block:#x} chain {recorded} vs caches {sorted(held)}",
        )


def check_addresses(
    engine, addresses: Iterable[int], *, strict: bool = False
) -> None:
    """:func:`check_block` over a collection of addresses."""
    for address in addresses:
        check_block(engine, address, strict=strict)


def check_engine(engine, *, strict: bool = False) -> None:
    """Full scan: every shared block resident in any cache.

    Also runs the engine's own ``check_invariants`` cross-cache scan
    (which covers private blocks).  The holder
    matrix is built in one pass over the caches -- O(resident lines),
    not O(blocks x caches) -- so the periodic monitor sweep stays
    cheap on large machines.
    """
    engine.check_invariants()
    held_by_block: Dict[int, Dict[int, CacheState]] = {}
    for node, cache in enumerate(engine.caches):
        for block_address, state in cache.resident_blocks().items():
            if state is not CacheState.INV:
                held_by_block.setdefault(block_address, {})[node] = state
    for block_address, held in held_by_block.items():
        check_block(engine, block_address, strict=strict, held=held)


__all__.append("check_addresses")
