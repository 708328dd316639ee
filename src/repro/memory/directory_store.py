"""Home-directory storage kept at each home node.

Three organisations appear in the paper:

* the snooping protocol needs only a **dirty bit** per memory block
  (section 3.1) -- :class:`~repro.sim.engine.DirtyBitEngine` keeps it
  as one ``block -> dirty owner`` map, a block's presence in the map
  being its dirty bit;
* the full-map protocol keeps **one presence bit per node plus a dirty
  bit** per block (section 3.2, after Censier & Feautrier), and
* the SCI-style protocol keeps a **head pointer** at the home with the
  sharing list distributed through the caches; here the list is stored
  centrally per block, which is state-equivalent for simulation
  purposes (the *traversal cost* of walking the distributed list is
  charged by the protocol engine, not by this container).

The last two share one :class:`HomeDirectory`: a block's entry, its
dirty bit, its single owner while dirty, exclusive ownership, sharer
removal and clearing are written once.  The two differ only in the
sharer container -- the full map's presence-bit set, the list's chain
with the newest sharer first -- and in how :meth:`HomeDirectory.add_sharer`
adds a sharer.

These are pure state containers; all timing lives in the protocol
engines under ``repro.ring``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Set, Type

__all__ = [
    "DirectoryEntry",
    "FullMapDirectory",
    "FullMapEntry",
    "HomeDirectory",
    "LinkedListDirectory",
    "LinkedListEntry",
]


@dataclass
class DirectoryEntry:
    """One block's state at its home: the nodes caching it plus a dirty
    bit.  A dirty block has exactly one sharer, its owner."""

    sharers: Collection[int]
    dirty: bool = False

    @property
    def owner(self) -> Optional[int]:
        """The single holder while the block is dirty, else ``None``."""
        if not self.dirty:
            return None
        if len(self.sharers) != 1:
            raise ValueError(f"dirty block with sharers {self.sharers}")
        return next(iter(self.sharers))

    @property
    def cached_anywhere(self) -> bool:
        return bool(self.sharers)


@dataclass
class FullMapEntry(DirectoryEntry):
    """Presence bits plus dirty bit: ``sharers`` is a set."""

    sharers: Set[int] = field(default_factory=set)


@dataclass
class LinkedListEntry(DirectoryEntry):
    """SCI-style sharing list: ``sharers`` is the chain.

    ``sharers[0]`` is the head node (responsible for coherence); each
    subsequent element is the next node in list order.  List order is
    *arrival order, newest first*, as in SCI where a new sharer
    prepends itself and receives the old head as its forward pointer.
    """

    sharers: List[int] = field(default_factory=list)

    @property
    def head(self) -> Optional[int]:
        return self.sharers[0] if self.sharers else None


class HomeDirectory:
    """The directory for the blocks homed at one node.

    The interface mirrors the home-node actions of section 3.2: look up
    an entry, record a new sharer, record a new exclusive owner, and
    drop sharers on invalidation or write-back.
    """

    #: The entry type, which fixes the sharer container.
    entry_type: Type[DirectoryEntry]

    #: The tag this organisation's :meth:`view` carries.
    view_tag: str

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self._entries: Dict[int, DirectoryEntry] = {}

    def entry(self, block: int) -> DirectoryEntry:
        """The (possibly empty) entry for ``block``."""
        found = self._entries.get(block)
        if found is None:
            found = self.entry_type()
            self._entries[block] = found
        return found

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        """The entry if it exists, without creating one."""
        return self._entries.get(block)

    def view(self, block: int) -> tuple:
        """``(tag, dirty, sharers)``: the block's canonical, hashable
        ownership metadata (the engines' ``coherence_view``)."""
        entry = self._entries.get(block)
        if entry is None:
            return (self.view_tag, False, ())
        return (self.view_tag, entry.dirty, self.listing(entry.sharers))

    @staticmethod
    def listing(sharers: Collection[int]) -> tuple:
        """The sharers in the view's deterministic order."""
        raise NotImplementedError

    def add_sharer(self, block: int, node: int) -> None:
        """Record a read-shared copy at ``node`` (clears dirty)."""
        raise NotImplementedError

    def set_exclusive(self, block: int, node: int) -> None:
        """Record ``node`` as the sole (dirty) owner."""
        self._check_node(node)
        entry = self.entry(block)
        # A fresh container of the entry's own kind.
        entry.sharers = type(entry.sharers)((node,))
        entry.dirty = True

    def remove_sharer(self, block: int, node: int) -> None:
        """Drop ``node`` from the sharers (eviction/invalidation)."""
        entry = self._entries.get(block)
        if entry is None:
            return
        if node in entry.sharers:
            entry.sharers.remove(node)
        if not entry.sharers:
            entry.dirty = False

    def clear(self, block: int) -> None:
        """Reset the block to uncached (write-back of a dirty copy)."""
        self._entries.pop(block, None)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")


class FullMapDirectory(HomeDirectory):
    """Full-map directory: presence bits, listed in node order."""

    entry_type = FullMapEntry
    view_tag = "full-map"

    @staticmethod
    def listing(sharers: Collection[int]) -> tuple:
        return tuple(sorted(sharers))

    def add_sharer(self, block: int, node: int) -> None:
        self._check_node(node)
        entry = self.entry(block)
        entry.dirty = False
        entry.sharers.add(node)

    def invalidation_targets(self, block: int, requester: int) -> Set[int]:
        """Sharers that must be invalidated for ``requester`` to write."""
        entry = self._entries.get(block)
        if entry is None:
            return set()
        return {node for node in entry.sharers if node != requester}


class LinkedListDirectory(HomeDirectory):
    """Linked-list (SCI-flavoured) directory, listed in chain order."""

    entry_type = LinkedListEntry
    view_tag = "list"
    listing = staticmethod(tuple)

    def add_sharer(self, block: int, node: int) -> None:
        """Insert ``node`` as the new head of the sharing list."""
        self._check_node(node)
        entry = self.entry(block)
        if node in entry.sharers:
            entry.sharers.remove(node)
        entry.sharers.insert(0, node)
        entry.dirty = False

    def invalidation_targets(self, block: int, requester: int) -> List[int]:
        """A snapshot of the sharing list without ``requester``, in
        chain order: the purge walk's route."""
        entry = self._entries.get(block)
        if entry is None:
            return []
        return [node for node in entry.sharers if node != requester]
