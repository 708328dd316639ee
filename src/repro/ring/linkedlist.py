"""SCI-style linked-list directory protocol (paper §3.2, Table 1).

The home node keeps only a pointer to the **head** of a distributed
sharing list; the head is responsible for supplying data and for
coherence.  Compared with the full map, the paper highlights three
structural costs, all reproduced here:

* every miss to a *cached* block is forwarded home -> head even when
  the block is clean, so the 2-traversal fraction grows;
* invalidations **walk the sharing list node by node**, so when the
  list order conflicts with the ring direction an invalidation can
  need up to one traversal per sharer (the paper's "n traversals for a
  block shared by n nodes" worst case and the 3+ bucket of Table 1);
* replacements are not silent: a victim must roll out of its sharing
  list.  Clean rollouts proceed in the background, but a *dirty*
  victim's rollout serialises ahead of the miss, which produces the
  small 3+ tail in the miss distribution.

The sharing list is stored centrally per block for simulation
convenience (state-equivalent to the distributed pointers); the
*traversal cost* of walking the distributed list is what matters and
is charged arc by arc.
"""

from __future__ import annotations

from typing import List

from repro.core.config import Protocol
from repro.memory.directory_store import LinkedListDirectory
from repro.memory.states import CacheState
from repro.ring.base import ProtocolError, RingSystemBase, Step
from repro.sim.engine import DirectoryEngine

__all__ = ["LinkedListRingSystem"]


class LinkedListRingSystem(DirectoryEngine, RingSystemBase):
    """SCI-flavoured linked-list directory on the slotted ring."""

    protocol = Protocol.LINKED_LIST
    spec_name = "linkedlist"
    directory_type = LinkedListDirectory

    # ------------------------------------------------------------------
    # Misses
    # ------------------------------------------------------------------
    def shared_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        directory = self.directories[home]
        entry = directory.entry(block)

        if node in entry.sharers:
            # Stale listing: the node's RS copy was replaced and the
            # background detach has not landed yet; merge it now.
            directory.remove_sharer(block, node)

        # Snapshot the sharing list before the first yield: read misses
        # run under a shared lock, so concurrent readers may prepend
        # themselves (or commit a dirty->shared transition) while this
        # transaction is in flight.
        head = entry.head
        owner = entry.owner
        ops = self.remote_ops(is_write, owner)
        targets = self.remote_targets(ops, node, address, owner)

        arcs = yield from self._rollout_victim(node, address)
        arcs += yield from self.request_home(node, home, address)

        if head is None:
            # Uncached: the home supplies from memory.
            yield self.banks[home].access()
            if home != node:
                yield from self.send_block(home, node)
                arcs += self.topology.distance(home, node)
        else:
            # Cached (clean or dirty): home forwards to the head, which
            # supplies the block -- this is the forwarding the paper
            # charges one or two traversals for.
            if head != home:
                yield from self.send_probe(home, head, address)
                arcs += self.topology.distance(home, head)
                self.stats.forwards += 1
            yield self.sim.timeout(self.config.memory.cache_response_ps)
            yield from self.send_block(head, node)
            arcs += self.topology.distance(head, node)

        if owner is not None:
            # A single dirty owner snoops the forward itself.
            self.snoop_now(address, targets)
        elif targets[0]:
            arcs += yield from self._purge_walk(node, address, targets[0])
        self.commit(node, address, is_write, owner)

        self.record_arc_miss(owner is not None, arcs, start_ps)

    # ------------------------------------------------------------------
    # Upgrades
    # ------------------------------------------------------------------
    def upgrade(self, node: int, address: int, start_ps: int) -> Step:
        home = self.address_map.home_of(address)
        owner = self.directories[home].entry(self.address_map.block_of(address)).owner

        arcs = 0
        # Become the head / learn the current list: one probe round to
        # the home.
        if home != node:
            yield from self.send_probe(node, home, address)
            yield from self.send_probe(home, node, address)
            arcs += self.topology.total_stages
        ops = self.remote_ops(True, owner, upgrade=True)
        invalidated, _ = self.remote_targets(ops, node, address, owner)
        if invalidated:
            arcs += yield from self._purge_walk(node, address, invalidated)
        self.commit(node, address, True, owner)

        self.record_arc_upgrade(arcs, start_ps, bool(invalidated))

    # ------------------------------------------------------------------
    # List walking
    # ------------------------------------------------------------------
    def _purge_walk(self, node: int, address: int, chain: List[int]) -> Step:
        """Invalidate the sharing list by walking it in list order.

        The purge probe hops node -> chain[0] -> chain[1] -> ... and
        the last sharer acknowledges back to ``node``.  The closed
        circuit costs a whole number of ring traversals: exactly one
        when the list happens to be ordered along the ring, up to one
        per sharer when it is adversarially ordered.  Returns the arcs
        travelled.
        """
        arcs = 0
        position = node
        for sharer in chain:
            if sharer == position:
                raise ProtocolError("sharing list contains duplicates")
            yield from self.send_probe(position, sharer, address)
            arcs += self.topology.distance(position, sharer)
            self.caches[sharer].snoop_invalidate(address)
            position = sharer
        yield from self.send_probe(position, node, address)
        arcs += self.topology.distance(position, node)
        return arcs

    # ------------------------------------------------------------------
    # Replacement rollout
    # ------------------------------------------------------------------
    def _rollout_victim(self, node: int, address: int) -> Step:
        """Evict the fill's victim, rolling it out of its sharing list.

        Dirty victims serialise a detach round to the victim's home
        ahead of the miss (the frame cannot be reused until the list is
        consistent); clean victims detach in the background.  Returns
        the arcs charged to the miss.
        """
        victim = self.caches[node].victim_for(address)
        if victim is None:
            return 0
        victim_address, state = victim
        self.caches[node].evict(victim_address)
        arcs = 0
        if state is CacheState.WE:
            self.caches[node].stats.writebacks += 1
            if self.address_map.is_shared(victim_address):
                victim_home = self.address_map.home_of(victim_address)
                if victim_home != node:
                    yield from self.send_probe(node, victim_home, victim_address)
                    yield from self.send_probe(victim_home, node, victim_address)
                    arcs += self.topology.total_stages
            self.sim.spawn(
                self.writeback(node, victim_address), name=f"wb:n{node}"
            )
        else:
            self.on_clean_eviction(node, victim_address)
        return arcs

    #: A write-back-buffer reclaim makes room the same way.
    reclaim_victim = _rollout_victim

    def on_clean_eviction(self, node: int, address: int) -> None:
        """Background detach of an RS victim from its sharing list."""
        if not self.address_map.is_shared(address):
            return
        self.sim.spawn(
            self._background_detach(node, address), name=f"detach:n{node}"
        )

    def _background_detach(self, node: int, address: int) -> Step:
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        if home != node:
            arrival = yield from self.send_probe(node, home, address)
            yield from self.wait_until_cycle(arrival)
        self.directories[home].remove_sharer(block, node)
