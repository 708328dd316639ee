"""Analytical model of the full-map directory slotted ring.

Per-class latency structure (section 3.2 / Figure 5 of the paper):

* **1-cycle clean** -- two hops (requester -> home -> requester), one
  probe-slot wait, one block-slot wait, one memory access; total ring
  distance is exactly one traversal.
* **1-cycle dirty** -- three hops in one traversal: two probe-slot
  waits (request + forward), the dirty node's cache access, and one
  block-slot wait.  Higher than 1-cycle clean despite the equal ring
  distance, as the paper notes.
* **2-cycle** -- two traversals: the dirty node lies between the
  requester and the home, or a multicast invalidation round must
  complete before the home can reply (the memory fetch overlaps the
  multicast; the longer of the two dominates).
* Upgrades cost one home round plus, when other copies exist, a full
  multicast traversal in the middle.
"""

from __future__ import annotations

from repro.models import ring_common
from repro.models.base import FixedPointModel

__all__ = [
    "DIRECTORY_SHARED_CLASSES",
    "DirectoryRingModel",
    "class_latencies",
    "frequencies",
    "latencies",
    "prepare",
]

#: Shared-miss class names in the directory model.
DIRECTORY_SHARED_CLASSES = (
    "local_clean",
    "remote_clean",
    "dirty_one_cycle",
    "two_cycle",
)


def frequencies(a):
    """Events per instruction, by class, in solver order."""
    return [
        ("private", a["f_private"]),
        ("local_clean", a["f_local_clean"]),
        ("remote_clean", a["f_remote_clean"]),
        ("dirty_one_cycle", a["f_dirty_one"] + a["f_remote_dirty"]),
        ("two_cycle", a["f_two_cycle"]),
        ("upgrade_without", a["f_upgrade_without"]),
        ("upgrade_with", a["f_upgrade_with"]),
    ]


def prepare(a, xp):
    """The row plus the ring's ``T``-independent terms."""
    p = ring_common.prepare(a, xp)
    p["two_probe_drain"] = 2.0 * p["probe_drain"]
    p["two_ring_ps"] = 2.0 * p["ring_ps"]
    return p


def class_latencies(p, probe_wait, block_wait, bank_wait):
    """Per-class latencies given the slot and bank waits."""
    ring_ps = p["ring_ps"]
    block_drain = p["block_drain"]
    bank_total = p["access_ps"] + bank_wait
    lookup = p["lookup_ps"]
    cache_response = p["cache_response_ps"]

    clean_one = (
        probe_wait
        + p["probe_drain"]
        + lookup
        + bank_total
        + block_wait
        + block_drain
        + ring_ps
    )
    # Two probe acquisitions, two probe drains and the lookup: the
    # common head of every multi-hop class below.
    two_hops = 2.0 * probe_wait + p["two_probe_drain"] + lookup
    dirty_one = two_hops + cache_response + block_wait + block_drain + ring_ps
    # Two traversals, a mix of two shapes with the same cost
    # skeleton: (a) dirty node between requester and home -- three
    # hops spanning 2S with a cache response; (b) write requiring a
    # multicast round -- home memory overlaps the multicast (the
    # larger dominates), and the request/reply arcs plus the
    # multicast also span 2S.  Both reduce to two full traversals,
    # two probe acquisitions, one block acquisition and one
    # owner-response time; the response is averaged over the two
    # data sources.
    response_mix = (cache_response + bank_total) / 2.0
    two_cycle = (
        two_hops + response_mix + block_wait + block_drain + p["two_ring_ps"]
    )
    upgrade_without = two_hops + ring_ps
    upgrade_with = upgrade_without + probe_wait + ring_ps

    return {
        "private": bank_total,
        "local_clean": bank_total,
        "remote_clean": clean_one,
        "dirty_one_cycle": dirty_one,
        "two_cycle": two_cycle,
        "upgrade_without": upgrade_without,
        "upgrade_with": upgrade_with,
    }


def latencies(p, T, xp):
    """Per-class latencies, ring and bank utilisation."""
    probe_wait, block_wait, bank_wait, ring_utilization, bank_utilization = (
        ring_common.contention(p, T, xp)
    )
    classes = class_latencies(p, probe_wait, block_wait, bank_wait)
    return classes, ring_utilization, bank_utilization


class DirectoryRingModel(FixedPointModel):
    """Iterative model producing the Figure 3/4 directory curves."""

    family = "ring_directory"
    name = "directory ring"
    shared_classes = DIRECTORY_SHARED_CLASSES
    frequencies = staticmethod(frequencies)
    prepare = staticmethod(prepare)
    latencies = staticmethod(latencies)
