"""Analytical model of the linked-list (SCI-style) directory ring.

The paper evaluates the linked list only structurally (Table 1's
traversal distributions); this model extends the full-map directory
model with the linked list's two distinctive costs, parameterised by
quantities the simulation measures:

* **head forwarding on clean data** -- every miss to a *cached* block
  goes home -> head -> requester, costing an extra probe acquisition
  and a cache response in place of the memory access.  The measured
  forward rate apportions this between the forwarded and home-served
  clean misses.
* **sequential list purges** -- invalidations walk the sharing list,
  costing up to one traversal per sharer when the list order fights
  the ring direction.  The measured mean upgrade traversal count (the
  Table 1 distribution's mean) sets the ring time and the per-hop slot
  acquisitions.

Everything else (slot contention, memory banks, two-cycle dirty
geometry, event classes) is shared with the full-map directory model.
"""

from __future__ import annotations

from repro.models import ring_common, ring_directory
from repro.models.base import FixedPointModel, guarded_ratio

__all__ = ["LinkedListRingModel", "latencies", "prepare"]


def prepare(a, xp):
    """The directory model's prepared row plus the forwarded share of
    clean misses and the purge walk's extra traversals."""
    p = ring_directory.prepare(a, xp)
    # Clean misses: the forwarded share pays an extra probe hop and
    # a cache response instead of the home's memory access.
    f_clean = a["f_remote_clean"]
    f_dirtyish = a["f_dirty_one"] + a["f_two_cycle"]
    clean_forwards = xp.maximum(0.0, a["f_forwards"] - f_dirtyish)
    p["forward_share"] = xp.minimum(
        1.0, guarded_ratio(clean_forwards, f_clean, f_clean > 0.0, xp)
    )
    # Upgrades: a purge walk of mean ``T`` traversals needs about
    # one probe acquisition per wrap plus the wire time, after the
    # initial pointer round to the home.
    p["purge_walks"] = xp.maximum(1.0, a["mean_upgrade_traversals"]) - 1.0
    return p


def latencies(p, T, xp):
    """Directory latencies plus head-forwarding and purge-walk costs."""
    probe_wait, block_wait, bank_wait, ring_utilization, bank_utilization = (
        ring_common.contention(p, T, xp)
    )
    classes = ring_directory.class_latencies(p, probe_wait, block_wait, bank_wait)
    probe_step = probe_wait + p["probe_drain"]
    ring_ps = p["ring_ps"]

    bank_total = p["access_ps"] + bank_wait
    response_delta = p["cache_response_ps"] - bank_total
    classes["remote_clean"] = classes["remote_clean"] + (
        p["forward_share"] * (probe_step + response_delta)
    )

    purge = p["purge_walks"] * (probe_step + ring_ps)
    classes["upgrade_with"] = (
        classes["upgrade_without"] + probe_step + purge + ring_ps
    )
    return classes, ring_utilization, bank_utilization


class LinkedListRingModel(FixedPointModel):
    """Directory model plus head-forwarding and purge-walk costs."""

    family = "ring_linkedlist"
    name = "linked-list ring"
    shared_classes = ring_directory.DIRECTORY_SHARED_CLASSES
    frequencies = staticmethod(ring_directory.frequencies)
    prepare = staticmethod(prepare)
    latencies = staticmethod(latencies)
