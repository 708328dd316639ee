"""Analytical model of the snooping slotted ring.

Latency structure (section 3.1 of the paper): a shared miss waits for
a free probe slot, the probe sweeps the ring past the owner, the owner
fetches the block (memory at the home when clean, cache/write-back
buffer at the dirty node), waits for a free block slot, and the block
travels back to the requester.  The probe leg plus the block leg sum
to exactly one ring traversal regardless of node positions -- the UMA
property -- so every remote miss shares one latency formula.

Pure invalidations complete when the owner's acknowledgment returns in
the following probe slot of the same type (one traversal plus one
frame).
"""

from __future__ import annotations

from repro.models import ring_common
from repro.models.base import FixedPointModel

__all__ = [
    "SNOOPING_SHARED_CLASSES",
    "SnoopingRingModel",
    "frequencies",
    "latencies",
]

#: Shared-miss class names in the snooping model.
SNOOPING_SHARED_CLASSES = ("local_clean", "remote_clean", "remote_dirty")


def frequencies(a):
    """Events per instruction, by class, in solver order."""
    return [
        ("private", a["f_private"]),
        ("local_clean", a["f_local_clean"]),
        ("remote_clean", a["f_remote_clean"]),
        ("remote_dirty", a["f_remote_dirty"] + a["f_dirty_one"] + a["f_two_cycle"]),
        ("upgrade", a["f_upgrade_with"] + a["f_upgrade_without"]),
    ]


def latencies(p, T, xp):
    """Per-class latencies, ring and bank utilisation."""
    probe_wait, block_wait, bank_wait, ring_utilization, bank_utilization = (
        ring_common.contention(p, T, xp)
    )
    ring_ps = p["ring_ps"]
    probe_drain = p["probe_drain"]
    bank_total = p["access_ps"] + bank_wait

    remote_base = probe_wait + probe_drain + ring_ps + block_wait + p["block_drain"]
    classes = {
        "private": bank_total,
        "local_clean": bank_total,
        "remote_clean": remote_base + bank_total,
        "remote_dirty": remote_base + p["cache_response_ps"],
        "upgrade": probe_wait + ring_ps + p["frame_ps"] + probe_drain,
    }
    return classes, ring_utilization, bank_utilization


class SnoopingRingModel(FixedPointModel):
    """Iterative model producing the paper's Figure 3/4 ring curves."""

    family = "ring_snooping"
    name = "snooping ring"
    shared_classes = SNOOPING_SHARED_CLASSES
    frequencies = staticmethod(frequencies)
    prepare = staticmethod(ring_common.prepare)
    latencies = staticmethod(latencies)
