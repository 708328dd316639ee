"""Shared contention equations for the ring analytical models.

All three ring models (snooping, directory, linked list) see the same
physical ring: probe slots and block slots circulating past each node
at fixed periods.  :func:`prepare` extends a field row (:func:`repro.
models.base.config_row`) with the ring's time-independent terms --
slot periods, mean slot occupancies, stage weights and the ring,
drain and frame times; given a candidate time-per-instruction,
:func:`contention` computes slot utilisations, expected slot waits,
and memory-bank waits; the protocol-specific models assemble per-class
latencies from these.  Like every model equation they run on floats or
on NumPy arrays (``xp``, see :mod:`repro.models.base`).
"""

from __future__ import annotations

from repro.models.base import guarded_ratio, md1_wait, slot_wait

__all__ = ["contention", "prepare"]


def prepare(a, xp):
    """The row ``a`` plus the ring terms that do not depend on ``T``.

    Mean probe occupancy interpolates between a full traversal
    (broadcasts) and half the ring (unicasts); block messages are
    always unicast.
    """
    p = dict(a)
    clock = a["clock_ps"]
    ring_cycles = a["ring_cycles"]

    # --- probe slots ---------------------------------------------------
    f_probes = a["f_probes"]
    broadcast_share = xp.minimum(
        1.0,
        guarded_ratio(a["f_broadcast_probes"], f_probes, f_probes > 0.0, xp),
    )
    p["mean_probe_occupancy"] = (
        broadcast_share * ring_cycles
        + (1.0 - broadcast_share) * ring_cycles / 2.0
    ) * clock
    p["ring_probe_slots"] = a["num_frames"] * a["probe_slots"]
    # Slots of one parity pass a node every frame / (probe_slots/2).
    p["probe_period"] = a["frame_stages"] * clock / (a["probe_slots"] / 2)

    # --- block slots ---------------------------------------------------
    p["mean_block_occupancy"] = (ring_cycles / 2.0) * clock
    p["ring_block_slots"] = a["num_frames"] * a["block_slots"]
    p["block_period"] = a["frame_stages"] * clock / a["block_slots"]

    # --- aggregate ring utilisation weights (stage weighted) -------------
    probe_weight = a["probe_slots"] * a["probe_stages"]
    block_weight = a["block_slots"] * a["block_stages"]
    p["probe_weight"] = probe_weight
    p["block_weight"] = block_weight
    p["total_weight"] = probe_weight + block_weight

    # --- wire times the protocol models add up -----------------------------
    p["ring_ps"] = ring_cycles * clock
    p["probe_drain"] = a["probe_stages"] * clock
    p["block_drain"] = a["block_stages"] * clock
    p["frame_ps"] = a["frame_stages"] * clock
    return p


def contention(p, T, xp):
    """Slot and bank contention when each processor retires one
    instruction every ``T`` ps (``p`` from :func:`prepare`).

    Returns ``(probe_wait, block_wait, bank_wait, ring_utilization,
    bank_utilization)``: expected waits (ps) for a free probe slot, a
    free block slot and a memory bank; the stage-weighted ring
    utilisation (the paper's reported metric); the bank utilisation.

    Message rates follow from the extracted frequencies: each of the
    ``P`` processors executes ``1/T`` instructions per ps.
    """
    processors = p["processors"]
    rate = processors / T  # instructions per ps

    probe_utilization = xp.minimum(
        1.0,
        p["f_probes"] * rate * p["mean_probe_occupancy"] / p["ring_probe_slots"],
    )
    probe_wait = slot_wait(probe_utilization, p["probe_period"], xp)

    block_utilization = xp.minimum(
        1.0,
        p["f_blocks"] * rate * p["mean_block_occupancy"] / p["ring_block_slots"],
    )
    block_wait = slot_wait(block_utilization, p["block_period"], xp)

    access_ps = p["access_ps"]
    bank_utilization = xp.minimum(
        1.0, p["f_memory_accesses"] * rate / processors * access_ps
    )
    bank_wait = md1_wait(bank_utilization, access_ps, xp)

    ring_utilization = (
        probe_utilization * p["probe_weight"] + block_utilization * p["block_weight"]
    ) / p["total_weight"]
    return probe_wait, block_wait, bank_wait, ring_utilization, bank_utilization
