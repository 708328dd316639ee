"""Shared contention equations for the ring analytical models.

All three ring models (snooping, directory, linked list) see the same
physical ring: probe slots and block slots circulating past each node
at fixed periods.  Given a field row (:func:`repro.models.base.
config_row`) and a candidate time-per-instruction, :func:`contention`
computes slot utilisations, expected slot waits, and memory-bank
waits; the protocol-specific models assemble per-class latencies from
these.  Like every model equation it runs on floats or on NumPy arrays
(``xp``, see :mod:`repro.models.base`).
"""

from __future__ import annotations

from repro.models.base import guarded_ratio, md1_wait, slot_wait

__all__ = ["contention"]


def contention(a, T, xp):
    """Slot and bank contention when each processor retires one
    instruction every ``T`` ps.

    Returns ``(probe_wait, block_wait, bank_wait, ring_utilization,
    bank_utilization)``: expected waits (ps) for a free probe slot, a
    free block slot and a memory bank; the stage-weighted ring
    utilisation (the paper's reported metric); the bank utilisation.

    Message rates follow from the extracted frequencies: each of the
    ``P`` processors executes ``1/T`` instructions per ps.  Mean probe
    occupancy interpolates between a full traversal (broadcasts) and
    half the ring (unicasts); block messages are always unicast.
    """
    clock = a["clock_ps"]
    ring_cycles = a["ring_cycles"]
    processors = a["processors"]
    rate = processors / T  # instructions per ps

    # --- probe slots ---------------------------------------------------
    f_probes = a["f_probes"]
    probe_rate = f_probes * rate  # probes per ps, all parities
    broadcast_share = xp.minimum(
        1.0,
        guarded_ratio(a["f_broadcast_probes"], f_probes, f_probes > 0.0, xp),
    )
    mean_probe_occupancy = (
        broadcast_share * ring_cycles
        + (1.0 - broadcast_share) * ring_cycles / 2.0
    ) * clock
    probe_slots = a["num_frames"] * a["probe_slots"]
    probe_utilization = xp.minimum(
        1.0, probe_rate * mean_probe_occupancy / probe_slots
    )
    # Slots of one parity pass a node every frame / (probe_slots/2).
    probe_period = a["frame_stages"] * clock / (a["probe_slots"] / 2)
    probe_wait = slot_wait(probe_utilization, probe_period, xp)

    # --- block slots ---------------------------------------------------
    block_rate = a["f_blocks"] * rate
    mean_block_occupancy = (ring_cycles / 2.0) * clock
    block_slots = a["num_frames"] * a["block_slots"]
    block_utilization = xp.minimum(
        1.0, block_rate * mean_block_occupancy / block_slots
    )
    block_period = a["frame_stages"] * clock / a["block_slots"]
    block_wait = slot_wait(block_utilization, block_period, xp)

    # --- memory banks ----------------------------------------------------
    access_ps = a["access_ps"]
    per_bank_rate = a["f_memory_accesses"] * rate / processors
    bank_utilization = xp.minimum(1.0, per_bank_rate * access_ps)
    bank_wait = md1_wait(bank_utilization, access_ps, xp)

    # --- aggregate ring utilisation (stage weighted) ---------------------
    probe_weight = a["probe_slots"] * a["probe_stages"]
    block_weight = a["block_slots"] * a["block_stages"]
    total_weight = probe_weight + block_weight
    ring_utilization = (
        probe_utilization * probe_weight + block_utilization * block_weight
    ) / total_weight
    return probe_wait, block_wait, bank_wait, ring_utilization, bank_utilization
