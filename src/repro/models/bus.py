"""Analytical model of the split-transaction bus (section 4.3).

The bus is a single FIFO server; every coherence action holds it for a
deterministic number of bus cycles (request 2, block transfer 4 with
the defaults -- the paper's six-cycle minimum per remote miss).
Utilisation is the summed cycle demand; queueing delay per
acquisition follows the M/G/1 form with deterministic-ish service.
A remote miss arbitrates twice (request phase, then the reply after
the memory or cache fetch).
"""

from __future__ import annotations

from repro.models import ring_snooping
from repro.models.base import FixedPointModel, guarded_ratio, md1_wait

__all__ = ["BusModel", "latencies"]


def latencies(a, T, xp):
    """Per-class latencies, frequencies, bus and bank utilisation."""
    clock = a["bus_clock_ps"]
    processors = a["processors"]
    rate = processors / T  # instructions per ps

    # The bus sees the snooping protocol's event classes.
    mix = ring_snooping.frequencies(a)
    f = dict(mix)
    remote = f["remote_clean"] + f["remote_dirty"]
    # Bus cycles per instruction across all transaction types (misses,
    # upgrades, write-backs, memory updates).
    demand = (
        remote * (a["bus_request_cycles"] + a["bus_reply_cycles"])
        + f["local_clean"] * a["bus_request_cycles"]
        + f["upgrade"] * a["bus_request_cycles"]
        + (a["f_writeback"] + a["f_sharing_writeback"])
        * a["bus_writeback_cycles"]
    )
    utilization = xp.minimum(1.0, demand * clock * rate)
    # Mean bus-holding time weighted over transaction types.
    acquisitions = (
        2.0 * remote
        + f["local_clean"]
        + f["upgrade"]
        + a["f_writeback"]
        + a["f_sharing_writeback"]
    )
    mean_hold = (
        guarded_ratio(demand, acquisitions, acquisitions != 0.0, xp) * clock
    )
    bus_wait = xp.where(
        mean_hold != 0.0, md1_wait(utilization, mean_hold, xp), 0.0
    )

    access_ps = a["access_ps"]
    per_bank_rate = a["f_memory_accesses"] * rate / processors
    bank_utilization = xp.minimum(1.0, per_bank_rate * access_ps)
    bank_total = access_ps + md1_wait(bank_utilization, access_ps, xp)

    request = a["bus_request_cycles"] * clock
    reply = a["bus_reply_cycles"] * clock
    classes = {
        "private": bank_total,
        "local_clean": bank_total,
        "remote_clean": bus_wait + request + bank_total + bus_wait + reply,
        "remote_dirty": (
            bus_wait + request + a["cache_response_ps"] + bus_wait + reply
        ),
        "upgrade": bus_wait + request,
    }
    return classes, mix, utilization, bank_utilization


class BusModel(FixedPointModel):
    """Iterative model producing the Figure 6 bus curves."""

    family = "bus"
    name = "bus"
    interconnect = "bus"
    shared_classes = ring_snooping.SNOOPING_SHARED_CLASSES
    frequencies = staticmethod(ring_snooping.frequencies)
    latencies = staticmethod(latencies)
