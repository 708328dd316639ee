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

__all__ = ["BusModel", "latencies", "prepare"]


def prepare(a, xp):
    """The row plus the bus's ``T``-independent terms: the cycle demand
    per instruction (in ps), the mean holding time and the request and
    reply times."""
    p = dict(a)
    clock = a["bus_clock_ps"]
    # The bus sees the snooping protocol's event classes.
    f = dict(ring_snooping.frequencies(a))
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
    # Mean bus-holding time weighted over transaction types.
    acquisitions = (
        2.0 * remote
        + f["local_clean"]
        + f["upgrade"]
        + a["f_writeback"]
        + a["f_sharing_writeback"]
    )
    p["bus_demand_ps"] = demand * clock
    p["bus_mean_hold"] = (
        guarded_ratio(demand, acquisitions, acquisitions != 0.0, xp) * clock
    )
    p["bus_request_ps"] = a["bus_request_cycles"] * clock
    p["bus_reply_ps"] = a["bus_reply_cycles"] * clock
    return p


def latencies(p, T, xp):
    """Per-class latencies, bus and bank utilisation."""
    processors = p["processors"]
    rate = processors / T  # instructions per ps

    utilization = xp.minimum(1.0, p["bus_demand_ps"] * rate)
    mean_hold = p["bus_mean_hold"]
    bus_wait = xp.where(
        mean_hold != 0.0, md1_wait(utilization, mean_hold, xp), 0.0
    )

    access_ps = p["access_ps"]
    bank_utilization = xp.minimum(
        1.0, p["f_memory_accesses"] * rate / processors * access_ps
    )
    bank_total = access_ps + md1_wait(bank_utilization, access_ps, xp)

    # A remote miss arbitrates for the request, then again for the reply.
    request = bus_wait + p["bus_request_ps"]
    reply = p["bus_reply_ps"]
    classes = {
        "private": bank_total,
        "local_clean": bank_total,
        "remote_clean": request + bank_total + bus_wait + reply,
        "remote_dirty": request + p["cache_response_ps"] + bus_wait + reply,
        "upgrade": request,
    }
    return classes, utilization, bank_utilization


class BusModel(FixedPointModel):
    """Iterative model producing the Figure 6 bus curves."""

    family = "bus"
    name = "bus"
    interconnect = "bus"
    shared_classes = ring_snooping.SNOOPING_SHARED_CLASSES
    frequencies = staticmethod(ring_snooping.frequencies)
    prepare = staticmethod(prepare)
    latencies = staticmethod(latencies)
