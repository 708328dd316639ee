"""Bus-clock-to-match-ring solver: the paper's Table 4.

For a given benchmark and processor speed, the paper asks: how fast
must a 64-bit split-transaction bus be clocked to reach the same
processor utilisation (equivalently, the same program execution time)
as a 32-bit slotted ring at 250 or 500 MHz?

Both sides use the snooping protocol and the same extracted event
frequencies, so the question reduces to inverting the bus model's
utilisation in its clock period, which is monotone: a faster bus never
hurts.  A bisection on the bus clock period answers it.

No probe of the bisection solves the bus model.  The ring's operating
point is ``T* = cycle / target``; the bus residual
``g(T) = cycle + sum_k f_k L_k(T) - T`` is strictly decreasing in ``T``
and its root is the bus's own fixed point ``T_bus``, so the bus reaches
the target utilisation (``T_bus <= T*``) exactly when ``g(T*) <= 0``.
One evaluation of the bus equations at ``T*`` decides each probe.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.config import SystemConfig
from repro.core.results import ModelInputs
from repro.models import bus
from repro.models.base import SCALAR, SOLVER_STATS, config_row, weighted_sum
from repro.models.ring_snooping import SnoopingRingModel

__all__ = ["bus_matches", "matching_bus_clock_ns", "ring_target_utilization"]


def ring_target_utilization(
    config: SystemConfig, inputs: ModelInputs, processor_cycle_ps: int
) -> float:
    """Processor utilisation the ring achieves at this speed."""
    model = SnoopingRingModel(config, inputs)
    return model.solve(processor_cycle_ps).processor_utilization


def bus_matches(p, time_ps, xp):
    """True where the bus clocked at ``p["bus_clock_ps"]`` retires one
    instruction per ``time_ps`` or faster: the bus residual
    ``g(time_ps) = busy + sum_k f_k L_k(time_ps) - time_ps`` is <= 0.
    ``p`` is a bus field row carrying ``busy_ps``, prepared by
    :func:`repro.models.bus.prepare` (elementwise for arrays; a NaN
    lane never matches)."""
    latencies, _, _ = bus.latencies(p, time_ps, xp)
    mix = bus.BusModel.frequencies(p)
    return p["busy_ps"] + weighted_sum(mix, latencies) <= time_ps


def matching_bus_clock_ns(
    config: SystemConfig,
    inputs: ModelInputs,
    processor_cycle_ps: int,
    low_ns: float = 0.5,
    high_ns: float = 200.0,
    tolerance: float = 1e-3,
    target_utilization: Optional[float] = None,
) -> float:
    """Bus clock period (ns) giving the ring's processor utilisation.

    Returns the bisection solution in [low_ns, high_ns]; if even the
    fastest bus considered cannot match (bus-side latency floor above
    the ring's), ``low_ns`` is returned, and if the slowest bus already
    matches -- always so for a target <= 0 -- ``high_ns``.  Probes are
    quantised to whole picoseconds, so the answer lies within a
    picosecond of the exact threshold.  A NaN target raises
    ``ValueError``.
    """
    if target_utilization is None:
        target_utilization = ring_target_utilization(
            config, inputs, processor_cycle_ps
        )
    if math.isnan(target_utilization):
        raise ValueError("target utilisation is NaN")
    if target_utilization <= 0.0:
        return high_ns

    row = config_row(config, inputs)
    row["busy_ps"] = float(processor_cycle_ps)
    ring_time_ps = row["busy_ps"] / target_utilization

    def matches(clock_ns: float) -> bool:
        SOLVER_STATS["model_evals"] += 1
        row["bus_clock_ps"] = float(max(1, round(clock_ns * 1000)))
        return bus_matches(bus.prepare(row, SCALAR), ring_time_ps, SCALAR)

    low, high = low_ns, high_ns
    if not matches(low):
        return low
    if matches(high):
        return high
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if matches(mid):
            low = mid
        else:
            high = mid
    return (low + high) / 2.0
