"""Analytical models: the fast half of the hybrid methodology.

Each model family's equations are written once (in its own module,
over floats or NumPy arrays -- see :mod:`repro.models.base`); the
scalar models below solve them point by point, the vectorized grid
engine (``repro.models.grid``) a whole design grid at once.  The grid
engine is the only NumPy user and is not imported here, so importing
``repro.models`` never pulls in NumPy.
"""

from repro.models.base import (
    FixedPointDiverged,
    LatencyBreakdown,
    family_for_protocol,
    md1_wait,
    mm1_wait,
    slot_wait,
    solve_time_per_instruction,
)
from repro.models.bus import BusModel
from repro.models.matching import matching_bus_clock_ns, ring_target_utilization
from repro.models.register_insertion import (
    AccessPoint,
    access_comparison,
    crossover_utilization,
    register_insertion_access_ps,
    slotted_access_ps,
)
from repro.models.ring_directory import DIRECTORY_SHARED_CLASSES, DirectoryRingModel
from repro.models.ring_linkedlist import LinkedListRingModel
from repro.models.ring_snooping import SNOOPING_SHARED_CLASSES, SnoopingRingModel
from repro.models.snoop_rate import (
    PAPER_TABLE3,
    TABLE3_BLOCK_SIZES,
    TABLE3_WIDTHS,
    snoop_interarrival_ns,
    snoop_rate_table,
)

#: Model family name -> its scalar model class; ``family_for_protocol``
#: picks the family for a protocol.
MODEL_FAMILIES = {
    model.family: model
    for model in (
        BusModel,
        SnoopingRingModel,
        DirectoryRingModel,
        LinkedListRingModel,
    )
}

__all__ = [
    "FixedPointDiverged",
    "LatencyBreakdown",
    "MODEL_FAMILIES",
    "family_for_protocol",
    "md1_wait",
    "mm1_wait",
    "slot_wait",
    "solve_time_per_instruction",
    "BusModel",
    "matching_bus_clock_ns",
    "ring_target_utilization",
    "AccessPoint",
    "access_comparison",
    "crossover_utilization",
    "register_insertion_access_ps",
    "slotted_access_ps",
    "DIRECTORY_SHARED_CLASSES",
    "DirectoryRingModel",
    "LinkedListRingModel",
    "SNOOPING_SHARED_CLASSES",
    "SnoopingRingModel",
    "PAPER_TABLE3",
    "TABLE3_BLOCK_SIZES",
    "TABLE3_WIDTHS",
    "snoop_interarrival_ns",
    "snoop_rate_table",
]
