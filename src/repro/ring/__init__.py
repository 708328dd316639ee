"""The slotted-ring interconnect: one slotted-ring layer and the four
coherence engines on it."""

from repro.ring.base import ProtocolError, RingSystemBase
from repro.ring.directory import DirectoryRingSystem
from repro.ring.hierarchical import HierarchicalRingSystem
from repro.ring.linkedlist import LinkedListRingSystem
from repro.ring.scheduler import CirculatingSlot, SlotGrant, SlotScheduler
from repro.ring.slots import (
    BLOCK_HEADER_BYTES,
    PROBE_PAYLOAD_BYTES,
    FrameLayout,
    SlotType,
    stages_for_bytes,
)
from repro.ring.snooping import SnoopingRingSystem
from repro.ring.topology import STAGES_PER_NODE, RingTopology

__all__ = [
    "ProtocolError",
    "RingSystemBase",
    "DirectoryRingSystem",
    "HierarchicalRingSystem",
    "LinkedListRingSystem",
    "SnoopingRingSystem",
    "CirculatingSlot",
    "SlotGrant",
    "SlotScheduler",
    "BLOCK_HEADER_BYTES",
    "PROBE_PAYLOAD_BYTES",
    "FrameLayout",
    "SlotType",
    "stages_for_bytes",
    "STAGES_PER_NODE",
    "RingTopology",
]
