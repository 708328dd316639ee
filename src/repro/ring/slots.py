"""Slot and frame geometry for the slotted ring.

The ring's bandwidth is divided into *marked message slots* of two
kinds (paper section 2):

* **probe slots** -- short slots carrying miss/invalidation requests:
  a block address plus control/routing information (8 bytes here);
* **block slots** -- a header (same format as a probe) plus one cache
  block, used for miss replies and write-backs.

Slots are grouped into **frames**.  The paper's frame (section 3.3)
contains one probe slot for even-address blocks, one for odd-address
blocks, and one block slot; interleaving the probe slots this way
guarantees a minimum spacing between probes hitting the same
dual-directory bank, which is what makes snooping feasible at 500 MHz.

A payload of ``b`` bytes on a ``w``-bit ring occupies
``ceil(8 b / w)`` pipeline stages.  With the defaults (32-bit links,
16-byte blocks) a probe slot is 2 stages, a block slot is 6, and the
frame is 10 stages -- exactly the paper's "a frame composed of two
probe slots and one block slot occupies 10 pipeline stages".  The same
arithmetic reproduces every entry of the paper's Table 3 (see
``repro.models.snoop_rate``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "SlotType",
    "BLOCK_SLOT",
    "PROBE_EVEN_SLOT",
    "PROBE_ODD_SLOT",
    "FrameLayout",
    "PROBE_PAYLOAD_BYTES",
    "BLOCK_HEADER_BYTES",
    "stages_for_bytes",
]

#: Bytes carried by a probe: block address + command/routing/ack fields.
PROBE_PAYLOAD_BYTES = 8

#: Bytes of header on a block message (same format as a probe).
BLOCK_HEADER_BYTES = 8


class SlotType(enum.Enum):
    """The three slot kinds in a standard frame.

    Every member carries a dense ``index`` (0, 1, 2 in declaration
    order) so per-type state on the slot scheduler's hot path can live
    in lists instead of enum-keyed dicts.
    """

    PROBE_EVEN = "probe-even"
    PROBE_ODD = "probe-odd"
    BLOCK = "block"

    index: int

    def __init__(self, value: str) -> None:
        self.index = len(type(self).__members__)

    @property
    def is_probe(self) -> bool:
        return self is not SlotType.BLOCK


#: The slot types bound to module names.  The message paths pass and
#: test ``BLOCK_SLOT`` on every block message and pick a probe type on
#: every probe, and on Python 3.11 an enum member read through its
#: class costs about ten times a global name.
BLOCK_SLOT = SlotType.BLOCK
PROBE_EVEN_SLOT = SlotType.PROBE_EVEN
PROBE_ODD_SLOT = SlotType.PROBE_ODD


def stages_for_bytes(payload_bytes: int, width_bits: int) -> int:
    """Pipeline stages needed to carry ``payload_bytes`` on the ring.

    One stage moves ``width_bits`` per ring clock, so the slot length is
    the payload size divided by the link width, rounded up.
    """
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    if width_bits <= 0 or width_bits % 8:
        raise ValueError("width_bits must be a positive multiple of 8")
    bits = payload_bytes * 8
    return -(-bits // width_bits)


@dataclass(frozen=True)
class FrameLayout:
    """Geometry of one frame for a given link width and block size.

    Parameters
    ----------
    width_bits:
        Link (and latch) width; the paper studies 16, 32 and 64.
    block_size:
        Cache block size in bytes; the paper studies 16 to 128.
    probe_slots:
        Probe slots per frame (2 in the paper: even + odd parity).
    block_slots:
        Block slots per frame (1 in the paper).  The 2:1 probe:block
        mix is the paper's measured optimum for both protocols; the
        slot-mix ablation bench varies these.

    Attributes
    ----------
    probe_stages:
        Stages occupied by one probe slot.
    block_stages:
        Stages occupied by one block slot (header + cache block).
    frame_stages:
        Total stages in one frame.
    """

    width_bits: int = 32
    block_size: int = 16
    probe_slots: int = 2
    block_slots: int = 1

    def __post_init__(self) -> None:
        if self.probe_slots < 1 or self.block_slots < 1:
            raise ValueError("a frame needs at least one slot of each kind")
        if self.probe_slots % 2:
            raise ValueError(
                "probe_slots must be even (paired even/odd parity slots)"
            )
        stages_for_bytes(self.block_size, self.width_bits)  # validates
        # The stage counts are computed once, here: the geometry is
        # immutable and the message primitives read it per send.  They
        # are plain attributes, not fields, so equality, hashing and
        # ``repr`` see the four parameters only (``object.__setattr__``
        # because the dataclass is frozen).
        probe_stages = stages_for_bytes(PROBE_PAYLOAD_BYTES, self.width_bits)
        block_stages = stages_for_bytes(
            BLOCK_HEADER_BYTES + self.block_size, self.width_bits
        )
        object.__setattr__(self, "probe_stages", probe_stages)
        object.__setattr__(self, "block_stages", block_stages)
        object.__setattr__(
            self,
            "frame_stages",
            self.probe_slots * probe_stages + self.block_slots * block_stages,
        )

    def stages_of(self, slot_type: SlotType) -> int:
        """Stage length of a slot of the given type."""
        if slot_type.is_probe:
            return self.probe_stages
        return self.block_stages

    # ------------------------------------------------------------------
    # Slot positions within the frame
    # ------------------------------------------------------------------
    def slot_offsets(self) -> List[Tuple[SlotType, int]]:
        """(type, head offset within frame) for every slot in a frame.

        Probe slots alternate even/odd parity and lead the frame;
        block slots follow.  Offsets are where the slot's *head* sits
        relative to the frame start.
        """
        offsets: List[Tuple[SlotType, int]] = []
        position = 0
        for index in range(self.probe_slots):
            parity = SlotType.PROBE_EVEN if index % 2 == 0 else SlotType.PROBE_ODD
            offsets.append((parity, position))
            position += self.probe_stages
        for _ in range(self.block_slots):
            offsets.append((SlotType.BLOCK, position))
            position += self.block_stages
        return offsets

    def probe_type_for_parity(self, parity: int) -> SlotType:
        """Probe slot type serving blocks of the given address parity."""
        return PROBE_EVEN_SLOT if parity == 0 else PROBE_ODD_SLOT

    def snoop_interarrival_cycles(self) -> int:
        """Minimum ring cycles between probes to one dual-directory bank.

        With a 2-way interleaved (even/odd) dual directory, consecutive
        probes to the same bank are separated by at least one frame --
        this is the quantity tabulated (in nanoseconds) in the paper's
        Table 3.
        """
        return self.frame_stages
