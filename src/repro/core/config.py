"""System configuration for simulations and analytical models.

Defaults follow the paper's baseline system (section 4): 500 MHz
32-bit slotted ring, 128 KB direct-mapped caches with 16-byte blocks,
140 ns memory banks, 50 MIPS processors, and an aggressive 64-bit
split-transaction bus at 50 or 100 MHz for the comparison study.

All times are integer picoseconds (see ``repro.sim.kernel``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ring.slots import FrameLayout
    from repro.ring.topology import RingTopology

#: Minimum pipeline stages per node interface (paper section 4.2).
#: Kept in sync with ``repro.ring.topology.STAGES_PER_NODE`` (the ring
#: package cannot be imported here at module level without a cycle).
STAGES_PER_NODE = 3

__all__ = [
    "Protocol",
    "RingConfig",
    "BusConfig",
    "CacheConfig",
    "MemoryConfig",
    "ProcessorConfig",
    "SystemConfig",
]


class Protocol(enum.Enum):
    """Coherence protocol / interconnect selection."""

    #: Snooping on the slotted ring (paper section 3.1).
    SNOOPING = "snooping"
    #: Full-map directory on the slotted ring (section 3.2).
    DIRECTORY = "directory"
    #: SCI-style linked-list directory on the slotted ring (Table 1).
    LINKED_LIST = "linked-list"
    #: Snooping on the split-transaction bus (section 4.3).
    BUS = "bus"
    #: Snooping on a two-level hierarchy of slotted rings (the KSR1 /
    #: Hector organisation of the paper's related-work section).
    HIERARCHICAL = "hierarchical"

    @property
    def uses_ring(self) -> bool:
        return self is not Protocol.BUS


#: ``SystemConfig.__post_init__`` runs at every ``replace()`` of a design
#: sweep; a module global is read several times faster than the member
#: through its enum class.
_HIERARCHICAL = Protocol.HIERARCHICAL


@dataclass(frozen=True)
class RingConfig:
    """Slotted-ring parameters."""

    #: Link/latch width in bits (paper: 16, 32 or 64; baseline 32).
    width_bits: int = 32
    #: Ring clock period (baseline 500 MHz = 2 ns).
    clock_ps: int = 2_000
    #: Probe slots per frame (the 2:1 probe:block mix is the paper's
    #: measured optimum for both protocols).
    probe_slots: int = 2
    #: Block slots per frame.
    block_slots: int = 1
    #: Pipeline stages contributed by each node interface.
    stages_per_node: int = STAGES_PER_NODE
    #: Anti-starvation rule: a node may not reuse a slot it just freed.
    enforce_fairness: bool = True
    #: Number of local rings in the hierarchical organisation
    #: (Protocol.HIERARCHICAL only); processors must divide evenly.
    clusters: int = 4

    def layout(self, block_size: int) -> "FrameLayout":
        """Frame geometry for the given cache block size."""
        from repro.ring.slots import FrameLayout

        return FrameLayout(
            width_bits=self.width_bits,
            block_size=block_size,
            probe_slots=self.probe_slots,
            block_slots=self.block_slots,
        )

    def topology(self, num_nodes: int, block_size: int) -> "RingTopology":
        """Ring topology for ``num_nodes`` carrying these frames."""
        from repro.ring.topology import RingTopology

        return RingTopology.for_layout(
            num_nodes, self.layout(block_size), self.stages_per_node
        )

    @property
    def clock_mhz(self) -> float:
        return 1e6 / self.clock_ps


@dataclass(frozen=True)
class BusConfig:
    """Split-transaction bus parameters (FutureBus+-like, section 4.3).

    The paper states a remote miss needs a minimum of six bus cycles
    excluding arbitration and the memory/cache fetch; that budget is
    split here between the request phase (address + command, snooped
    by all) and the reply phase (header + data beats).
    """

    #: Data path width in bits (paper: 64).
    width_bits: int = 64
    #: Bus clock period (paper compares 50 MHz = 20 ns and 100 MHz).
    clock_ps: int = 20_000
    #: Bus cycles held by a miss/upgrade request phase.
    request_cycles: int = 2
    #: Bus cycles held by a block reply (header + data beats); with the
    #: defaults a remote miss occupies request + reply = 6 cycles.
    reply_cycles: int = 4
    #: Bus cycles held by a write-back transfer.
    writeback_cycles: int = 4

    @property
    def clock_mhz(self) -> float:
        return 1e6 / self.clock_ps

    def with_clock_mhz(self, mhz: float) -> "BusConfig":
        return replace(self, clock_ps=round(1e6 / mhz))


@dataclass(frozen=True)
class CacheConfig:
    """Per-processor data cache (instruction refs never miss)."""

    size_bytes: int = 128 * 1024
    block_size: int = 16

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.block_size


@dataclass(frozen=True)
class MemoryConfig:
    """Memory-system latencies."""

    #: Local memory bank access, fixed at 140 ns in the paper.
    access_ps: int = 140_000
    #: Time for an owning cache to respond to a coherence request with
    #: data.  The paper's bus discussion groups "the time to fetch the
    #: block in the remote memory or cache", so the default matches the
    #: memory access time.
    cache_response_ps: int = 140_000
    #: Directory lookup beyond the data access (0 = SRAM directory).
    directory_lookup_ps: int = 0


@dataclass(frozen=True)
class ProcessorConfig:
    """Trace-driven processor model."""

    #: Processor cycle; the paper sweeps 1 ns (1000 MIPS) to 20 ns
    #: (50 MIPS).  Simulations are run at 50 MIPS like the paper's.
    cycle_ps: int = 20_000
    #: References executed between forced re-synchronisations with the
    #: event loop (bounds how far a processor can run ahead batching
    #: cache hits).
    batch_refs: int = 64
    #: Write-latency tolerance (the paper's section 6 discussion of
    #: weak ordering / lockup-free caches): when True, permission
    #: upgrades complete in the background through a store buffer and
    #: the processor keeps executing; misses still block.  Default is
    #: the paper's baseline, which "blocks on all misses and
    #: invalidations".
    weak_ordering: bool = False

    @property
    def mips(self) -> float:
        return 1e6 / self.cycle_ps

    def with_mips(self, mips: float) -> "ProcessorConfig":
        return replace(self, cycle_ps=round(1e6 / mips))


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated system."""

    num_processors: int = 16
    protocol: Protocol = Protocol.SNOOPING
    ring: RingConfig = field(default_factory=RingConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    seed: int = 1993

    def __post_init__(self) -> None:
        if self.num_processors < 2:
            raise ValueError("need at least 2 processors")
        # A result key spells these as given: 1 and True would differ.
        if type(self.ring.enforce_fairness) is not bool:
            raise ValueError("ring.enforce_fairness must be a bool")
        if type(self.processor.weak_ordering) is not bool:
            raise ValueError("processor.weak_ordering must be a bool")
        if self.protocol is _HIERARCHICAL:
            clusters = self.ring.clusters
            if clusters < 2:
                raise ValueError("hierarchy needs at least 2 clusters")
            if self.num_processors % clusters:
                raise ValueError(
                    f"{self.num_processors} processors do not divide "
                    f"into {clusters} clusters"
                )

    @property
    def block_size(self) -> int:
        return self.cache.block_size

    def ring_topology(self) -> "RingTopology":
        return self.ring.topology(self.num_processors, self.block_size)

    def ring_layout(self) -> "FrameLayout":
        return self.ring.layout(self.block_size)
