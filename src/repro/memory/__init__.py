"""Memory-system substrate: caches, address map, directories, banks."""

from repro.memory.address import AddressMap, PAGE_SIZE, PRIVATE_REGION_SIZE, SHARED_BASE
from repro.memory.bank import MEMORY_ACCESS_PS, MemoryBank, build_banks
from repro.memory.cache import AccessOutcome, CacheLine, CacheStats, DirectMappedCache
from repro.memory.directory_store import (
    FullMapDirectory,
    FullMapEntry,
    LinkedListDirectory,
    LinkedListEntry,
)
from repro.memory.states import CacheState

__all__ = [
    "AddressMap",
    "PAGE_SIZE",
    "PRIVATE_REGION_SIZE",
    "SHARED_BASE",
    "MEMORY_ACCESS_PS",
    "MemoryBank",
    "build_banks",
    "AccessOutcome",
    "CacheLine",
    "CacheStats",
    "DirectMappedCache",
    "FullMapDirectory",
    "FullMapEntry",
    "LinkedListDirectory",
    "LinkedListEntry",
    "CacheState",
]
