"""Memory-hierarchy substrate for the HetCore reproduction.

* :mod:`repro.mem.cache` -- set-associative write-back caches with true LRU
  replacement and per-level statistics.
* :mod:`repro.mem.asym` -- the AdvHet asymmetric DL1 (Section IV-C1): one
  CMOS fast way plus TFET slow ways with MRU promotion.
* :mod:`repro.mem.hierarchy` -- the IL1/DL1/L2/L3/DRAM stack with the
  Table III round-trip latencies for CMOS and TFET variants.
* :mod:`repro.mem.contention` -- shared-L3/DRAM queueing uplift for
  multicore runs.
"""

from repro.mem.cache import Cache, CacheStats
from repro.mem.asym import AsymmetricL1
from repro.mem.hierarchy import CacheLatencies, MemoryHierarchy, AccessResult
from repro.mem.contention import SharedResourceContention

__all__ = [
    "Cache",
    "CacheStats",
    "AsymmetricL1",
    "CacheLatencies",
    "MemoryHierarchy",
    "AccessResult",
    "SharedResourceContention",
]
