"""The private-IL1/DL1, private-L2, shared-L3, DRAM stack (Table III).

Round-trip (RT) latencies follow the paper's Table III convention: an access
that hits at level X costs that level's RT from the core's point of view
(the RT already includes the lookups above it).  Per-level RTs differ by
device assignment: DL1 is 2 (CMOS) or 4 (TFET) cycles, L2 is 8 or 12, L3 is
32 or 40; DRAM is a fixed 50 ns converted at the core frequency.

With an asymmetric DL1, a FastCache hit costs 1 cycle, a SlowCache hit 5,
and a full miss pays one extra probe cycle on top of the L2 RT (the request
walked the fast way before the normal path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.mem.asym import AsymmetricL1
from repro.mem.cache import Cache
from repro.mem.contention import SharedResourceContention


@dataclass(frozen=True)
class CacheLatencies:
    """Round-trip latencies (cycles, except DRAM in ns) for one config."""

    il1_rt: int = 2
    dl1_rt: int = 2
    l2_rt: int = 8
    l3_rt: int = 32
    dram_ns: float = 50.0

    def dram_cycles(self, freq_ghz: float) -> int:
        """DRAM round trip in core cycles at ``freq_ghz``."""
        return max(1, round(self.dram_ns * freq_ghz))


class AccessResult(NamedTuple):
    """Outcome of one data access: total latency and the level that hit.

    A NamedTuple rather than a (frozen) dataclass: one is allocated per
    load/store on the simulator's hottest path, and frozen-dataclass
    construction costs an ``object.__setattr__`` per field.
    """

    latency: int
    level: str  # "dl1-fast", "dl1", "dl1-slow", "l2", "l3", "dram"


class MemoryHierarchy:
    """Cache stack used by one CPU core.

    ``dl1`` may be a plain :class:`Cache` (BaseCMOS/BaseHet) or an
    :class:`AsymmetricL1` (AdvHet / BaseCMOS-Enh).  The shared L3 may carry
    a :class:`SharedResourceContention` uplift for multicore runs.
    """

    def __init__(
        self,
        latencies: CacheLatencies,
        freq_ghz: float = 2.0,
        dl1: "Cache | AsymmetricL1 | None" = None,
        il1: Cache | None = None,
        l2: Cache | None = None,
        l3: Cache | None = None,
        contention: SharedResourceContention | None = None,
        prefetch_lines: int = 2,
    ):
        if prefetch_lines < 0:
            raise ValueError("prefetch_lines cannot be negative")
        self.prefetch_lines = prefetch_lines
        self.latencies = latencies
        self.freq_ghz = freq_ghz
        self.il1 = il1 or Cache("il1", 32 * 1024, 2)
        self.dl1 = dl1 if dl1 is not None else Cache("dl1", 32 * 1024, 8)
        self.l2 = l2 or Cache("l2", 256 * 1024, 8)
        # Table III: 2 MB of shared L3 *per core*; the single detailed core
        # of a 4-core run sees the full 8 MB.
        self.l3 = l3 or Cache("l3", 8 * 1024 * 1024, 16)
        self.contention = contention
        self.dram_accesses = 0
        self._dram_cycles = latencies.dram_cycles(freq_ghz)
        #: Cached organisation flag: ``dl1`` never changes after
        #: construction, and :meth:`data_access` tests this per access.
        self.has_asymmetric_dl1 = isinstance(self.dl1, AsymmetricL1)

    def fetch(self, addr: int) -> AccessResult:
        """Instruction fetch through IL1 (misses walk L2/L3/DRAM)."""
        if self.il1.access(addr):
            return AccessResult(self.latencies.il1_rt, "il1")
        return self._walk_below_l1(addr, is_write=False, extra=0)

    def data_access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Load/store through DL1.  Stores update state; their latency is
        reported the same way (the core hides it behind the store buffer)."""
        if self.has_asymmetric_dl1:
            hit, latency = self.dl1.access(addr, is_write)
            if hit:
                level = "dl1-fast" if latency == self.dl1.fast_hit_cycles else "dl1-slow"
                return AccessResult(latency, level)
            return self._walk_below_l1(addr, is_write, extra=1)
        if self.dl1.access(addr, is_write):
            return AccessResult(self.latencies.dl1_rt, "dl1")
        return self._walk_below_l1(addr, is_write, extra=0)

    def _walk_below_l1(self, addr: int, is_write: bool, extra: int) -> AccessResult:
        if self.l2.access(addr, is_write):
            return AccessResult(self.latencies.l2_rt + extra, "l2")
        self._prefetch(addr)
        if self.l3.access(addr, is_write):
            latency = self._contended(self.latencies.l3_rt) + extra
            return AccessResult(latency, "l3")
        self.dram_accesses += 1
        base = self.latencies.l3_rt + self._dram_cycles
        return AccessResult(self._contended(base) + extra, "dram")

    def _prefetch(self, addr: int) -> None:
        """Next-line stream prefetch into L2/L3 on an L2 miss.

        Models the sequential prefetchers every commercial hierarchy has;
        without it, streaming access patterns pay a DRAM round trip per
        line, which no real machine does.
        """
        for i in range(1, self.prefetch_lines + 1):
            next_addr = addr + 64 * i
            self.l3.access(next_addr)
            self.l2.access(next_addr)

    def _contended(self, base: int) -> int:
        if self.contention is None:
            return base
        return round(base * self.contention.latency_multiplier())

    def prewarm_region(self, base: int, size_bytes: int, into_l1: bool = False) -> None:
        """Functionally warm a data region before timed simulation.

        Sampled-simulation methodology (SMARTS-style functional warming):
        real applications run billions of instructions, so their resident
        regions are cache-warm long before any measured window.  Fills L3
        and L2 (capacity permitting) and optionally the DL1 for every line
        of ``[base, base + size_bytes)``.  The caches are independent
        here (plain reads, no prefetch), so each fills the whole range in
        one :meth:`~repro.mem.cache.Cache.fill_range` call.
        """
        self.l3.fill_range(base, size_bytes)
        if size_bytes <= self.l2.size_bytes:
            self.l2.fill_range(base, size_bytes)
        if into_l1:
            self.dl1.fill_range(base, size_bytes)

    def reset_stats(self) -> None:
        """Zero all counters (cache contents are preserved for warm state)."""
        self.il1.stats.reset()
        self.l2.stats.reset()
        self.l3.stats.reset()
        self.dram_accesses = 0
        if self.has_asymmetric_dl1:
            self.dl1.stats.reset()
            self.dl1.fast.stats.reset()
            self.dl1.slow.stats.reset()
        else:
            self.dl1.stats.reset()

    def dl1_stats_summary(self) -> dict[str, float]:
        """Uniform DL1 statistics across plain and asymmetric organisations."""
        if self.has_asymmetric_dl1:
            s = self.dl1.stats
            return {
                "accesses": s.accesses,
                "hit_rate": s.hit_rate,
                "fast_hit_rate": s.fast_hit_rate,
                "line_moves": s.line_moves,
            }
        s = self.dl1.stats
        return {
            "accesses": s.accesses,
            "hit_rate": s.hit_rate,
            "fast_hit_rate": 0.0,
            "line_moves": 0,
        }
