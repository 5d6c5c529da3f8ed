"""The AdvHet asymmetric DL1 cache (Section IV-C1, Figure 5).

An 8-way 32 KB DL1 is split by way: one 4 KB way is implemented in CMOS
(the *FastCache*, 1-cycle hits) and the remaining seven ways in TFET (the
*SlowCache*, 4 additional cycles).  Requests probe the FastCache first; on a
FastCache miss the SlowCache is probed, and a SlowCache hit promotes the
line into the FastCache (swapping out the FastCache resident) so that the
MRU line of each set lives in the fast way.  A full miss fills into the
FastCache.

The same structure, with both partitions in CMOS and latencies 1/3 cycles,
models the BaseCMOS-Enh variant of Table IV.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import NamedTuple

from repro.mem.cache import Cache, CacheSnapshot, CacheStats


@dataclass
class AsymStats:
    """Counters specific to the asymmetric organisation."""

    fast_hits: int = 0
    slow_hits: int = 0
    misses: int = 0
    line_moves: int = 0

    @property
    def accesses(self) -> int:
        return self.fast_hits + self.slow_hits + self.misses

    @property
    def fast_hit_rate(self) -> float:
        """Fraction of all accesses served by the CMOS fast way."""
        total = self.accesses
        return self.fast_hits / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return (self.fast_hits + self.slow_hits) / total if total else 1.0

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.fast_hits = 0
        self.slow_hits = 0
        self.misses = 0
        self.line_moves = 0

    def publish(self, registry, prefix: str) -> None:
        """Register lazy probes for the asymmetric counters.

        Names follow the observability convention (``fast_way_hits`` /
        ``slow_way_hits``) so ``cpu.coreN.dl1.fast_way_hits`` reads the
        paper's headline DL1 statistic straight out of a snapshot.
        """
        registry.probe(f"{prefix}.fast_way_hits", lambda: self.fast_hits)
        registry.probe(f"{prefix}.slow_way_hits", lambda: self.slow_hits)
        registry.probe(f"{prefix}.misses", lambda: self.misses)
        registry.probe(f"{prefix}.line_moves", lambda: self.line_moves)
        registry.probe(f"{prefix}.accesses", lambda: self.accesses)


class AsymSnapshot(NamedTuple):
    """An :class:`AsymmetricL1`'s state, frozen by
    :meth:`AsymmetricL1.snapshot`."""

    fast: CacheSnapshot
    slow: CacheSnapshot
    #: :class:`AsymStats` fields in declaration order.
    stats: "tuple[int, ...]"


class AsymmetricL1:
    """FastCache + SlowCache pair acting as one DL1.

    ``fast_hit_cycles`` and ``slow_extra_cycles`` are round-trip components:
    a fast hit costs ``fast_hit_cycles`` and a slow hit costs
    ``fast_hit_cycles + slow_extra_cycles`` (the paper's 1 and 1+4 = 5 for
    AdvHet; 1 and 3 for the CMOS-only BaseCMOS-Enh variant).
    """

    def __init__(
        self,
        total_size_bytes: int = 32 * 1024,
        assoc: int = 8,
        line_bytes: int = 64,
        fast_hit_cycles: int = 1,
        slow_extra_cycles: int = 4,
        name: str = "asym-dl1",
    ):
        if assoc < 2:
            raise ValueError("asymmetric cache needs at least two ways")
        way_bytes = total_size_bytes // assoc
        self.name = name
        self.fast = Cache(f"{name}.fast", way_bytes, 1, line_bytes)
        self.slow = Cache(
            f"{name}.slow", way_bytes * (assoc - 1), assoc - 1, line_bytes
        )
        self.fast_hit_cycles = fast_hit_cycles
        self.slow_extra_cycles = slow_extra_cycles
        self.line_bytes = line_bytes
        self.stats = AsymStats()

    @property
    def slow_hit_cycles(self) -> int:
        """Total round trip of a SlowCache hit (fast probe + slow access)."""
        return self.fast_hit_cycles + self.slow_extra_cycles

    def access(self, addr: int, is_write: bool = False) -> tuple[bool, int]:
        """Access ``addr``.  Returns ``(hit_anywhere, latency_cycles)``.

        On a full miss the line is filled into the FastCache (the caller
        adds the lower-level latency to the returned fast-probe cost).
        """
        if self.fast.lookup(addr, is_write):
            self.stats.fast_hits += 1
            return True, self.fast_hit_cycles
        present, dirty = self.slow.extract(addr)
        if present:
            self.stats.slow_hits += 1
            self._promote(addr, dirty or is_write)
            return True, self.slow_hit_cycles
        self.stats.misses += 1
        self._promote(addr, is_write)
        return False, self.fast_hit_cycles

    def _promote(self, addr: int, dirty: bool) -> None:
        """Install ``addr`` in the FastCache, demoting its victim to slow."""
        victim_addr, victim_dirty = self.fast.insert(addr, dirty)
        if victim_addr is not None:
            self.stats.line_moves += 1
            slow_victim, _ = self.slow.insert(victim_addr, victim_dirty)
            # slow_victim falls out of the DL1 entirely (writeback already
            # counted by the slow cache's stats).
            del slow_victim

    def fill_range(self, base: int, size_bytes: int) -> None:
        """Read every line of ``[base, base + size_bytes)`` in ascending
        order.  Promotion and demotion between the partitions have no
        closed form, so this replays each line through :meth:`access`."""
        for addr in range(base, base + size_bytes, self.line_bytes):
            self.access(addr)

    def probe(self, addr: int) -> bool:
        """Residency in either partition, without side effects."""
        return self.fast.probe(addr) or self.slow.probe(addr)

    def publish(self, registry, prefix: "str | None" = None) -> None:
        """Expose the asymmetric counters plus both partitions' cache
        statistics under ``prefix.`` in a metrics registry."""
        prefix = prefix or self.name
        self.stats.publish(registry, prefix)
        self.fast.publish(registry, f"{prefix}.fast")
        self.slow.publish(registry, f"{prefix}.slow")

    def invalidate_all(self) -> None:
        self.fast.invalidate_all()
        self.slow.invalidate_all()

    @property
    def geometry(self) -> tuple:
        """Both partitions' geometries.  Latencies do not shape the
        state, so AdvHet and BaseCMOS-Enh DL1s share snapshots."""
        return "asym", self.fast.geometry, self.slow.geometry

    def snapshot(self) -> AsymSnapshot:
        """Freeze both partitions and the asymmetric counters."""
        return AsymSnapshot(
            self.fast.snapshot(), self.slow.snapshot(), astuple(self.stats)
        )

    def restore(self, snapshot: AsymSnapshot) -> None:
        """Replace this DL1's state with ``snapshot``'s, exactly."""
        self.fast.restore(snapshot.fast)
        self.slow.restore(snapshot.slow)
        stats = self.stats
        (stats.fast_hits, stats.slow_hits, stats.misses,
         stats.line_moves) = snapshot.stats

    def combined_stats(self) -> CacheStats:
        """A CacheStats view aggregating both partitions for reporting."""
        stats = CacheStats()
        stats.accesses = self.stats.accesses
        stats.hits = self.stats.fast_hits + self.stats.slow_hits
        stats.misses = self.stats.misses
        stats.evictions = self.fast.stats.evictions + self.slow.stats.evictions
        stats.writebacks = self.fast.stats.writebacks + self.slow.stats.writebacks
        return stats
