"""Set-associative write-back caches with true LRU replacement.

The asymmetric-DL1 result in the paper hinges on MRU locality (the fast way
captures the most-recently-used line of each set), so the cache model keeps
real per-set recency state rather than sampling hit rates.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import partial
from typing import NamedTuple


@dataclass
class CacheStats:
    """Access counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over accesses; 1.0 for an untouched cache (vacuous)."""
        if self.accesses == 0:
            return 1.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        """Misses over accesses; 0.0 for an untouched cache."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset(self) -> None:
        """Zero every counter (used between warm-up and measurement)."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def publish(self, registry, prefix: str) -> None:
        """Register lazy probes for every counter under ``prefix.`` in
        ``registry`` (a :class:`repro.obs.metrics.MetricsRegistry`); the
        hot access path keeps its plain integer attributes."""
        for name in ("accesses", "hits", "misses", "evictions", "writebacks"):
            registry.probe(f"{prefix}.{name}", partial(getattr, self, name))


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class CacheSnapshot(NamedTuple):
    """A cache's contents and counters, frozen by :meth:`Cache.snapshot`.

    Immutable, so one snapshot can be restored into any number of caches
    of the same geometry, from any thread.
    """

    #: Per set, the tags in recency order (MRU first).
    tags: "tuple[tuple[int, ...], ...]"
    #: Line numbers of the dirty resident lines.
    dirty: "frozenset[int]"
    #: :class:`CacheStats` fields in declaration order.
    stats: "tuple[int, ...]"


class Cache:
    """A set-associative, write-back, write-allocate cache.

    Each set keeps its lines in recency order (index 0 = MRU).  Dirty state
    is tracked per line (one flat set of line numbers for the whole cache)
    so writebacks can be counted for the energy model.

    Sets are copy-on-write: a set is a tuple (the empty one when built,
    or one shared with a :class:`CacheSnapshot` after :meth:`restore`)
    until its first mutation turns it into a list of its own, so
    building or restoring a cache costs one list of ``n_sets`` references
    rather than ``n_sets`` lists.  Reads never copy.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int = 64,
    ):
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if not _is_power_of_two(line_bytes):
            raise ValueError("line size must be a power of two")
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} is not divisible by "
                f"assoc*line ({assoc}*{line_bytes})"
            )
        n_sets = size_bytes // (assoc * line_bytes)
        if not _is_power_of_two(n_sets):
            raise ValueError(f"{name}: set count {n_sets} must be a power of two")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.n_sets = n_sets
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = n_sets - 1
        self._tag_shift = n_sets.bit_length() - 1
        # Per set: tags in recency order (a tuple until first written;
        # see the class docstring).  Dirty lines, by line number
        # (``(tag << tag_shift) | set``), across all sets.
        self._tags: "list[list[int] | tuple[int, ...]]" = [()] * n_sets
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    def _writable(self, set_idx: int) -> "list[int]":
        """Set ``set_idx``'s tags as a list this cache owns (copy-on-write)."""
        tags = self._tags[set_idx]
        if tags.__class__ is tuple:
            tags = self._tags[set_idx] = list(tags)
        return tags

    def _index_tag(self, addr: int) -> tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; on miss, allocate the line.  Returns hit flag.

        Evicted-dirty lines count as writebacks.  The caller is responsible
        for charging lower-level latency on a miss.  Index/tag extraction is
        inlined (vs :meth:`_index_tag`): this runs once per data access and
        several times per miss walk.
        """
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> self._tag_shift
        tags = self._tags[set_idx]
        stats = self.stats
        stats.accesses += 1
        if tag in tags:
            stats.hits += 1
            if tags[0] != tag:
                tags = self._writable(set_idx)
                tags.remove(tag)
                tags.insert(0, tag)
            if is_write:
                self._dirty.add(line)
            return True
        stats.misses += 1
        self._fill(set_idx, tag, is_write)
        return False

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Like :meth:`access` but does *not* allocate on a miss.

        Used where fill policy is decided elsewhere (asymmetric cache).
        """
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tags = self._tags[set_idx]
        tag = line >> self._tag_shift
        self.stats.accesses += 1
        if tag in tags:
            self.stats.hits += 1
            if tags[0] != tag:
                tags = self._writable(set_idx)
                tags.remove(tag)
                tags.insert(0, tag)
            if is_write:
                self._dirty.add(line)
            return True
        self.stats.misses += 1
        return False

    def _fill(self, set_idx: int, tag: int, is_write: bool) -> None:
        tags = self._writable(set_idx)
        dirty = self._dirty
        if len(tags) >= self.assoc:
            victim = (tags.pop() << self._tag_shift) | set_idx
            self.stats.evictions += 1
            if victim in dirty:
                dirty.discard(victim)
                self.stats.writebacks += 1
        tags.insert(0, tag)
        if is_write:
            dirty.add((tag << self._tag_shift) | set_idx)

    def fill_range(self, base: int, size_bytes: int) -> None:
        """Read every line of ``[base, base + size_bytes)`` in ascending
        order, leaving exactly the state and statistics that calling
        :meth:`access` once per line would, but visiting each set once.

        Sets are independent under LRU, so only the order within a set
        matters.  A set's lines in the range are ``n_sets`` apart, so
        their ``k`` tags are consecutive and all miss unless one is
        already resident: the set ends as the newest ``min(k, assoc)``
        tags (MRU first) followed by the surviving prefix of its old
        list, and every old line pushed out counts as an eviction (plus
        a writeback if dirty).  A set whose old tags may meet the range
        replays its lines through :meth:`access` instead.
        """
        if size_bytes <= 0:
            return
        n = -(-size_bytes // self.line_bytes)
        first = base >> self._line_shift
        n_sets = self.n_sets
        assoc = self.assoc
        set_mask = self._set_mask
        tag_shift = self._tag_shift
        all_tags = self._tags
        dirty = self._dirty
        stats = self.stats
        filled = n
        evictions = writebacks = 0
        for j in range(min(n, n_sets)):
            line = first + j
            set_idx = line & set_mask
            t0 = line >> tag_shift
            k = (n - 1 - j) // n_sets + 1
            tags = all_tags[set_idx]
            if tags and min(tags) < t0 + k and max(tags) >= t0:
                filled -= k
                for tag in range(t0, t0 + k):
                    self.access(((tag << tag_shift) | set_idx) << self._line_shift)
                continue
            m = k if k < assoc else assoc
            keep = assoc - m
            if len(tags) > keep:
                evictions += len(tags) - keep
                if dirty:
                    for victim in tags[keep:]:
                        victim = (victim << tag_shift) | set_idx
                        if victim in dirty:
                            dirty.discard(victim)
                            writebacks += 1
            evictions += k - m
            all_tags[set_idx] = [
                *range(t0 + k - 1, t0 + k - 1 - m, -1), *tags[:keep]
            ]
        stats.accesses += filled
        stats.misses += filled
        stats.evictions += evictions
        stats.writebacks += writebacks

    def extract(self, addr: int) -> tuple[bool, bool]:
        """Remove ``addr``'s line if present.  Returns (was_present, dirty).

        Used by the asymmetric cache to move lines between the fast and slow
        partitions without charging hits/misses.
        """
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> self._tag_shift
        if tag not in self._tags[set_idx]:
            return False, False
        self._writable(set_idx).remove(tag)
        dirty = line in self._dirty
        self._dirty.discard(line)
        return True, dirty

    def insert(self, addr: int, dirty: bool = False) -> tuple[int | None, bool]:
        """Insert ``addr``'s line at MRU, evicting LRU if the set is full.

        Returns ``(victim_addr, victim_dirty)`` where ``victim_addr`` is a
        representative address of the evicted line (or None).  Statistics
        count the eviction/writeback but not a hit or miss.
        """
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tags = self._writable(set_idx)
        tag = line >> self._tag_shift
        all_dirty = self._dirty
        victim_addr: int | None = None
        victim_dirty = False
        if tag in tags:
            tags.remove(tag)
            dirty = dirty or line in all_dirty
        elif len(tags) >= self.assoc:
            victim_line = (tags.pop() << self._tag_shift) | set_idx
            self.stats.evictions += 1
            victim_dirty = victim_line in all_dirty
            if victim_dirty:
                all_dirty.discard(victim_line)
                self.stats.writebacks += 1
            victim_addr = victim_line << self._line_shift
        tags.insert(0, tag)
        if dirty:
            all_dirty.add(line)
        else:
            all_dirty.discard(line)
        return victim_addr, victim_dirty

    def probe(self, addr: int) -> bool:
        """Check residency without touching recency or statistics."""
        set_idx, tag = self._index_tag(addr)
        return tag in self._tags[set_idx]

    def publish(self, registry, prefix: "str | None" = None) -> None:
        """Expose this cache's counters in a metrics registry (see
        :meth:`CacheStats.publish`); defaults to the cache's own name."""
        self.stats.publish(registry, prefix or self.name)

    def mru_line(self, addr: int) -> int | None:
        """The MRU tag of ``addr``'s set, or None if the set is empty."""
        set_idx, _ = self._index_tag(addr)
        tags = self._tags[set_idx]
        return tags[0] if tags else None

    def invalidate_all(self) -> None:
        """Drop every line (statistics are preserved)."""
        self._tags = [()] * self.n_sets
        self._dirty.clear()

    @property
    def geometry(self) -> "tuple[int, int, int]":
        """``(size_bytes, assoc, line_bytes)``: what a snapshot needs to
        match to be restored here (the name does not matter)."""
        return self.size_bytes, self.assoc, self.line_bytes

    def snapshot(self) -> CacheSnapshot:
        """Freeze the contents, LRU order, dirty lines and counters.

        Equal per-set tag tuples are stored once and every tag int is
        interned, so a warm 8 MB L3 -- whose sets mostly hold the same
        tags -- costs a few distinct tuples, which :meth:`restore`
        installs as they are (copy-on-write sets, see the class
        docstring).
        """
        tuples: "dict[tuple[int, ...], tuple[int, ...]]" = {}
        ints: "dict[int, int]" = {}
        tags = []
        for set_tags in map(tuple, self._tags):
            frozen = tuples.get(set_tags)
            if frozen is None:
                frozen = tuple([ints.setdefault(t, t) for t in set_tags])
                tuples[frozen] = frozen
            tags.append(frozen)
        return CacheSnapshot(
            tuple(tags), frozenset(self._dirty), astuple(self.stats)
        )

    def restore(self, snapshot: CacheSnapshot) -> None:
        """Replace this cache's state with ``snapshot``'s, exactly.

        The stats object is updated in place, so probes already
        published on it keep reading this cache.
        """
        if len(snapshot.tags) != self.n_sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(snapshot.tags)} sets, "
                f"cache has {self.n_sets}"
            )
        self._tags = list(snapshot.tags)  # shared until written
        self._dirty = set(snapshot.dirty)
        stats = self.stats
        (stats.accesses, stats.hits, stats.misses, stats.evictions,
         stats.writebacks) = snapshot.stats

    @property
    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return sum(len(t) for t in self._tags)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.size_bytes}B, {self.assoc}-way, "
            f"{self.n_sets} sets)"
        )
