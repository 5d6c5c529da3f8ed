"""Closed-form cache prewarm and restored warm state against the
per-line loop they replaced.

``Cache.fill_range`` and ``MemoryHierarchy.prewarm_region`` must leave the
same tag order, dirty bits and counters as reading every line of the range
through ``access`` in ascending order, and so must a hierarchy whose caches
were restored from the warm-state memo.  The per-line loops live here as
the reference.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.configs import cpu_config
from repro.core.simulate import _prewarm, build_cpu_core, simulate_cpu
from repro.mem.asym import AsymmetricL1
from repro.mem.cache import Cache
from repro.workloads import trace_cache
from repro.workloads.profiles import CPU_APPS
from repro.workloads.trace_cache import cached_trace, reset_shared_cache


def reference_fill(cache: Cache, base: int, size_bytes: int) -> None:
    """Read every line of the range through ``access``, lowest first."""
    for addr in range(base, base + size_bytes, cache.line_bytes):
        cache.access(addr)


def reference_prewarm_region(hierarchy, base, size_bytes, into_l1=False,
                             skip=()):
    """The per-line ``MemoryHierarchy.prewarm_region`` loop (every cache
    filled: the reference never restores)."""
    assert not skip
    if size_bytes <= 0:
        return
    for addr in range(base, base + size_bytes, 64):
        hierarchy.l3.access(addr)
        if size_bytes <= hierarchy.l2.size_bytes:
            hierarchy.l2.access(addr)
        if into_l1:
            hierarchy.dl1.access(addr)


def cache_state(cache: Cache):
    return (
        [list(tags) for tags in cache._tags],
        set(cache._dirty),
        dataclasses.asdict(cache.stats),
    )


def dl1_state(dl1):
    if isinstance(dl1, AsymmetricL1):
        return (
            cache_state(dl1.fast),
            cache_state(dl1.slow),
            dataclasses.asdict(dl1.stats),
        )
    return cache_state(dl1)


def hierarchy_state(h):
    return {
        "il1": cache_state(h.il1),
        "dl1": dl1_state(h.dl1),
        "l2": cache_state(h.l2),
        "l3": cache_state(h.l3),
        "dram_accesses": h.dram_accesses,
    }


def make_pair(line_bytes, n_sets, assoc, history):
    """Two identical caches, each with ``history`` applied via ``access``."""
    caches = [
        Cache("c", line_bytes * n_sets * assoc, assoc, line_bytes)
        for _ in range(2)
    ]
    for cache in caches:
        for line, is_write in history:
            cache.access(line * line_bytes, is_write)
    return caches


geometries = st.tuples(
    st.sampled_from([16, 32, 64]),
    st.sampled_from([1, 2, 4, 8, 16, 32]),
    st.integers(min_value=1, max_value=8),
)

#: ``(line, is_write)`` accesses that leave a cache in a random state.
histories = st.lists(
    st.tuples(st.integers(min_value=0, max_value=600), st.booleans()),
    max_size=120,
)


class TestFillRange:
    @settings(max_examples=300, deadline=None)
    @given(
        geometry=geometries,
        history=histories,
        base=st.integers(min_value=0, max_value=600 * 64),
        size_lines=st.integers(min_value=0, max_value=700),
        tail=st.integers(min_value=-63, max_value=63),
    )
    # Zero size on a dirty set; a range longer than one pass over every set.
    @example(geometry=(64, 4, 2), history=[(1, True)], base=0, size_lines=0,
             tail=0)
    @example(geometry=(64, 2, 2), history=[(0, True), (3, True)],
             base=64 * 40, size_lines=40, tail=0)
    def test_matches_per_line_access(self, geometry, history, base,
                                     size_lines, tail):
        line_bytes, n_sets, assoc = geometry
        size_bytes = max(0, size_lines * line_bytes + tail % line_bytes)
        closed, reference = make_pair(line_bytes, n_sets, assoc, history)
        closed.fill_range(base, size_bytes)
        reference_fill(reference, base, size_bytes)
        assert cache_state(closed) == cache_state(reference)

    def test_disjoint_range_never_replays_lines(self, monkeypatch):
        cache = Cache("c", 8 * 1024, 4)
        for addr in range(0, 16 * 1024, 64):
            cache.access(addr, is_write=True)
        cache.stats.reset()
        monkeypatch.setattr(cache, "access", None)  # any replay would raise
        cache.fill_range(1 << 30, 64 * 1024)
        assert cache.stats.writebacks == 128
        assert cache.stats.evictions == 1024

    def test_overlapping_set_falls_back_and_hits(self):
        closed, reference = make_pair(64, 4, 4, [(5, True), (9, False)])
        closed.fill_range(0, 16 * 64)
        reference_fill(reference, 0, 16 * 64)
        assert cache_state(closed) == cache_state(reference)
        assert closed.stats.hits == 2

    def test_unaligned_base_reads_one_line_per_stride(self):
        cache = Cache("c", 1024, 2)
        cache.fill_range(100, 64)
        assert cache.stats.accesses == 1
        assert cache.probe(100) and not cache.probe(164)

    @pytest.mark.parametrize("size", [0, -64])
    def test_empty_range_is_a_noop(self, size):
        cache = Cache("c", 1024, 2)
        cache.fill_range(0, size)
        assert cache.resident_lines == 0
        assert cache.stats.accesses == 0


class TestAsymmetricFillRange:
    def test_matches_per_line_access(self):
        closed, reference = AsymmetricL1(), AsymmetricL1()
        for dl1 in (closed, reference):
            for addr in range(0, 48 * 1024, 192):
                dl1.access(addr, is_write=addr % 384 == 0)
        closed.fill_range(1000, 34 * 1024)
        reference_fill(reference, 1000, 34 * 1024)
        assert dl1_state(closed) == dl1_state(reference)


#: Plain DL1, AdvHet's TFET-slow asymmetric DL1, BaseCMOS-Enh's CMOS one.
DL1_ORGANISATIONS = ["BaseCMOS", "AdvHet", "BaseCMOS-Enh"]


def forbid_fills(hierarchy):
    """Make any real fill into ``hierarchy`` raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("prewarm filled a cache the memo holds")
    hierarchy.prewarm_region = forbidden


@pytest.mark.parametrize("config", DL1_ORGANISATIONS)
@pytest.mark.parametrize("app", sorted(CPU_APPS))
def test_prewarm_matches_per_line_loop(config, app):
    """Filled and restored-from-memo hierarchies both equal the per-line
    loop, state for state, counters included."""
    design = cpu_config(config)
    profile = CPU_APPS[app]
    closed, restored, reference = (
        design.build_hierarchy(mem_intensity=profile.mem_intensity)
        for _ in range(3)
    )
    assert isinstance(closed.dl1, AsymmetricL1) == (config != "BaseCMOS")
    reference.prewarm_region = partial(reference_prewarm_region, reference)
    memo = {}
    _prewarm(closed, profile, memo)
    _prewarm(reference, profile)
    forbid_fills(restored)
    _prewarm(restored, profile, memo)
    assert hierarchy_state(closed) == hierarchy_state(reference)
    assert hierarchy_state(restored) == hierarchy_state(reference)


def reference_state(config, profile):
    reference = cpu_config(config).build_hierarchy()
    reference.prewarm_region = partial(reference_prewarm_region, reference)
    _prewarm(reference, profile)
    return hierarchy_state(reference)


def test_l3_and_l2_entries_serve_both_dl1_kinds():
    """A plain-DL1 cell's L3/L2 entries serve an asymmetric-DL1 cell,
    which fills only its DL1; a second asymmetric design fills nothing."""
    profile = CPU_APPS["lu"]
    memo = {}
    _prewarm(cpu_config("BaseCMOS").build_hierarchy(), profile, memo)
    assert len(memo) == 3

    adv = cpu_config("AdvHet").build_hierarchy()
    calls = []
    fill = adv.prewarm_region
    adv.prewarm_region = lambda *a, **kw: (
        calls.append(kw["skip"]), fill(*a, **kw)
    )
    _prewarm(adv, profile, memo)
    assert len(calls) == 2  # the hot and stack regions, the DL1's only fills
    assert all(skip == {adv.l3, adv.l2} for skip in calls)
    assert len(memo) == 4
    assert hierarchy_state(adv) == reference_state("AdvHet", profile)

    enh = cpu_config("BaseCMOS-Enh").build_hierarchy()
    forbid_fills(enh)
    _prewarm(enh, profile, memo)
    assert hierarchy_state(enh) == reference_state("BaseCMOS-Enh", profile)


class TestSnapshotRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(geometry=geometries, history=histories, other=histories)
    def test_restore_reproduces_state(self, geometry, history, other):
        """A snapshot restores exactly into a fresh cache and over a
        cache holding other (dirty) state, and the restored cache then
        behaves like the original."""
        line_bytes, n_sets, assoc = geometry
        original, fresh, used = (
            Cache("c", line_bytes * n_sets * assoc, assoc, line_bytes)
            for _ in range(3)
        )
        for line, is_write in history:
            original.access(line * line_bytes, is_write)
        for line, is_write in other:
            used.access(line * line_bytes, is_write)
        snapshot = original.snapshot()
        fresh.restore(snapshot)
        used.restore(snapshot)
        assert cache_state(fresh) == cache_state(original)
        assert cache_state(used) == cache_state(original)
        for line, is_write in other:
            original.access(line * line_bytes, is_write)
            fresh.access(line * line_bytes, is_write)
        assert cache_state(fresh) == cache_state(original)
        again = Cache("c", line_bytes * n_sets * assoc, assoc, line_bytes)
        again.restore(snapshot)  # untouched by the accesses since
        assert cache_state(again) == cache_state(used)

    @settings(max_examples=100, deadline=None)
    @given(
        ways=st.sampled_from([2, 4, 8]),
        n_sets=st.sampled_from([1, 4, 16]),
        history=histories,
    )
    def test_asymmetric_restore_reproduces_state(self, ways, n_sets, history):
        original, fresh = (
            AsymmetricL1(total_size_bytes=64 * n_sets * ways, assoc=ways)
            for _ in range(2)
        )
        for line, is_write in history:
            original.access(line * 64, is_write)
        fresh.restore(original.snapshot())
        assert dl1_state(fresh) == dl1_state(original)

    def test_geometry_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="sets"):
            Cache("c", 1024, 2).restore(Cache("d", 2048, 2).snapshot())

    def test_snapshot_interns_repeated_sets(self):
        cache = Cache("l3", 8 * 1024 * 1024, 16)
        cache.fill_range(0, 16 * 1024 * 1024)
        snapshot = cache.snapshot()
        assert len({id(t) for t in snapshot.tags}) == 1
        restored, second = (Cache("l3", 8 * 1024 * 1024, 16) for _ in range(2))
        restored.restore(snapshot)
        second.restore(snapshot)
        assert restored._tags[0][0] is restored._tags[1][0]
        frozen = repr(snapshot)
        set1 = list(restored._tags[1])
        # Writes into set 0 -- a hit that reorders it and a dirty miss
        # that fills it -- stay private to set 0 of ``restored``.
        set0_addr = 1 << (restored._tag_shift + restored._line_shift)
        restored.access(20 * set0_addr)
        restored.access(4096 * set0_addr, is_write=True)
        assert list(restored._tags[0][:3]) == [4096, 20, 31]
        assert list(restored._tags[1]) == set1
        assert repr(snapshot) == frozen
        assert [list(t) for t in second._tags] == [
            list(t) for t in snapshot.tags
        ]
        assert second._dirty == set()


def _canon(run) -> str:
    return json.dumps(dataclasses.asdict(run), sort_keys=True, default=str)


SMALL = dict(instructions=3000, warmup=1000)


@pytest.fixture
def fresh_trace_cache():
    cache = reset_shared_cache()
    yield cache
    reset_shared_cache()


class TestWarmMemoOnTraces:
    def test_full_cell_leaves_snapshots_intact(self, fresh_trace_cache):
        """A cell run on restored caches neither mutates the memo nor
        aliases it: a second restore equals the first."""
        design, profile = cpu_config("AdvHet"), CPU_APPS["lu"]
        memo = {}
        build_cpu_core(design, profile, warm=memo)
        entries = dict(memo)
        frozen = {key: repr(snap) for key, snap in memo.items()}

        first = build_cpu_core(design, profile, warm=memo)
        before = hierarchy_state(first.hierarchy)
        first.run(cached_trace(profile, 3000), warmup=1000)
        second = build_cpu_core(design, profile, warm=memo)

        assert all(memo[key] is entries[key] for key in entries)
        assert {key: repr(snap) for key, snap in memo.items()} == frozen
        assert hierarchy_state(second.hierarchy) == before
        assert hierarchy_state(first.hierarchy) != before

    def _count_fills(self, monkeypatch):
        calls = []
        fill = Cache.fill_range
        monkeypatch.setattr(
            Cache, "fill_range",
            lambda self, *a: (calls.append(self.name), fill(self, *a)),
        )
        return calls

    @pytest.mark.parametrize("drop", ["clear", "reset"])
    def test_dropping_the_trace_cache_drops_warm_state(
        self, fresh_trace_cache, monkeypatch, drop
    ):
        calls = self._count_fills(monkeypatch)
        design = cpu_config("BaseCMOS")
        simulate_cpu(design, "lu", **SMALL)
        filled = len(calls)
        assert filled > 0
        simulate_cpu(cpu_config("BaseTFET"), "lu", **SMALL)
        assert len(calls) == filled  # same geometry: restored, not filled
        if drop == "clear":
            trace_cache.shared_cache().clear()
        else:
            reset_shared_cache()
        simulate_cpu(design, "lu", **SMALL)
        assert len(calls) == 2 * filled

    def test_trace_cache_counts_are_unchanged(self, fresh_trace_cache):
        simulate_cpu(cpu_config("BaseCMOS"), "lu", **SMALL)
        simulate_cpu(cpu_config("AdvHet"), "lu", **SMALL)
        stats = fresh_trace_cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_disabled_trace_cache_gives_identical_cells(
        self, fresh_trace_cache, monkeypatch
    ):
        cells = [
            (cpu_config(c), "lu") for c in ("BaseCMOS", "AdvHet", "BaseCMOS-Enh")
        ]
        cached = [_canon(simulate_cpu(d, a, **SMALL)) for d, a in cells]
        cached_again = [_canon(simulate_cpu(d, a, **SMALL)) for d, a in cells]
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert reset_shared_cache().capacity == 0
        calls = self._count_fills(monkeypatch)
        monkeypatch.setattr(Cache, "snapshot", None)  # any memo write raises
        uncached = [_canon(simulate_cpu(d, a, **SMALL)) for d, a in cells]
        # Every cell fills its own L3 with all four regions.
        assert calls.count("l3") == 4 * len(cells)
        assert cached == cached_again == uncached

    def test_concurrent_cells_agree(self, fresh_trace_cache):
        """Threads racing to fill and restore one app's warm state (the
        serve tier's case) all get the serial result."""
        designs = [
            cpu_config(c) for c in ("AdvHet", "BaseCMOS", "AdvHet", "BaseCMOS")
        ]
        barrier = threading.Barrier(len(designs))
        results = [None] * len(designs)

        def run(slot):
            barrier.wait(timeout=60)
            results[slot] = _canon(simulate_cpu(designs[slot], "lu", **SMALL))

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(len(designs))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        reset_shared_cache()
        serial = [_canon(simulate_cpu(d, "lu", **SMALL)) for d in designs]
        assert results == serial
        assert results[0] == results[2] and results[1] == results[3]
