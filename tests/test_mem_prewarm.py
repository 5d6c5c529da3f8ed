"""Closed-form cache prewarm against the per-line loop it replaced.

``Cache.fill_range`` and ``MemoryHierarchy.prewarm_region`` must leave the
same tag order, dirty bits and counters as reading every line of the range
through ``access`` in ascending order.  The per-line loops live here as the
reference.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.configs import cpu_config
from repro.core.simulate import _prewarm
from repro.mem.asym import AsymmetricL1
from repro.mem.cache import Cache
from repro.workloads.profiles import CPU_APPS


def reference_fill(cache: Cache, base: int, size_bytes: int) -> None:
    """Read every line of the range through ``access``, lowest first."""
    for addr in range(base, base + size_bytes, cache.line_bytes):
        cache.access(addr)


def reference_prewarm_region(hierarchy, base, size_bytes, into_l1=False):
    """The per-line ``MemoryHierarchy.prewarm_region`` loop."""
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
        [set(dirty) for dirty in cache._dirty],
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


class TestFillRange:
    @settings(max_examples=300, deadline=None)
    @given(
        geometry=geometries,
        history=st.lists(
            st.tuples(st.integers(min_value=0, max_value=600), st.booleans()),
            max_size=120,
        ),
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


@pytest.mark.parametrize("config", DL1_ORGANISATIONS)
@pytest.mark.parametrize("app", sorted(CPU_APPS))
def test_prewarm_matches_per_line_loop(config, app):
    design = cpu_config(config)
    profile = CPU_APPS[app]
    closed = design.build_hierarchy(mem_intensity=profile.mem_intensity)
    reference = design.build_hierarchy(mem_intensity=profile.mem_intensity)
    assert isinstance(closed.dl1, AsymmetricL1) == (config != "BaseCMOS")
    reference.prewarm_region = partial(reference_prewarm_region, reference)
    _prewarm(closed, profile)
    _prewarm(reference, profile)
    assert hierarchy_state(closed) == hierarchy_state(reference)
