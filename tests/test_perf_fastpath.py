"""Fast-path cycle engines: cycle-skip equivalence, trace cache, and
shared-memory trace transport.

The optimisation contract is "faster, never different": the event-driven
skip/unboxed fast paths must produce byte-identical results to the
``REPRO_NO_CYCLE_SKIP=1`` escape hatch (which runs the original engine
loop), the trace cache must hand out the one true trace per key, and the
shared-memory transport must never leak a ``/dev/shm`` segment no matter
how its workers die.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core.configs import cpu_config, gpu_config
from repro.core.simulate import (
    _gpu_config,
    build_cpu_core,
    simulate_cpu,
    simulate_gpu,
)
from repro.gpu.cu import ComputeUnit
from repro.resilience import GuardPolicy, SweepPool
from repro.resilience import shm as shm_transport
from repro.resilience.pool import CellTask, PoolAborted
from repro.workloads import cpu_app, gpu_kernel
from repro.workloads.trace_cache import (
    TraceCache,
    cached_kernel,
    cached_trace,
    reset_shared_cache,
    shared_cache,
)

HATCH = "REPRO_NO_CYCLE_SKIP"


# ---------------------------------------------------------------------
# cycle-skip equivalence
# ---------------------------------------------------------------------

CPU_CELLS = [("BaseCMOS", "canneal"), ("AdvHet", "lu"), ("BaseTFET", "blackscholes")]
GPU_CELLS = [("BaseCMOS", "DCT"), ("AdvHet", "BlackScholes")]


def _cpu_record(config: str, app: str) -> str:
    run = simulate_cpu(cpu_config(config), app, instructions=6000, warmup=1500)
    return json.dumps(dataclasses.asdict(run), sort_keys=True, default=str)


def _gpu_record(config: str, kernel: str) -> str:
    run = simulate_gpu(gpu_config(config), kernel, seed=2)
    return json.dumps(dataclasses.asdict(run), sort_keys=True, default=str)


def test_cpu_results_identical_with_and_without_skipping(monkeypatch):
    """Seed-pinned CPU cells must serialise byte-identically either way."""
    for config, app in CPU_CELLS:
        monkeypatch.delenv(HATCH, raising=False)
        fast = _cpu_record(config, app)
        monkeypatch.setenv(HATCH, "1")
        slow = _cpu_record(config, app)
        assert fast == slow, f"cycle skipping changed {config}/{app}"


def test_gpu_results_identical_with_and_without_skipping(monkeypatch):
    for config, kernel in GPU_CELLS:
        monkeypatch.delenv(HATCH, raising=False)
        fast = _gpu_record(config, kernel)
        monkeypatch.setenv(HATCH, "1")
        slow = _gpu_record(config, kernel)
        assert fast == slow, f"cycle skipping changed {config}/{kernel}"


#: A memory-bound and an ILP-bound reference cell, with (instructions,
#: warm-up) sizes at which both skip idle stretches.
SKIP_CELLS = [
    ("canneal", 6000, 1500),
    ("canneal", 30_000, 5000),
    ("blackscholes", 30_000, 5000),
]


def test_cpu_skip_counters_and_escape_hatch(monkeypatch):
    """The reference cells actually skip; the hatch actually disables."""
    design = cpu_config("BaseCMOS")
    for app, instructions, warmup in SKIP_CELLS:
        profile = cpu_app(app)
        trace = cached_trace(profile, instructions, seed=0)

        monkeypatch.delenv(HATCH, raising=False)
        core = build_cpu_core(design, profile)
        fast = core.run(trace, warmup=warmup)
        assert core.skipped_cycles > 0 and core.skip_events > 0, app

        monkeypatch.setenv(HATCH, "1")
        hatch_core = build_cpu_core(design, profile)
        slow = hatch_core.run(trace, warmup=warmup)
        assert hatch_core.skipped_cycles == 0 and hatch_core.skip_events == 0
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow), (
            f"cycle skipping changed BaseCMOS/{app} at {instructions}"
        )


#: (design, app, instructions, warm-up, detailed cores): a steering and a
#: non-steering design, a run measured from cycle 0, and a multicore
#: cell with two detailed cores.
ENGINE_STATE_CELLS = [
    ("AdvHet", "lu", 4000, 1000, 1),
    ("BaseTFET", "canneal", 4000, 1000, 1),
    ("AdvHet", "fft", 3000, 0, 1),
    ("AdvHet-2X", "barnes", 3000, 750, 2),
]

_RESOURCE_FIELDS = (
    "rob_used", "iq_used", "lsq_used", "int_regs_used", "fp_regs_used",
    "rob_peak", "iq_peak", "lsq_peak",
)


def _engine_state(monkeypatch, hatch, design, app, instructions, warmup,
                  detailed_cores):
    """Per detailed core: the measured-window registry delta, the final
    registry snapshot and the resource occupancy, plus the serialised
    cell.  Cycle-skip telemetry (``engine.*``) is the one intended
    difference between the engines and is left out."""
    import repro.core.simulate as simulate_mod
    from repro.cpu.core import OutOfOrderCore

    if hatch:
        monkeypatch.setenv(HATCH, "1")
    else:
        monkeypatch.delenv(HATCH, raising=False)
    cores, deltas = [], []
    build, finalize = simulate_mod.build_cpu_core, OutOfOrderCore._finalize

    def spy_build(*args, **kwargs):
        cores.append(build(*args, **kwargs))
        return cores[-1]

    def spy_finalize(self, delta, *args, **kwargs):
        deltas.append(dict(delta))
        return finalize(self, delta, *args, **kwargs)

    monkeypatch.setattr(simulate_mod, "build_cpu_core", spy_build)
    monkeypatch.setattr(OutOfOrderCore, "_finalize", spy_finalize)
    run = simulate_cpu(
        cpu_config(design), app, instructions=instructions, warmup=warmup,
        detailed_cores=detailed_cores,
    )
    monkeypatch.undo()

    def counters(flat):
        return {k: v for k, v in flat.items() if not k.startswith("engine.")}

    assert len(cores) == len(deltas) == detailed_cores
    per_core = [
        {
            "delta": counters(delta),
            "final": counters(core.metrics.snapshot()),
            "resources": {f: getattr(core.resources, f) for f in _RESOURCE_FIELDS},
        }
        for core, delta in zip(cores, deltas)
    ]
    return json.dumps(dataclasses.asdict(run), sort_keys=True, default=str), per_core


@pytest.mark.parametrize("cell", ENGINE_STATE_CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_fast_engine_state_matches_oracle(monkeypatch, cell):
    """Beyond the result: every registry counter (branch predictor,
    steering, activity, caches, units) over the measured window and in
    total, and the ROB/IQ/LSQ/register occupancy and peaks, agree
    between the fast path and the ``REPRO_NO_CYCLE_SKIP=1`` walk."""
    fast_run, fast = _engine_state(monkeypatch, False, *cell)
    slow_run, slow = _engine_state(monkeypatch, True, *cell)
    assert fast == slow
    assert fast_run == slow_run
    design = cell[0]
    for core in fast:
        delta = core["delta"]
        assert delta["bpred.lookups"] > 0 and delta["bpred.mispredictions"] > 0
        assert delta["activity.dispatched"] > 0 and delta["activity.loads"] > 0
        assert (delta["steer.examined"] > 0) == design.startswith("AdvHet")
        assert core["resources"]["rob_peak"] > 0
        assert core["resources"]["rob_used"] == 0


def test_finished_core_is_freed_without_the_cycle_collector(monkeypatch):
    """No reference cycle holds a finished core: with the cyclic GC off,
    the core and its L3 die as soon as ``simulate_cpu`` returns."""
    import gc
    import weakref

    import repro.core.simulate as simulate_mod

    refs = []
    build = simulate_mod.build_cpu_core

    def spy_build(*args, **kwargs):
        core = build(*args, **kwargs)
        refs.append((weakref.ref(core), weakref.ref(core.hierarchy.l3)))
        return core

    monkeypatch.setattr(simulate_mod, "build_cpu_core", spy_build)
    for hatch in (None, "1"):
        if hatch is None:
            monkeypatch.delenv(HATCH, raising=False)
        else:
            monkeypatch.setenv(HATCH, hatch)
        gc.collect()
        gc.disable()
        try:
            simulate_cpu(cpu_config("AdvHet"), "lu", instructions=2000, warmup=500)
            assert refs and all(
                core() is None and l3() is None for core, l3 in refs
            )
        finally:
            gc.enable()
        refs.clear()


def test_core_runs_one_trace():
    trace = cached_trace(cpu_app("lu"), 1000, seed=0)
    core = build_cpu_core(cpu_config("BaseCMOS"), cpu_app("lu"))
    core.run(trace, warmup=100)
    with pytest.raises(RuntimeError, match="already ran"):
        core.run(trace, warmup=100)


def test_gpu_skip_counters_and_escape_hatch(monkeypatch):
    design = gpu_config("BaseCMOS")
    profile = gpu_kernel("DCT")
    trace = cached_kernel(profile, seed=0)

    monkeypatch.delenv(HATCH, raising=False)
    cu = ComputeUnit(_gpu_config(design).cu)
    fast = cu.run(trace)
    assert cu.skipped_cycles > 0 and cu.skip_events > 0

    monkeypatch.setenv(HATCH, "1")
    hatch_cu = ComputeUnit(_gpu_config(design).cu)
    slow = hatch_cu.run(trace)
    assert hatch_cu.skipped_cycles == 0 and hatch_cu.skip_events == 0
    assert dataclasses.asdict(fast) == dataclasses.asdict(slow)


def _assert_native(obj, path):
    assert not isinstance(obj, (np.generic, np.ndarray)), (
        f"numpy type leaked into result at {path}: {type(obj).__name__}"
    )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _assert_native(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _assert_native(k, f"{path} key")
            _assert_native(v, f"{path}[{k!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _assert_native(v, f"{path}[{i}]")


def test_result_dataclasses_hold_native_scalars_only(monkeypatch):
    """No numpy scalar may leak into a result on either engine path."""
    for env in (None, "1"):
        if env is None:
            monkeypatch.delenv(HATCH, raising=False)
        else:
            monkeypatch.setenv(HATCH, env)
        _assert_native(
            simulate_cpu(cpu_config("AdvHet"), "lu", instructions=4000, warmup=1000),
            "cpu",
        )
        _assert_native(simulate_gpu(gpu_config("AdvHet"), "DCT"), "gpu")


def test_soa_buffers_hold_native_scalars_only():
    """The cached SoA decode must hand the hot loop plain Python lists of
    native scalars -- one boxed numpy value re-boxes every downstream op.
    The prefix-count tables stay numpy (read twice per run, off the
    per-uop path), but the columns the engine reads must unbox to ints."""
    from repro.cpu.soa import decode_trace, steer_columns

    trace = cached_trace(cpu_app("canneal"), 3000, seed=0)
    soa = decode_trace(trace)
    steer = steer_columns(trace, 2)
    for obj in (soa, steer):
        for f in dataclasses.fields(obj):
            values = getattr(obj, f.name)
            name = f"{type(obj).__name__}.{f.name}"
            if f.name.endswith("counts"):
                assert values.shape[1] == len(trace) + 1, name
                for column in (0, 1500, len(trace)):
                    got = values[:, column].tolist()
                    assert all(type(v) is int for v in got), name
                continue
            assert isinstance(values, list), f"{name} is not a list"
            assert len(values) == len(trace), name
            _assert_native(values[:64], name)
    assert decode_trace(trace) is decode_trace(trace)  # memoised on the trace
    assert steer_columns(trace, 2) is steer


def test_batch_driver_results_hold_native_scalars_only():
    """Batched cell outcomes carry the same native-scalar guarantee as the
    single-cell drivers, including the engine-side telemetry counters."""
    from repro.core.simulate import simulate_cpu_batch, simulate_gpu_batch

    cpu = simulate_cpu_batch(
        [(cpu_config("BaseCMOS"), "lu"), (cpu_config("AdvHet"), "lu")],
        instructions=3000, warmup=750,
    )
    gpu = simulate_gpu_batch(
        [(gpu_config(name), "DCT") for name in ("BaseCMOS", "AdvHet")]
    )
    for i, out in enumerate(cpu + gpu):
        assert out.error is None
        _assert_native(out, f"batch[{i}]")


# ---------------------------------------------------------------------
# trace cache
# ---------------------------------------------------------------------

def test_trace_cache_lru_eviction():
    cache = TraceCache(capacity=2)
    builds = []

    def factory(tag):
        def build():
            builds.append(tag)
            return object()
        return build

    a = cache.get("a", factory("a"))
    b = cache.get("b", factory("b"))
    assert cache.get("a", factory("a")) is a  # hit refreshes recency
    cache.get("c", factory("c"))  # evicts b (least recently used)
    assert cache.get("a", factory("a")) is a
    assert cache.get("b", factory("b")) is not b  # regenerated
    assert builds == ["a", "b", "c", "b"]
    assert cache.stats()["evictions"] >= 2


def test_trace_cache_key_isolation():
    """Distinct (profile, length, seed) keys never alias; same key shares."""
    cache = TraceCache(capacity=16)
    lu, fft = cpu_app("lu"), cpu_app("fft")
    from repro.workloads.generator import generate_trace

    t1 = cache.get(("cpu", lu, 500, 0), lambda: generate_trace(lu, 500, seed=0))
    t2 = cache.get(("cpu", lu, 500, 1), lambda: generate_trace(lu, 500, seed=1))
    t3 = cache.get(("cpu", fft, 500, 0), lambda: generate_trace(fft, 500, seed=0))
    t4 = cache.get(("cpu", lu, 500, 0), lambda: generate_trace(lu, 500, seed=0))
    assert t4 is t1
    assert t1 is not t2 and t1 is not t3
    assert not np.array_equal(t1.addr, t2.addr)


def test_trace_cache_thread_safety():
    """Concurrent gets over a small capacity stay consistent (no lost
    entries, counters add up, every caller of one key sees one object)."""
    cache = TraceCache(capacity=4)
    keys = [f"k{i}" for i in range(6)]
    per_key: "dict[str, set[int]]" = {k: set() for k in keys}
    seen_lock = threading.Lock()
    errors = []

    def worker(rounds: int) -> None:
        try:
            for i in range(rounds):
                key = keys[i % len(keys)]
                value = cache.get(key, lambda k=key: (k, object()))
                assert value[0] == key
                with seen_lock:
                    per_key[key].add(id(value))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(120,)) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 8 * 120
    assert stats["entries"] <= 4


def test_trace_cache_put_first_insert_wins():
    cache = TraceCache(capacity=4)
    first = object()
    assert cache.put("k", first) is first
    assert cache.put("k", object()) is first
    assert cache.get("k", lambda: object()) is first


def test_trace_cache_capacity_zero_disables(monkeypatch):
    cache = TraceCache(capacity=0)
    a = cache.get("k", lambda: object())
    b = cache.get("k", lambda: object())
    assert a is not b and len(cache) == 0
    assert cache.put("k", a) is a and len(cache) == 0

    monkeypatch.setenv("REPRO_TRACE_CACHE", "3")
    try:
        assert reset_shared_cache().capacity == 3
    finally:
        monkeypatch.delenv("REPRO_TRACE_CACHE")
        reset_shared_cache()


# ---------------------------------------------------------------------
# shared-memory trace transport
# ---------------------------------------------------------------------

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm"
)


def _segment_path(meta: dict) -> str:
    return os.path.join("/dev/shm", meta["name"].lstrip("/"))


def test_shm_export_attach_roundtrip():
    """Arrays attach zero-copy, read-only, and bit-equal to generation."""
    tasks = [
        CellTask("cpu", "BaseCMOS", "lu"),
        CellTask("dvfs", "AdvHet", "lu", extra=(2.5, False)),  # dedupes with above
        CellTask("gpu", "BaseCMOS", "DCT"),
    ]
    assert shm_transport.plan_entries(tasks) == [("cpu", "lu"), ("gpu", "DCT")]
    meta, seg = shm_transport.export_traces(tasks, 2000)
    assert meta is not None and len(meta["entries"]) == 2
    try:
        expected = cached_trace(cpu_app("lu"), 2000, seed=0)
        reset_shared_cache()  # force the lookup below through the attach
        assert shm_transport.attach_traces(meta) == 2
        got = cached_trace(cpu_app("lu"), 2000, seed=0)
        for field in ("op", "src1_dist", "src2_dist", "addr", "pc", "taken"):
            arr = getattr(got, field)
            assert not arr.flags.writeable
            assert np.array_equal(arr, getattr(expected, field))
        assert shared_cache().stats()["hits"] == 1  # served from the seed
    finally:
        reset_shared_cache()  # drop the shm-backed views before unlinking
        shm_transport.release(seg)


def test_shm_attach_failure_is_harmless():
    assert shm_transport.attach_traces(None) == 0
    assert shm_transport.attach_traces({"name": "psm_no_such_seg", "entries": []}) == 0


def test_shm_transport_env_escape_hatch(monkeypatch):
    """A failed export (no /dev/shm, size limits) degrades to per-worker
    trace regeneration: the sweep still gets its result."""

    def no_shm(*args, **kwargs):
        raise OSError("shared memory unavailable")

    monkeypatch.setattr(shm_transport.shared_memory, "SharedMemory", no_shm)
    events = []
    pool = SweepPool(
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
        instructions=2000, warmup=500,
        on_event=lambda e, i: events.append(e),
    )
    [outcome] = pool.run([CellTask("cpu", "BaseCMOS", "lu")])
    assert outcome.result is not None
    assert "shm_exported" not in events


@needs_dev_shm
def test_shm_reclaimed_after_worker_sigkill():
    """SIGKILLing a worker mid-attempt must not leak the segment."""
    events = []
    killed = threading.Event()

    def on_event(event: str, info: dict) -> None:
        events.append((event, info))
        if event == "spawned" and not killed.is_set():
            killed.set()
            # Let the worker attach the segment first, then hard-kill it.
            pid = info["pid"]

            def kill() -> None:
                time.sleep(0.3)
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass

            threading.Thread(target=kill, daemon=True).start()

    pool = SweepPool(
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
        instructions=60_000, warmup=10_000,
        on_event=on_event,
    )
    [outcome] = pool.run([CellTask("cpu", "BaseCMOS", "canneal")])
    assert outcome.failure is not None and outcome.failure.kind == "crash"

    exported = [i for e, i in events if e == "shm_exported"]
    assert exported, "transport should have exported a segment"
    assert not os.path.exists(_segment_path(exported[0])), "leaked /dev/shm entry"


@needs_dev_shm
def test_shm_reclaimed_after_pool_abort():
    events = []
    spawned = threading.Event()

    def on_event(event: str, info: dict) -> None:
        events.append((event, info))
        if event == "spawned":
            spawned.set()

    pool = SweepPool(
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
        instructions=200_000, warmup=10_000,
        on_event=on_event,
    )
    raised = []

    def run() -> None:
        try:
            pool.run([CellTask("cpu", "BaseCMOS", "canneal")])
        except PoolAborted as exc:
            raised.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    assert spawned.wait(timeout=30.0)
    pool.abort()
    thread.join(timeout=30.0)
    assert not thread.is_alive() and raised, "abort must raise PoolAborted"

    exported = [i for e, i in events if e == "shm_exported"]
    assert exported
    assert not os.path.exists(_segment_path(exported[0])), "leaked /dev/shm entry"


def test_parallel_sweep_with_transport_matches_serial_cells():
    """Worker-computed cells (shm-seeded traces) equal in-process ones."""
    task = CellTask("cpu", "AdvHet", "lu")
    pool = SweepPool(
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
        instructions=3000, warmup=750, workers=2,
    )
    [outcome] = pool.run([task])
    direct = simulate_cpu(cpu_config("AdvHet"), "lu", instructions=3000, warmup=750)
    assert dataclasses.asdict(outcome.result) == dataclasses.asdict(direct)
