"""Shared-memory trace transport for the process-isolated sweep pool.

Every worker attempt used to regenerate its cell's workload trace from
scratch (fork makes the parent's in-process trace cache available via
copy-on-write, but spawn contexts -- and every retry under either context
when the cache misses -- pay full generation cost, and pickling traces
through the task spec would pay a serialisation copy per attempt instead).
This module moves the trace bytes through one POSIX shared-memory segment:

* the **parent** (:class:`repro.resilience.pool.SweepPool`) calls
  :func:`export_traces` once per :meth:`run`: it generates (through the
  process-wide trace cache, so the parent itself also benefits) every
  distinct trace its task list will need, packs the numpy arrays
  back-to-back into a single segment, and passes a picklable description
  of the layout to workers inside the task spec;
* each **worker** calls :func:`attach_traces` before executing: it maps
  the segment, rebuilds zero-copy read-only numpy views, and seeds its
  process-local trace cache under the exact keys
  ``("cpu", profile, n, seed)`` / ``("gpu", profile, seed)`` that
  :func:`repro.workloads.trace_cache.cached_trace` /
  :func:`~repro.workloads.trace_cache.cached_kernel` will look up -- the
  simulators then hit the cache and never regenerate.

Ownership and cleanup are deliberately asymmetric, because workers can die
at any instant (SIGKILL on timeout, injected crash, OOM):

* the parent is the *sole owner*: it creates the segment and
  ``unlink``\\ s it in the supervisor's ``finally`` (which runs on normal
  completion, :class:`~repro.resilience.pool.PoolAborted`, fail-fast
  callback errors, and KeyboardInterrupt alike), so a SIGKILLed worker
  can never leak a ``/dev/shm`` entry -- the kernel drops the worker's
  mapping with the process, and the name is the parent's to reclaim;
* workers only ever *attach*.  CPython's ``resource_tracker``
  (3.9--3.12) registers attached segments too (cpython#82300), which in a
  process tree sharing one tracker either does nothing or, when
  compensated with ``unregister``, strips the parent's own registration;
  :func:`attach_traces` therefore suppresses the attach-side registration
  entirely, leaving the parent the segment's only tracked owner.
* if the parent itself dies before the ``finally`` runs, its own
  resource tracker survives it and reclaims the segment -- that is the
  one job the tracker is kept for.

Failure never escalates: a parent that cannot create shared memory (no
``/dev/shm``, size limits) exports nothing, and a worker that cannot
attach (segment already unlinked during a drain race) seeds nothing; both
fall back to ordinary generation, which is slower but bit-identical.
"""

from __future__ import annotations

import atexit
from multiprocessing import resource_tracker, shared_memory

import numpy as np

#: Per-array alignment inside the segment (covers every trace dtype).
_ALIGN = 16

#: Trace dataclass fields packed per kind, in layout order.
_CPU_FIELDS = ("op", "src1_dist", "src2_dist", "addr", "pc", "taken")
_GPU_FIELDS = ("op", "dep_dist", "src1_reg", "src2_reg", "dst_reg")

#: Segments this process has attached to, kept alive for its lifetime
#: (the zero-copy numpy views seeded into the trace cache borrow the
#: segment's buffer).
_attached: "list[shared_memory.SharedMemory]" = []
_cleanup_registered = False

#: Process-local transport counters, surfaced by ``repro stats`` and the
#: sweep telemetry probes (plain ints: incrementing them must stay free).
_stats = {
    "exported_segments": 0,   # segments this process created
    "exported_bytes": 0,      # total packed payload bytes
    "export_unavailable": 0,  # exports that fell back (no /dev/shm, ...)
    "attached_segments": 0,   # segments this process mapped
    "attach_failures": 0,     # attachments that fell back to regeneration
    "seeded_traces": 0,       # cache entries seeded from mapped segments
}


def transport_stats() -> "dict[str, int]":
    """Point-in-time counters of this process's shm-trace activity."""
    return dict(_stats)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def plan_entries(tasks) -> "list[tuple[str, str]]":
    """Distinct ``(kind, workload)`` traces the task list will pull.

    CPU and DVFS cells share one trace per application (DVFS reruns the
    same workload at a different frequency; the trace key does not include
    the configuration), GPU cells one per kernel.  Unknown run kinds are
    skipped -- they regenerate as before.
    """
    seen: "set[tuple[str, str]]" = set()
    entries: "list[tuple[str, str]]" = []
    for task in tasks:
        kind = "cpu" if task.run_kind in ("cpu", "dvfs") else (
            "gpu" if task.run_kind == "gpu" else None
        )
        if kind is None:
            continue
        ident = (kind, task.workload)
        if ident not in seen:
            seen.add(ident)
            entries.append(ident)
    return entries


def _trace_arrays(kind: str, workload: str, instructions: int, seed: int):
    """Generate (through the shared cache) and return the field arrays."""
    if kind == "cpu":
        from repro.workloads.profiles import cpu_app
        from repro.workloads.trace_cache import cached_trace

        trace = cached_trace(cpu_app(workload), instructions, seed=seed)
        fields = _CPU_FIELDS
    else:
        from repro.workloads.gpu_profiles import gpu_kernel
        from repro.workloads.trace_cache import cached_kernel

        trace = cached_kernel(gpu_kernel(workload), seed=seed)
        fields = _GPU_FIELDS
    return [(name, np.ascontiguousarray(getattr(trace, name))) for name in fields]


def export_traces(tasks, instructions: int, seed: int = 0):
    """Pack every trace ``tasks`` will need into one shared-memory segment.

    Returns ``(meta, shm)``: ``meta`` is the picklable layout description
    to embed in worker specs, ``shm`` the created segment whose name the
    caller must reclaim with :func:`release` when the pool finishes.
    Returns ``(None, None)`` when there is nothing to share or shared
    memory is unavailable (the sweep proceeds without the transport).
    """
    idents = plan_entries(tasks)
    if not idents:
        return None, None

    entries = []
    offset = 0
    payload = []
    for kind, workload in idents:
        arrays = _trace_arrays(kind, workload, instructions, seed)
        layout = []
        for name, arr in arrays:
            offset = _align(offset)
            layout.append((name, arr.dtype.str, tuple(arr.shape), offset))
            payload.append((offset, arr))
            offset += arr.nbytes
        entries.append(
            {
                "kind": kind,
                "workload": workload,
                "n": instructions,
                "seed": seed,
                "arrays": layout,
            }
        )
    if offset == 0:
        return None, None

    try:
        shm = shared_memory.SharedMemory(create=True, size=offset)
    except (OSError, ValueError):
        _stats["export_unavailable"] += 1
        return None, None
    try:
        for off, arr in payload:
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            dst[...] = arr
    except BaseException:
        release(shm)
        raise
    _stats["exported_segments"] += 1
    _stats["exported_bytes"] += offset
    meta = {"name": shm.name, "size": offset, "entries": entries}
    return meta, shm


def release(shm) -> None:
    """Close and unlink a segment created by :func:`export_traces`.

    Idempotent and exception-free: safe to call from ``finally`` blocks
    after any partial failure (already-unlinked names are fine).
    """
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass


def _attach_untracked(name: str) -> "shared_memory.SharedMemory":
    """Attach to an existing segment without resource-tracker registration.

    CPython <= 3.12 registers *attachments* with the resource tracker too
    (cpython#82300).  Worker processes share the parent's tracker, so an
    attach-side registration is either a set no-op or -- if later
    unregistered -- strips the parent's own crash-safety registration and
    makes the parent's eventual ``unlink`` complain.  Suppressing the
    register call at attach time leaves the parent as the segment's only
    tracked owner, which is the ownership model this module wants.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _release_attached() -> None:
    """atexit: drop cache-held views, then detach cleanly.

    Ordered so the numpy views (owned by the process-wide trace cache) are
    released before the segments close; otherwise interpreter teardown may
    close a buffer that still has exported views and spray ``BufferError``
    noise onto stderr.
    """
    from repro.workloads.trace_cache import shared_cache

    shared_cache().clear()
    for shm in _attached:
        try:
            shm.close()
        except (BufferError, OSError):  # views still referenced elsewhere
            pass
    _attached.clear()


def attach_traces(meta) -> int:
    """Map the parent's segment and seed this process's trace cache.

    Returns the number of traces seeded.  First insert wins in the cache
    (under a fork context the inherited entries are the same buffers
    anyway); any failure to attach returns 0 and the worker falls back to
    regeneration -- slower, bit-identical.
    """
    global _cleanup_registered
    if meta is None:
        return 0
    try:
        shm = _attach_untracked(meta["name"])
    except (FileNotFoundError, OSError, ValueError):
        _stats["attach_failures"] += 1
        return 0
    _attached.append(shm)
    _stats["attached_segments"] += 1
    if not _cleanup_registered:
        atexit.register(_release_attached)
        _cleanup_registered = True

    from repro.workloads.trace_cache import shared_cache

    cache = shared_cache()
    seeded = 0
    for entry in meta["entries"]:
        arrays = {}
        for name, dtype, shape, off in entry["arrays"]:
            arr = np.ndarray(
                tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf, offset=off
            )
            arr.flags.writeable = False  # engines read traces, never write
            arrays[name] = arr
        if entry["kind"] == "cpu":
            from repro.cpu.trace import Trace
            from repro.workloads.profiles import cpu_app
            from repro.workloads.trace_cache import trace_key

            profile = cpu_app(entry["workload"])
            value = Trace(**arrays)
            key = trace_key(profile, entry["n"], entry["seed"])
        else:
            from repro.workloads.gpu_generator import KernelTrace
            from repro.workloads.gpu_profiles import gpu_kernel
            from repro.workloads.trace_cache import kernel_key

            profile = gpu_kernel(entry["workload"])
            value = KernelTrace(profile=profile, **arrays)
            key = kernel_key(profile, entry["seed"])
        cache.put(key, value)
        seeded += 1
    _stats["seeded_traces"] += seeded
    return seeded
