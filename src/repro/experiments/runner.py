"""Sweep runner with a shared result cache and a resilient execution path.

Figures 7, 8, 9, and 13 all consume the same (configuration x application)
CPU runs, and Figures 10-12 the same GPU runs; the runner executes each
pair once and caches the result.  Sweep size is controlled by
:class:`SweepSettings`; the ``REPRO_INSTRUCTIONS`` / ``REPRO_APPS`` /
``REPRO_KERNELS`` environment variables override it for quick runs.

Every lookup is accounted by the runner's :class:`SweepTelemetry`
(:mod:`repro.obs.telemetry`): executed runs record wall time and simulated
instructions per second, cache-served lookups bump hit counters (also
mirrored into the global metrics registry as ``sweep.cpu.cache_hits``
etc.), and registered progress callbacks fire after each lookup so long
sweeps can report live.

Resilience (:mod:`repro.resilience`)
------------------------------------
Every execution goes through the guard path: configuration and workload
names are validated *before* anything runs (an unknown name is an
immediate, actionable ``KeyError``, recorded in the failure taxonomy as
``config``/``workload``); the cells run as one engine batch (a single
cell is a batch of one) under the
:class:`~repro.resilience.guard.GuardPolicy` wall-clock timeout scaled to
the batch, then each cell gets the policy's retry/backoff budget, routed
through the env-gated fault injector when one is active; and results are
sanity-checked so a corrupted measurement is rejected rather than cached.
A cell that exhausts its budget raises
:class:`~repro.resilience.errors.SweepError` from the strict per-cell
methods (``cpu_run`` etc.) but degrades to a recorded gap (``None`` cell,
:class:`~repro.resilience.errors.RunFailure` in :attr:`SweepRunner.failures`)
inside ``cpu_sweep``/``gpu_sweep``/``dvfs_cell`` -- unless the policy says
``fail_fast``.

Attach a checkpoint path to persist results across interruptions: the
checkpoint is a result store at that path
(:class:`~repro.resilience.checkpoint.SweepCheckpoint`), each executed
cell is saved to it as one durable object the moment it commits, and
``resume=True`` reads cells through it so a rerun executes only the
missing cells.

Isolation and parallelism
-------------------------
``cpu_sweep`` / ``gpu_sweep`` / ``dvfs_sweep`` accept ``workers=`` and
``isolation=``.  The default (``workers=1``, ``isolation="thread"``) is
the in-process guard path above.  ``isolation="process"`` routes the
missing cells through the supervised multiprocessing executor
(:mod:`repro.resilience.pool`): each attempt runs in its own worker
process, hung attempts are SIGKILLed at the policy timeout (no zombie
CPU burners), and a hard worker crash costs one cell attempt instead of
the sweep.  Results stream back and merge into the caches/checkpoint as
they complete, but the returned mapping is always in deterministic cell
order, so serial and parallel sweeps produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.configs import cpu_config, gpu_config
# perfbench's ledger wraps these four engine names where the runner
# looks; ``simulate_cpu`` and ``simulate_gpu`` are imported for it alone.
from repro.core.simulate import (
    CpuRunResult,
    GpuRunResult,
    simulate_cpu,
    simulate_cpu_batch,
    simulate_gpu,
    simulate_gpu_batch,
)
from repro.gpu.cu_batch import CellOutcome, contain
from repro.obs.events import get_event_log
from repro.obs.telemetry import SweepTelemetry
from repro.resilience import faults
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.errors import RunFailure, SweepError
from repro.resilience.guard import (
    GuardPolicy,
    call_with_timeout,
    run_guarded,
    zombie_thread_count,
)
from repro.resilience.selfcheck import validate_result
from repro.workloads.gpu_profiles import GPU_KERNELS, gpu_kernel
from repro.workloads.profiles import CPU_APPS, cpu_app


def _default_instructions() -> int:
    return int(os.environ.get("REPRO_INSTRUCTIONS", 40_000))


def _default_apps() -> list[str]:
    env = os.environ.get("REPRO_APPS")
    if env:
        return [a.strip() for a in env.split(",") if a.strip()]
    return list(CPU_APPS)


def _default_kernels() -> list[str]:
    env = os.environ.get("REPRO_KERNELS")
    if env:
        return [k.strip() for k in env.split(",") if k.strip()]
    return list(GPU_KERNELS)


@dataclass
class SweepSettings:
    """Workload sizing for a sweep."""

    instructions: int = field(default_factory=_default_instructions)
    warmup_fraction: float = 0.375
    apps: list[str] = field(default_factory=_default_apps)
    kernels: list[str] = field(default_factory=_default_kernels)

    @property
    def warmup(self) -> int:
        return int(self.instructions * self.warmup_fraction)

    def fingerprint(self) -> str:
        """A stable digest of everything that shapes the cached results.

        Checkpoints minted under one fingerprint are invalid under any
        other, and :func:`shared_runner` re-keys on it so env overrides
        (``REPRO_APPS`` etc.) changed after first use are honoured.
        """
        payload = {
            "instructions": self.instructions,
            "warmup_fraction": self.warmup_fraction,
            "apps": list(self.apps),
            "kernels": list(self.kernels),
        }
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def simulate_cells(
    run_kind: str, cells: "list[tuple]", instructions: int, warmup: int
) -> "list[CellOutcome]":
    """Run one batch of resolved ``(design, workload, extra)`` cells.

    Returns one :class:`~repro.gpu.cu_batch.CellOutcome` per cell
    (``result`` or ``error``) in cell order; one cell's error never
    fails its siblings.  CPU and GPU cells go through the batched
    drivers (GPU cells in SIMT lockstep), DVFS points run in sequence.
    In-process sweeps and pool workers both call this, so a cell
    computes identically wherever it runs.
    """
    if run_kind == "gpu":
        return simulate_gpu_batch([(design, w) for design, w, _ in cells])
    if run_kind == "cpu":
        return simulate_cpu_batch(
            [(design, w) for design, w, _ in cells],
            instructions=instructions,
            warmup=warmup,
        )
    if run_kind != "dvfs":
        raise ValueError(f"unknown run kind {run_kind!r}")
    from repro.core.dvfs import HetCoreDvfs

    def point(design, app, freq_ghz: float, variation: bool):
        return HetCoreDvfs().simulate_at(
            design, app, freq_ghz, variation=variation,
            instructions=instructions, warmup=warmup,
        )

    return [
        contain(partial(point, design, app, *extra))
        for design, app, extra in cells
    ]


def _work(run_kind: str, result) -> "tuple[int, int]":
    """A result's (instructions, engine cycles) for batch accounting."""
    if run_kind == "gpu":
        cu = result.gpu.cu_result
        return cu.instructions, cu.cycles
    return result.core.committed, result.core.cycles


def batch_stats(
    run_kind: str, outcomes: "list[CellOutcome]", wall_s: float
) -> "dict[str, float]":
    """One :func:`simulate_cells` invocation's tally, as
    :meth:`~repro.obs.telemetry.SweepTelemetry.record_batch` takes it.

    Counts every outcome as a cell and the work of every cell the
    engine completed, before any fault or self-check; in-process sweeps
    and pool workers both tally their batches here.
    """
    instructions = cycles = 0
    for out in outcomes:
        if out.error is None:
            done, spent = _work(run_kind, out.result)
            instructions += done
            cycles += spent
    return {
        "cells": len(outcomes),
        "vectorized_cells": sum(out.vectorized for out in outcomes),
        "instructions": instructions,
        "engine_cycles": cycles,
        "skipped_cycles": sum(out.skipped_cycles for out in outcomes),
        "wall_s": wall_s,
    }


def faulted_attempt(injector, run_kind: str, key: tuple, fn: Callable[[], object]):
    """One cell attempt through the ``run`` fault schedule.

    ``fail`` raises :class:`~repro.resilience.faults.InjectedFault`;
    ``hang`` sleeps the plan's ``hang_s`` first (so a guard timeout
    fires); ``die`` SIGKILLs this process, the hard crash only process
    isolation contains; ``corrupt`` runs ``fn`` and NaNs ``time_s`` for
    the self-check to reject.  Both the in-process runner and the pool
    worker call this, keyed on the attempt the draw counts (or the
    worker primed).
    """
    kind = injector.draw(run_kind, key)
    if kind == "fail":
        raise faults.InjectedFault(f"injected crash at {run_kind} cell {key!r}")
    if kind == "hang":
        injector.sleep(injector.plan.hang_s)
    elif kind == "die":
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    result = fn()
    if kind == "corrupt":
        result.time_s = float("nan")
    return result


def _resolve_isolation(workers: int, isolation: "str | None") -> str:
    """Default ``isolation`` from ``workers`` and reject bad combinations."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if isolation is None:
        isolation = "process" if workers > 1 else "thread"
    if isolation not in ("thread", "process"):
        raise ValueError(
            f"unknown isolation {isolation!r} (expected 'thread' or 'process')"
        )
    if isolation == "thread" and workers > 1:
        raise ValueError(
            "workers > 1 requires isolation='process': thread isolation "
            "cannot parallelise CPU-bound sweeps, nor kill hung attempts"
        )
    return isolation


class SweepRunner:
    """Runs and caches (configuration, workload) measurements.

    ``progress`` (or any callback added later via
    ``runner.telemetry.on_progress``) is called with an event dict after
    every lookup -- cached or not -- so callers can surface live status.

    ``policy`` sets the per-run guard budget (timeout, retries, backoff,
    fail-fast); ``checkpoint`` (a path or :class:`SweepCheckpoint`)
    durably saves every executed cell, and ``resume=True`` serves cache
    misses from whatever the checkpoint already holds.  A path that is an
    existing regular file raises ``ValueError``.

    ``store`` (a path or :class:`~repro.store.cas.ResultStore`; default
    from ``REPRO_STORE``) plugs in the durable content-addressed result
    store: cache misses read through it before touching a cycle engine,
    and every executed result is written back, so identical cells are
    served across processes, sweeps, and sessions.  Store I/O is
    strictly best-effort -- a failed read is a miss, a failed write a
    counter -- a broken disk degrades serving, never correctness.
    """

    def __init__(
        self,
        settings: SweepSettings | None = None,
        progress: "Callable[[dict], None] | None" = None,
        policy: GuardPolicy | None = None,
        checkpoint: "str | os.PathLike | SweepCheckpoint | None" = None,
        resume: bool = False,
        store=None,
    ):
        self.settings = settings or SweepSettings()
        self.policy = policy or GuardPolicy()
        # Parse REPRO_FAULTS* now: a bad value is the caller's error,
        # not a crash recorded against every cell's first attempt.
        faults.active("run")
        self.telemetry = SweepTelemetry()
        if progress is not None:
            self.telemetry.on_progress(progress)
        if store is None:
            store = os.environ.get("REPRO_STORE") or None
        if store is not None and not hasattr(store, "get"):
            from repro.store.cas import ResultStore

            store = ResultStore(store)
        self.store = store
        self._cpu_cache: dict[tuple[str, str], CpuRunResult] = {}
        self._gpu_cache: dict[tuple[str, str], GpuRunResult] = {}
        self._dvfs_cache: dict[tuple[str, str, float, bool], CpuRunResult] = {}
        #: Recorded gaps, keyed by failure cell coordinate.
        self.failures: "dict[tuple, RunFailure]" = {}
        #: Serialises cache/failure/telemetry/checkpoint mutations so the
        #: job service can run concurrent dispatcher threads against one
        #: runner.  Reentrant: merge paths save to the checkpoint inline.
        self._lock = threading.RLock()
        #: In-flight process pools, abortable via :meth:`abort_active_pools`.
        self._active_pools: set = set()
        self._zombie_warned = False
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint")
        if isinstance(checkpoint, (str, os.PathLike)):
            checkpoint = SweepCheckpoint(checkpoint)
        self.checkpoint = checkpoint
        self.resume = resume

    # -- durable tiers: the result store and the checkpoint -------------
    #: The telemetry event each durable tier counts per outcome of a
    #: read or write; an outcome a tier does not name goes uncounted.
    _TIER_EVENTS = {
        "store": {"hit": "hits", "miss": "misses", "read_error": "errors",
                  "put": "puts", "write_failed": "errors"},
        "checkpoint": {"hit": "entries_loaded", "put": "save",
                       "write_failed": "write_failed"},
    }

    def _count(self, tier: str, outcome: str) -> None:
        event = self._TIER_EVENTS[tier].get(outcome)
        if event is not None:
            with self._lock:
                getattr(self.telemetry, f"record_{tier}")(event)

    def _durable_get(self, tier: str, run_kind: str, key: tuple):
        """Read one cell from ``tier`` (``"store"`` or ``"checkpoint"``);
        None when the tier is absent, misses, or fails to read."""
        store = getattr(self, tier)
        if store is None:
            return None
        config_name, workload, *extra = key
        try:
            result = store.get(
                self.settings.fingerprint(), run_kind, config_name,
                workload, tuple(extra),
            )
        except OSError:
            self._count(tier, "read_error")
            return None
        self._count(tier, "miss" if result is None else "hit")
        return result

    def _durable_put(self, tier: str, run_kind: str, key: tuple, result) -> None:
        """Durably write one cell to ``tier``, if it is attached.

        Best-effort: a write failure (full disk, injected EIO/ENOSPC,
        ...) degrades to a counted ``<tier>.write_failed`` event.  It
        costs that cell a re-execution later, never the sweep in
        progress.
        """
        store = getattr(self, tier)
        if store is None:
            return
        config_name, workload, *extra = key
        # The checkpoint writes through ``save`` so profiles tell its
        # flushes apart from store writes.
        write = store.save if tier == "checkpoint" else store.put
        try:
            write(
                self.settings.fingerprint(), run_kind, config_name,
                workload, tuple(extra), result,
            )
        except OSError as exc:
            self._count(tier, "write_failed")
            get_event_log().emit(
                f"{tier}.write_failed", run_kind=run_kind,
                config=config_name, workload=workload, error=str(exc),
            )
            return
        self._count(tier, "put")
        if tier == "checkpoint":
            get_event_log().emit(
                "checkpoint.flush", run_kind=run_kind, config=config_name,
                workload=workload,
            )

    def cached_result(self, run_kind: str, key: tuple):
        """The result the caches hold for a cell, or None.

        Consults the memory cache, then the checkpoint (on resume), then
        the durable store.  A checkpoint or store hit is promoted into
        the memory cache and supersedes any gap recorded for the cell; a
        store hit is also saved to the checkpoint, so resuming from the
        checkpoint alone serves every cell this runner held.  Counts
        only the tiers' own events: the caller records the hit
        (:meth:`record_cache_hit`) once it serves the result.
        """
        cache = self._cache_for(run_kind)
        cached = cache.get(key)
        if cached is not None:
            return cached
        cached = (
            self._durable_get("checkpoint", run_kind, key)
            if self.resume else None
        )
        from_store = cached is None
        if from_store:
            cached = self._durable_get("store", run_kind, key)
            if cached is None:
                return None
        with self._lock:
            cache[key] = cached
            self.failures.pop((run_kind, *key), None)
            if from_store:
                self._durable_put("checkpoint", run_kind, key, cached)
        return cached

    def record_cache_hit(self, run_kind: str, key: tuple, result=None) -> None:
        """Count one cell served without executing it, with ``result``'s
        instruction count (0 for a repeat of a cell still queued)."""
        instructions = (
            0 if result is None else _work(run_kind, result)[0]
        )
        with self._lock:
            self.telemetry.record_run(
                run_kind, key[0], key[1], 0.0, instructions, cached=True,
            )

    # -- guarded execution ---------------------------------------------
    def _validated(self, run_kind: str, config_name: str, workload: str):
        """Config/workload name validation, *before* any execution.

        Raises the same actionable ``KeyError`` as
        :func:`repro.core.configs.cpu_config` -- and records the cell in
        the failure taxonomy (kind ``config``/``workload``) on the way
        out, so sweeps degrade it to a gap instead of aborting.
        """
        lookup_config = gpu_config if run_kind == "gpu" else cpu_config
        lookup_workload = gpu_kernel if run_kind == "gpu" else cpu_app
        try:
            design = lookup_config(config_name)
        except KeyError as exc:
            self._record_validation_failure(
                run_kind, config_name, workload, "config", exc
            )
            raise
        try:
            lookup_workload(workload)
        except KeyError as exc:
            self._record_validation_failure(
                run_kind, config_name, workload, "workload", exc
            )
            raise
        return design

    def _record_validation_failure(
        self, run_kind: str, config: str, workload: str, kind: str, exc: Exception
    ) -> None:
        self.record_gap(RunFailure(
            run_kind=run_kind,
            config=config,
            workload=workload,
            kind=kind,
            attempts=0,
            message=str(exc).strip('"'),
        ))

    def _execute(self, run_kind: str, key: tuple, fn: Callable[[], object]):
        """One execution attempt, routed through the run fault injector."""
        injector = faults.active("run")
        if injector is None:
            return fn()
        return faulted_attempt(injector, run_kind, key, fn)

    def _note_zombies(self) -> None:
        """Surface abandoned (unkillable) guard threads after a timeout.

        Thread isolation cannot reclaim a hung attempt: the daemon thread
        keeps burning CPU alongside its retries.  Record the leak in
        telemetry and warn once per sweep so users know process isolation
        (``isolation="process"``) actually kills overrunners.
        """
        zombies = zombie_thread_count()
        if not zombies:
            return
        self.telemetry.record_zombie_threads(zombies)
        if not self._zombie_warned:
            self._zombie_warned = True
            warnings.warn(
                f"{zombies} timed-out attempt(s) left running as zombie "
                f"thread(s) under isolation='thread'; they burn CPU until "
                f"the process exits. Use isolation='process' (sweep "
                f"--isolation process) to SIGKILL hung attempts instead.",
                RuntimeWarning,
                stacklevel=3,
            )

    def _missing(
        self, run_kind: str, cells: "list[tuple]", strict: bool = False
    ) -> "list[tuple]":
        """The cells left to execute, as ``(key, (design, workload, extra))``.

        Every other cell is accounted for here: served from the memory
        cache or promoted from the durable store (a cache hit either
        way), or recorded as a config/workload gap -- which raises
        instead when ``strict`` or under ``fail_fast``.  A repeated
        cell executes once; each repeat counts as the cache hit a later
        lookup would be.
        """
        todo: "list[tuple]" = []
        queued: "set[tuple]" = set()
        for config_name, workload, extra in cells:
            key = (config_name, workload, *extra)
            if key in queued:
                self.record_cache_hit(run_kind, key)
                continue
            cached = self.cached_result(run_kind, key)
            if cached is not None:
                self.record_cache_hit(run_kind, key, cached)
                continue
            try:
                design = self._validated(run_kind, config_name, workload)
            except KeyError:
                if strict or self.policy.fail_fast:
                    raise
                continue  # recorded as a config/workload gap
            queued.add(key)
            todo.append((key, (design, workload, tuple(extra))))
        return todo

    def _commit(self, run_kind: str, key: tuple, result, wall_s: float):
        """Merge one executed success into the caches, telemetry, durable
        store and checkpoint (one write each)."""
        with self._lock:
            self._cache_for(run_kind)[key] = result
            # A fresh success supersedes any gap recorded for this cell.
            self.failures.pop((run_kind, *key), None)
            self.telemetry.record_run(
                run_kind, key[0], key[1], wall_s,
                _work(run_kind, result)[0], cached=False,
            )
            self._durable_put("store", run_kind, key, result)
            self._durable_put("checkpoint", run_kind, key, result)

    def _run_cells(
        self, run_kind: str, cells: "list[tuple]", strict: bool = False
    ) -> None:
        """Execute ``(config, workload, extra)`` cells in-process.

        Every in-process cell runs here; a strict ``cpu_run`` is a batch
        of one.  One :func:`simulate_cells` call computes every cell the
        caches, the durable store and name validation leave over, under
        the policy timeout scaled to the batch (``timeout_s`` x cells).
        Each cell then goes through its own guard attempts -- fault
        injector, ``validate_result`` self-check, retry/backoff budget,
        failure taxonomy -- whose first attempt replays the batch's
        outcome and whose retries re-run the cell alone.  A failed cell,
        or each cell of a timed-out batch, becomes a recorded gap (raised
        as :class:`SweepError` when ``strict`` or under ``fail_fast``);
        its batch siblings keep their results.
        """
        todo = self._missing(run_kind, cells, strict)
        if not todo:
            return
        settings = self.settings

        def engine(batch: "list[tuple]") -> list:
            return simulate_cells(
                run_kind, batch, settings.instructions, settings.warmup
            )

        timeout_s = self.policy.timeout_s
        start = time.perf_counter()
        batch = contain(
            lambda: call_with_timeout(
                lambda: engine([cell for _, cell in todo]),
                None if timeout_s is None else timeout_s * len(todo),
            )
        )
        batch_wall = time.perf_counter() - start
        # A timed-out batch costs every one of its cells an attempt.
        outcomes = batch.result if batch.error is None else [batch] * len(todo)
        per_cell_wall = batch_wall / len(todo)

        elog = get_event_log()
        for (key, cell), out in zip(todo, outcomes):
            config_name, workload, *extra = key

            # Attempt 1 replays the batch's outcome; retries re-run the
            # cell alone.  Defaults bind this cell for abandoned threads.
            def attempt(replays=iter([out]), cell=cell, key=key):
                replay = next(replays, None)
                return self._execute(
                    run_kind, key,
                    lambda: (replay or engine([cell])[0]).unwrap(),
                )

            def on_retry(number: int, kind: str) -> None:
                self.telemetry.record_retry(run_kind, kind)
                elog.emit(
                    "guard.retry", run_kind=run_kind, config=config_name,
                    workload=workload, attempt=number, failure_kind=kind,
                )

            with elog.span(
                "cell.attempt", run_kind=run_kind, config=config_name,
                workload=workload,
            ):
                outcome = run_guarded(
                    attempt,
                    policy=self.policy,
                    run_kind=run_kind,
                    config=config_name,
                    workload=workload,
                    extra=tuple(extra),
                    validate=lambda result: validate_result(run_kind, result),
                    on_retry=on_retry,
                )
            self._note_zombies()
            if outcome.failure is not None:
                self.record_gap(outcome.failure)
                if strict or self.policy.fail_fast:
                    raise SweepError(outcome.failure)
                continue
            self._commit(
                run_kind, key, outcome.result, per_cell_wall + outcome.wall_s
            )
        stats = batch_stats(run_kind, outcomes, batch_wall)
        with self._lock:
            self.telemetry.record_batch(run_kind, stats)
        elog.emit(
            "sweep.batch", run_kind=run_kind, cells=stats["cells"],
            vectorized=stats["vectorized_cells"], wall_s=batch_wall,
            instructions=stats["instructions"],
        )

    def _one(
        self, run_kind: str, config_name: str, workload: str,
        extra: tuple = (), strict: bool = False,
    ):
        """One cell as a batch of one; its result, or None for a gap."""
        cell = (config_name, workload, tuple(extra))
        self._run_cells(run_kind, [cell], strict)
        return self._cache_for(run_kind).get((config_name, workload, *extra))

    # -- strict per-cell API -------------------------------------------
    def dvfs_run(
        self, config_name: str, app: str, freq_ghz: float, variation: bool
    ) -> CpuRunResult:
        """A DVFS/guardband point (Figure 14), cached like the sweeps."""
        return self._one(
            "dvfs", config_name, app, (freq_ghz, variation), strict=True
        )

    def cpu_run(self, config_name: str, app: str) -> CpuRunResult:
        return self._one("cpu", config_name, app, strict=True)

    def gpu_run(self, config_name: str, kernel: str) -> GpuRunResult:
        return self._one("gpu", config_name, kernel, strict=True)

    # -- gap-tolerant API ----------------------------------------------
    def cpu_cell(self, config_name: str, app: str) -> "CpuRunResult | None":
        """Like :meth:`cpu_run`, but a failed cell returns None (recorded
        in :attr:`failures`) instead of raising -- unless fail-fast."""
        return self._one("cpu", config_name, app)

    def gpu_cell(self, config_name: str, kernel: str) -> "GpuRunResult | None":
        return self._one("gpu", config_name, kernel)

    def dvfs_cell(
        self, config_name: str, app: str, freq_ghz: float, variation: bool
    ) -> "CpuRunResult | None":
        return self._one("dvfs", config_name, app, (freq_ghz, variation))

    def run_cell(
        self,
        run_kind: str,
        config_name: str,
        workload: str,
        extra: tuple = (),
        *,
        isolation: str = "thread",
    ):
        """Execute one cell of any kind; gap-tolerant, isolation-selectable.

        The job service's per-job execution entrypoint: ``"thread"``
        runs the cell in-process as a batch of one, ``"process"`` in a
        single-slot supervised worker pool.  Returns the result or
        ``None`` with the gap recorded in :attr:`failures` -- identical
        semantics to a one-cell sweep.
        """
        if run_kind not in ("cpu", "gpu", "dvfs"):
            raise ValueError(f"unknown run kind {run_kind!r}")
        cell = (config_name, workload, tuple(extra))
        self._sweep(run_kind, [cell], 1, isolation)
        return self._cache_for(run_kind).get((config_name, workload, *extra))

    def record_gap(self, failure: RunFailure) -> None:
        """Record a gap (a failed cell, or an externally decided one such
        as a shed or drained job) in the failure taxonomy and telemetry.
        Gaps are not persisted: a resume re-executes every cell the
        checkpoint does not hold."""
        with self._lock:
            self.failures[failure.cell] = failure
            self.telemetry.record_failure(failure)

    # -- process-isolated parallel execution ---------------------------
    def _cache_for(self, run_kind: str) -> dict:
        return {
            "cpu": self._cpu_cache,
            "gpu": self._gpu_cache,
            "dvfs": self._dvfs_cache,
        }[run_kind]

    def _pool_event(self, event: str, info: dict) -> None:
        """Map pool lifecycle events onto the telemetry counters."""
        if event == "utilization":
            self.telemetry.record_pool_utilization(info["value"])
            return
        if event == "batch_completed":
            with self._lock:
                self.telemetry.record_batch(info["run_kind"], info["stats"])
            return
        self.telemetry.record_pool(event)
        if event == "requeued":
            # Mirror the serial guard's retry accounting so dashboards
            # and CI assertions see one consistent counter.
            self.telemetry.record_retry(info["run_kind"], info["failure_kind"])

    def _pool_cells(
        self, run_kind: str, cells: "list[tuple]", workers: int
    ) -> None:
        """Execute the non-cached cells of a sweep in worker processes.

        ``cells`` is a list of (config, workload, extra) coordinates.
        Completed results stream back and merge into the cache (each
        saved to the checkpoint as it lands), failures into
        :attr:`failures` -- callers then assemble the returned mapping
        from the caches in deterministic cell order.
        """
        from repro.resilience.pool import CellTask, SweepPool

        tasks = [
            CellTask(run_kind, key[0], key[1], key[2:])
            for key, _ in self._missing(run_kind, cells)
        ]
        if not tasks:
            return
        pool = SweepPool(
            policy=self.policy,
            instructions=self.settings.instructions,
            warmup=self.settings.warmup,
            workers=workers,
            on_event=self._pool_event,
        )
        with self._lock:
            self._active_pools.add(pool)
        try:
            pool.run(
                tasks,
                on_result=lambda task, outcome: self.merge_pool_outcome(
                    run_kind, task, outcome
                ),
            )
        finally:
            with self._lock:
                self._active_pools.discard(pool)

    def merge_pool_outcome(self, run_kind: str, task, outcome) -> None:
        """Merge one pool-executed cell (success or exhausted failure)
        into the caches, failure taxonomy, telemetry, and checkpoint.

        Public so the job service can drive its own :class:`SweepPool`
        instances while sharing this runner's state; raises
        :class:`SweepError` under a ``fail_fast`` policy (which aborts
        the emitting pool).
        """
        if outcome.ok:
            self._commit(run_kind, task.key, outcome.result, outcome.wall_s)
            return
        self.record_gap(outcome.failure)
        if self.policy.fail_fast:
            raise SweepError(outcome.failure)

    def abort_active_pools(self) -> int:
        """Abort every in-flight :class:`SweepPool` (drain-deadline path);
        returns how many pools were signalled."""
        with self._lock:
            pools = list(self._active_pools)
        for pool in pools:
            pool.abort()
        return len(pools)

    def _sweep(
        self, run_kind: str, cells: "list[tuple]", workers: int,
        isolation: "str | None",
    ) -> None:
        """Execute ``cells`` in-process or, for ``isolation="process"``,
        in ``workers`` supervised worker processes."""
        if _resolve_isolation(workers, isolation) == "process":
            self._pool_cells(run_kind, cells, workers)
        else:
            self._run_cells(run_kind, cells)

    def cpu_sweep(
        self,
        config_names: list[str],
        *,
        workers: int = 1,
        isolation: "str | None" = None,
    ) -> "dict[str, dict[str, CpuRunResult | None]]":
        """All (config, app) results as {config: {app: result-or-None}}.

        ``workers``/``isolation`` select the execution backend: the
        default is the in-process thread-guard path; ``"process"``
        dispatches missing cells to SIGKILL-supervised worker processes
        (``workers`` of them in parallel).
        """
        apps = self.settings.apps
        cells = [(name, app, ()) for name in config_names for app in apps]
        self._sweep("cpu", cells, workers, isolation)
        return {
            name: {app: self._cpu_cache.get((name, app)) for app in apps}
            for name in config_names
        }

    def gpu_sweep(
        self,
        config_names: list[str],
        *,
        workers: int = 1,
        isolation: "str | None" = None,
    ) -> "dict[str, dict[str, GpuRunResult | None]]":
        kernels = self.settings.kernels
        cells = [(name, k, ()) for name in config_names for k in kernels]
        self._sweep("gpu", cells, workers, isolation)
        return {
            name: {k: self._gpu_cache.get((name, k)) for k in kernels}
            for name in config_names
        }

    def dvfs_sweep(
        self,
        points: "list[tuple[str, str, float, bool]]",
        *,
        workers: int = 1,
        isolation: "str | None" = None,
    ) -> "dict[tuple, CpuRunResult | None]":
        """DVFS/guardband points (config, app, freq_ghz, variation) as a
        {point: result-or-None} mapping, in the given point order."""
        points = [tuple(p) for p in points]
        cells = [(c, a, (f, v)) for c, a, f, v in points]
        self._sweep("dvfs", cells, workers, isolation)
        return {p: self._dvfs_cache.get(p) for p in points}


#: Process-wide default runner so independent figure calls share runs.
_SHARED: SweepRunner | None = None


def shared_runner() -> SweepRunner:
    """The process-wide cached runner.

    Re-keyed on the env-derived :meth:`SweepSettings.fingerprint`, so
    changing ``REPRO_INSTRUCTIONS`` / ``REPRO_APPS`` / ``REPRO_KERNELS``
    after first use yields a fresh runner instead of silently serving
    results sized under the old settings.
    """
    global _SHARED
    current = SweepSettings()
    if _SHARED is None or _SHARED.settings.fingerprint() != current.fingerprint():
        _SHARED = SweepRunner(current)
    return _SHARED


def reset_shared_runner() -> None:
    """Drop the process-wide runner (next :func:`shared_runner` rebuilds)."""
    global _SHARED
    _SHARED = None
