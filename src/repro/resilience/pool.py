"""Process-isolated parallel sweep executor with worker supervision.

The thread-based guard (:mod:`repro.resilience.guard`) has a structural
limit: a hung attempt cannot be killed from Python, and a hard crash
(segfault, OOM kill, interpreter abort) in any cell takes down the whole
sweep.  :class:`SweepPool` removes both failure classes by running each
(configuration, workload) cell attempt in its own worker process
(:mod:`repro.resilience.worker`) under a supervisor loop in the parent:

* **hard timeouts** -- an attempt that exceeds ``policy.timeout_s`` is
  SIGKILLed and reaped; no abandoned zombies keep burning CPU;
* **crash containment** -- a worker that dies (nonzero exit, signal,
  ``kill -9``, lost heartbeat) costs one attempt of its cells, mapped onto
  the existing :class:`~repro.resilience.errors.RunFailure` taxonomy
  (``timeout`` / ``crash``);
* **bounded requeue** -- failed attempts re-enter the queue until
  ``policy.max_retries`` is exhausted, honouring the same deterministic
  seeded backoff schedule as the serial guard (the cell becomes eligible
  again after the backoff delay instead of blocking the supervisor);
* **streamed results** -- each finished cell is reported through
  ``on_result`` the moment it completes, so the caller can save it to
  the checkpoint as it lands (a parent crash mid-sweep resumes with
  only the gaps re-run);
* **deterministic order** -- :meth:`SweepPool.run` returns outcomes in
  task-submission order regardless of completion order, so serial and
  parallel sweeps produce byte-identical reports.

Isolation mechanics: every worker gets a dedicated pipe (a killed worker
can never poison a queue lock shared with siblings) and runs exactly one
attempt, so the supervisor's SIGKILL is always safe.  Worker processes
are spawned from a bounded pool of ``workers`` slots; cells queue until
a slot frees.

Cell batches: every attempt hands its worker a *batch* of cells,
executed through the batched engine drivers
(:func:`repro.experiments.runner.simulate_cells`) with one terminal
per-cell reply each -- amortising process start-up, trace decode, and
the lockstep GPU engine across the batch.  First attempts split the
tasks evenly across the worker slots, at most :data:`POOL_BATCH_MAX`
cells each, so parallelism is never traded away for batch depth.
Results still merge in task-submission order, so serial and
``--workers N`` sweeps produce byte-identical reports.  The attempt's
wall-clock budget scales with the batch size; a failed cell inside a
healthy batch costs only itself (one per-cell ``fail`` entry), while a
dead or hung worker costs every batch cell one attempt -- and every
retry runs alone (a batch of one), so the retry/backoff budget stays
per cell.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable

from repro import obs
from repro.obs.events import get_event_log, new_trace_id, read_events
from repro.obs.metrics import get_registry
from repro.resilience import faults
from repro.resilience import shm as shm_transport
from repro.resilience.errors import RunFailure
from repro.resilience.guard import GuardOutcome, GuardPolicy
from repro.resilience.worker import worker_main

#: Supervisor loop responsiveness bounds (seconds).
_MIN_WAIT_S = 0.01
_MAX_WAIT_S = 0.25

#: Largest cell batch handed to one worker attempt.  Bounds both the
#: blast radius of a worker death (the whole batch requeues as single-cell
#: attempts) and the padded array footprint of the lockstep GPU engine.
POOL_BATCH_MAX = 16


class PoolAborted(RuntimeError):
    """:meth:`SweepPool.run` was stopped early via :meth:`SweepPool.abort`.

    Raised *from the supervisor loop* after every live worker has been
    SIGKILLed and reaped, so the caller (e.g. a draining
    :class:`repro.serve.service.SimService`) inherits a clean process
    table and can record the unfinished tasks as gaps.
    """


@dataclass(frozen=True)
class CellTask:
    """One sweep cell to execute: coordinates plus cache-key shape."""

    run_kind: str  # "cpu" | "gpu" | "dvfs"
    config: str
    workload: str
    extra: tuple = ()

    @property
    def key(self) -> tuple:
        """The runner's cache key (also the fault-injection draw key)."""
        return (self.config, self.workload, *self.extra)

    @property
    def cell(self) -> tuple:
        """The failure-taxonomy cell coordinate."""
        return (self.run_kind, self.config, self.workload, *self.extra)


@dataclass
class _Pending:
    """A queued attempt, eligible to start at ``not_before`` (monotonic).

    ``idxs`` holds the task indices this attempt executes as one batch.
    Retries always requeue as single-cell attempts, so the retry/backoff
    budget stays per cell.
    """

    idxs: tuple
    attempt: int
    not_before: float = 0.0


@dataclass
class _Live:
    """One running worker process under supervision."""

    idxs: tuple
    attempt: int
    proc: object
    conn: object
    started: float
    deadline: "float | None"
    last_beat: float = field(default=0.0)
    #: Flight-recorder sidecar JSONL the worker spills events to (only
    #: when observability is on); read back if the worker dies silently.
    sidecar: "str | None" = None


def _describe_exit(exitcode: "int | None") -> str:
    if exitcode is None:
        return "still running"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"killed by {name}"
    return f"exit code {exitcode}"


def default_mp_context():
    """Fork where available (fast, Linux), else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class SweepPool:
    """Supervised bounded pool executing sweep cells in worker processes.

    ``on_event(event, info)`` observes the worker lifecycle
    (``spawned`` / ``completed`` / ``killed`` / ``crashed`` /
    ``heartbeat_lost`` / ``requeued`` / ``utilization``) so the telemetry
    layer can count it; ``on_result(task, outcome)`` streams each
    finalised cell (success or exhausted failure) in completion order.
    An ``on_result`` that raises aborts the pool: every live worker is
    killed and the exception propagates (this is how ``fail_fast``
    sweeps stop early without leaking children).
    """

    def __init__(
        self,
        *,
        policy: "GuardPolicy | None" = None,
        instructions: int,
        warmup: int,
        workers: int = 2,
        mp_context=None,
        heartbeat_s: float = 0.5,
        heartbeat_timeout_s: float = 30.0,
        on_event: "Callable[[str, dict], None] | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.policy = policy or GuardPolicy()
        self.instructions = instructions
        self.warmup = warmup
        self.workers = workers
        self.ctx = mp_context or default_mp_context()
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._on_event = on_event
        self._abort = threading.Event()
        self._shm_meta: "dict | None" = None
        #: Telemetry-spine state for the current :meth:`run` (obs on only):
        #: tempdir holding worker flight-recorder sidecars, and the
        #: (trace_id, span_id) propagated to workers via the task spec.
        self._obs_dir: "str | None" = None
        self._trace_ctx: "dict | None" = None

    def abort(self) -> None:
        """Request an early stop (thread-safe, idempotent).

        The supervisor loop notices within one wait quantum
        (``_MAX_WAIT_S``), SIGKILLs and reaps every live worker, and
        raises :class:`PoolAborted` out of :meth:`run`.  Used by the job
        service's graceful-drain deadline.
        """
        self._abort.set()

    # -- events --------------------------------------------------------
    def _event(self, event: str, **info) -> None:
        if self._on_event is not None:
            self._on_event(event, info)
        if obs.enabled():
            get_event_log().emit(f"pool.{event}", **info)

    # -- spawning ------------------------------------------------------
    def _spec(
        self, batch: "list[CellTask]", attempt: int, env: dict,
        sidecar: "str | None" = None,
    ) -> dict:
        plan = faults.installed_plan("run")
        return {
            "run_kind": batch[0].run_kind,
            "cells": [
                {
                    "run_kind": t.run_kind,
                    "config": t.config,
                    "workload": t.workload,
                    "extra": tuple(t.extra),
                    "key": t.key,
                }
                for t in batch
            ],
            "attempt": attempt,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "env": env,
            "fault_plan": plan.to_dict() if plan is not None else None,
            "heartbeat_s": self.heartbeat_s,
            "shm_traces": self._shm_meta,
            # Telemetry spine: carry the obs flag explicitly (it may have
            # been enabled programmatically, invisible to spawn-context
            # children), the coordinator's span context so worker spans
            # stitch into the same trace, and the sidecar path the worker
            # spills its flight recorder to.
            "obs": obs.enabled(),
            "trace": self._trace_ctx,
            "obs_sidecar": sidecar,
        }

    def _spawn(
        self, tasks: "list[CellTask]", item: _Pending, env: dict
    ) -> _Live:
        batch = [tasks[i] for i in item.idxs]
        sidecar = None
        if self._obs_dir is not None:
            sidecar = os.path.join(
                self._obs_dir, f"cell{item.idxs[0]}-a{item.attempt}.jsonl"
            )
        recv_conn, send_conn = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=worker_main,
            args=(send_conn, self._spec(batch, item.attempt, env, sidecar)),
            daemon=True,
            name=f"repro-sweep-{item.idxs[0]}-a{item.attempt}",
        )
        try:
            proc.start()
        except BaseException:
            # Spawn failure (fork EAGAIN, fd exhaustion): leak no pipe
            # ends; the caller decides whether to degrade isolation.
            recv_conn.close()
            send_conn.close()
            raise
        send_conn.close()  # parent's copy; worker holds the only writer
        now = time.monotonic()
        timeout_s = self.policy.timeout_s
        if timeout_s is not None:
            # One attempt now covers len(batch) cells' worth of work.
            timeout_s = timeout_s * len(batch)
        live = _Live(
            idxs=item.idxs,
            attempt=item.attempt,
            proc=proc,
            conn=recv_conn,
            started=now,
            deadline=(now + timeout_s) if timeout_s is not None else None,
            last_beat=now,
            sidecar=sidecar,
        )
        self._event(
            "spawned",
            pid=proc.pid,
            cell=batch[0].cell,
            cells=len(batch),
            attempt=item.attempt,
            run_kind=batch[0].run_kind,
        )
        return live

    def _reap(self, live: _Live) -> None:
        """Close the pipe and join the process; SIGKILL stragglers."""
        try:
            live.conn.close()
        except OSError:
            pass
        live.proc.join(timeout=5.0)
        if live.proc.is_alive():  # pragma: no cover - defensive
            live.proc.kill()
            live.proc.join()

    def _kill(self, live: _Live) -> None:
        """SIGKILL a worker and reap it (no zombie PIDs)."""
        live.proc.kill()
        self._reap(live)

    # -- telemetry-spine merging ---------------------------------------
    def _merge_obs(self, live: _Live, payload: "dict | None") -> None:
        """Merge a worker's pipe-shipped telemetry into the coordinator.

        Metrics merge with ``order=idx`` (the serial iteration index), so
        gauges converge to the value the *serially last* cell would have
        left regardless of completion order; events keep their worker
        attribution.  The sidecar is redundant once the pipe delivered --
        drop it so the flight recorder only ever surfaces silent deaths.
        """
        if live.sidecar is not None:
            try:
                os.unlink(live.sidecar)
            except OSError:
                pass
        if not payload:
            return
        get_registry().merge_exported(payload.get("metrics"), order=live.idxs[-1])
        events = payload.get("events")
        if events:
            get_event_log().absorb(events)

    def _flight_recorder(self, live: _Live) -> tuple:
        """Recover a silently-dead worker's spilled events (best effort).

        Returns the tail of the sidecar (the attempt's last recorded
        moments) for attachment to the gap record; the full recovered
        stream is absorbed into the coordinator's event log.
        """
        if live.sidecar is None:
            return ()
        events = read_events(live.sidecar)
        try:
            os.unlink(live.sidecar)
        except OSError:
            pass
        if not events:
            return ()
        get_event_log().absorb(events)
        get_event_log().emit(
            "pool.flight_recovered",
            idx=live.idxs[0],
            attempt=live.attempt,
            pid=getattr(live.proc, "pid", None),
            events=len(events),
        )
        return tuple(events[-16:])

    # -- the supervisor loop -------------------------------------------
    def run(
        self,
        tasks: "list[CellTask]",
        on_result: "Callable[[CellTask, GuardOutcome], None] | None" = None,
    ) -> "list[GuardOutcome]":
        """Execute every task; outcomes are returned in task order."""
        env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}

        # Telemetry spine: a tempdir for worker flight-recorder sidecars
        # and the span context workers adopt.  If the caller is already
        # inside a span (a serve job, a traced sweep), propagate it; else
        # mint a fresh trace id so all workers of this run share one.
        if obs.enabled():
            self._obs_dir = tempfile.mkdtemp(prefix="repro-obs-")
            trace_id, span_id = get_event_log().current_context()
            self._trace_ctx = {
                "trace_id": trace_id or new_trace_id(),
                "span_id": span_id,
            }

        # Pack the traces the tasks share into one shared-memory segment
        # so workers map the parent's buffers instead of regenerating them
        # per attempt.  The parent is the sole owner: the segment is
        # unlinked in the finally below, which runs on completion, abort,
        # fail-fast and KeyboardInterrupt alike -- a SIGKILLed worker can
        # never leak a /dev/shm entry.
        self._shm_meta, shm_seg = shm_transport.export_traces(
            tasks, self.instructions
        )
        if shm_seg is not None:
            self._event(
                "shm_exported",
                name=self._shm_meta["name"],
                bytes=self._shm_meta["size"],
                traces=len(self._shm_meta["entries"]),
            )

        # Split first attempts evenly across the worker slots.
        batch = max(
            1, min(POOL_BATCH_MAX, math.ceil(len(tasks) / self.workers))
        )
        pending: "list[_Pending]" = [
            _Pending(idxs=tuple(range(i, min(i + batch, len(tasks)))), attempt=1)
            for i in range(0, len(tasks), batch)
        ]
        live: "list[_Live]" = []
        results: "dict[int, GuardOutcome]" = {}
        busy_s = 0.0
        started = time.monotonic()

        def finalise(idx: int, outcome: GuardOutcome) -> None:
            results[idx] = outcome
            if on_result is not None:
                on_result(tasks[idx], outcome)

        def retry_or_fail(
            idx: int, attempt: int, kind: str, message: str, tb: str,
            wall: float, flight: tuple = (),
        ) -> None:
            task = tasks[idx]
            if attempt <= self.policy.max_retries:
                delay = self.policy.backoff_s(attempt, task.cell)
                # Retries always run alone: one cell, one worker, the
                # classic per-cell timeout budget.
                pending.append(
                    _Pending(idxs=(idx,), attempt=attempt + 1,
                             not_before=time.monotonic() + delay)
                )
                self._event(
                    "requeued",
                    cell=task.cell,
                    attempt=attempt,
                    failure_kind=kind,
                    run_kind=task.run_kind,
                    backoff_s=delay,
                )
                return
            failure = RunFailure(
                run_kind=task.run_kind,
                config=task.config,
                workload=task.workload,
                kind=kind,
                attempts=attempt,
                message=message,
                traceback=tb,
                wall_s=wall,
                extra=tuple(task.extra),
                flight=flight,
            )
            finalise(idx, GuardOutcome(result=None, failure=failure,
                                       attempts=attempt))

        try:
            while pending or live:
                if self._abort.is_set():
                    raise PoolAborted(
                        f"pool aborted with {len(live)} live worker(s) and "
                        f"{len(pending)} queued attempt(s)"
                    )
                now = time.monotonic()

                # Fill free slots with eligible queued attempts (in queue
                # order, skipping cells still inside their backoff).
                while len(live) < self.workers:
                    slot = next(
                        (p for p in pending if p.not_before <= now), None
                    )
                    if slot is None:
                        break
                    pending.remove(slot)
                    live.append(self._spawn(tasks, slot, env))

                if not live:
                    # Everything queued is backing off; sleep to the
                    # earliest eligibility.
                    wake = min(p.not_before for p in pending)
                    time.sleep(
                        min(max(wake - time.monotonic(), 0.0), _MAX_WAIT_S)
                    )
                    continue

                # Wait for worker traffic, but wake early for the nearest
                # deadline / heartbeat check / backoff expiry.
                horizons = [_MAX_WAIT_S]
                for lv in live:
                    if lv.deadline is not None:
                        horizons.append(lv.deadline - now)
                    horizons.append(
                        lv.last_beat + self.heartbeat_timeout_s - now
                    )
                if len(live) < self.workers and pending:
                    horizons.append(min(p.not_before for p in pending) - now)
                timeout = max(min(horizons), _MIN_WAIT_S)
                ready = mp_connection.wait([lv.conn for lv in live], timeout)

                by_conn = {lv.conn: lv for lv in live}
                for conn in ready:
                    lv = by_conn[conn]
                    done = False
                    try:
                        while conn.poll():
                            msg = conn.recv()
                            if msg[0] == "hb":
                                lv.last_beat = time.monotonic()
                                continue
                            done = True
                            live.remove(lv)
                            busy_s += time.monotonic() - lv.started
                            self._reap(lv)
                            if msg[0] == "batch":
                                # ("batch", entries, wall, stats, obs):
                                # one terminal per-cell entry each, in
                                # task order within the batch.
                                _, entries, wall, stats = msg[:4]
                                self._merge_obs(
                                    lv, msg[4] if len(msg) > 4 else None
                                )
                                for idx, entry in zip(lv.idxs, entries):
                                    task = tasks[idx]
                                    if entry[0] == "ok":
                                        _, result, cell_wall = entry[:3]
                                        self._event(
                                            "completed",
                                            cell=task.cell,
                                            attempt=lv.attempt,
                                            run_kind=task.run_kind,
                                            wall_s=cell_wall,
                                        )
                                        finalise(
                                            idx,
                                            GuardOutcome(
                                                result=result,
                                                failure=None,
                                                attempts=lv.attempt,
                                                wall_s=cell_wall,
                                            ),
                                        )
                                    else:
                                        (_, kind, message, tb,
                                         cell_wall) = entry[:5]
                                        retry_or_fail(
                                            idx, lv.attempt, kind,
                                            message, tb, cell_wall,
                                        )
                                self._event(
                                    "batch_completed",
                                    cells=len(entries),
                                    attempt=lv.attempt,
                                    run_kind=tasks[lv.idxs[0]].run_kind,
                                    wall_s=wall,
                                    stats=stats,
                                )
                            else:  # ("fail", kind, message, tb, wall, obs)
                                _, kind, message, tb, wall = msg[:5]
                                self._merge_obs(
                                    lv, msg[5] if len(msg) > 5 else None
                                )
                                # A whole-attempt failure (the worker
                                # died before its per-cell loop) costs
                                # every cell of the batch this attempt.
                                for idx in lv.idxs:
                                    retry_or_fail(
                                        idx, lv.attempt, kind, message,
                                        tb, wall,
                                    )
                            break
                    except (EOFError, OSError):
                        # The worker died without a terminal message:
                        # nonzero exit, signal, kill -9, or a pipe torn
                        # mid-send.  Contain it as a crash of this attempt.
                        done = True
                        live.remove(lv)
                        busy_s += time.monotonic() - lv.started
                        self._reap(lv)
                        task = tasks[lv.idxs[0]]
                        detail = _describe_exit(lv.proc.exitcode)
                        self._event(
                            "crashed",
                            cell=task.cell,
                            cells=len(lv.idxs),
                            attempt=lv.attempt,
                            run_kind=task.run_kind,
                            exit=detail,
                        )
                        # A dead batched worker costs every batch cell
                        # this one attempt; each requeues alone.
                        flight = self._flight_recorder(lv)
                        wall = time.monotonic() - lv.started
                        for idx in lv.idxs:
                            retry_or_fail(
                                idx,
                                lv.attempt,
                                "crash",
                                f"worker died before reporting ({detail})",
                                "",
                                wall,
                                flight=flight,
                            )
                    if done:
                        continue

                # Enforce wall-clock budgets and heartbeat liveness on
                # whatever is still running.
                now = time.monotonic()
                for lv in list(live):
                    task = tasks[lv.idxs[0]]
                    if lv.deadline is not None and now >= lv.deadline:
                        live.remove(lv)
                        busy_s += now - lv.started
                        self._kill(lv)
                        self._event(
                            "killed",
                            cell=task.cell,
                            cells=len(lv.idxs),
                            attempt=lv.attempt,
                            run_kind=task.run_kind,
                            pid=lv.proc.pid,
                        )
                        flight = self._flight_recorder(lv)
                        budget = self.policy.timeout_s * len(lv.idxs)
                        for idx in lv.idxs:
                            retry_or_fail(
                                idx,
                                lv.attempt,
                                "timeout",
                                f"GuardTimeout: run exceeded wall-clock "
                                f"timeout of {budget:g}s (worker SIGKILLed)",
                                "",
                                now - lv.started,
                                flight=flight,
                            )
                    elif now - lv.last_beat > self.heartbeat_timeout_s:
                        live.remove(lv)
                        busy_s += now - lv.started
                        self._kill(lv)
                        self._event(
                            "heartbeat_lost",
                            cell=task.cell,
                            cells=len(lv.idxs),
                            attempt=lv.attempt,
                            run_kind=task.run_kind,
                            silent_s=now - lv.last_beat,
                        )
                        flight = self._flight_recorder(lv)
                        for idx in lv.idxs:
                            retry_or_fail(
                                idx,
                                lv.attempt,
                                "crash",
                                f"worker lost heartbeat for "
                                f"{now - lv.last_beat:.1f}s (SIGKILLed)",
                                "",
                                now - lv.started,
                                flight=flight,
                            )
        finally:
            # Abort path (fail-fast, KeyboardInterrupt, caller error):
            # leave zero live children behind, whatever happened.
            for lv in live:
                self._kill(lv)
            if shm_seg is not None:
                shm_transport.release(shm_seg)
                self._shm_meta = None
            if self._obs_dir is not None:
                shutil.rmtree(self._obs_dir, ignore_errors=True)
                self._obs_dir = None
                self._trace_ctx = None
            elapsed = max(time.monotonic() - started, 1e-9)
            self._event(
                "utilization",
                value=min(busy_s / (elapsed * self.workers), 1.0),
                busy_s=busy_s,
                elapsed_s=elapsed,
                workers=self.workers,
            )

        return [results[i] for i in range(len(tasks))]
