"""`SimService`: the admission-controlled simulation job service.

Lifecycle
---------
::

    runner = SweepRunner(policy=..., checkpoint=..., resume=True)
    service = SimService(runner, ServiceConfig(workers=2, isolation="process"))
    service.start()
    job_id, admission = service.submit({"run_kind": "cpu",
                                        "config": "AdvHet", "workload": "lu"})
    ...
    service.poll(job_id)          # JobRecord: pending/running/served/...
    summary = service.shutdown()  # graceful drain; see below

Dispatch is pull-based: ``config.workers`` daemon dispatcher threads pop
admitted jobs in priority order and execute them through the *shared*
:class:`~repro.experiments.runner.SweepRunner` -- so served jobs land in
the same result caches, checkpoint, telemetry, and failure taxonomy as
batch sweeps; each served cell is durable in the checkpoint the moment
it commits.  Under ``isolation="process"`` each attempt runs in a
SIGKILL-supervised worker process (:mod:`repro.resilience.pool`); under
``"thread"`` in the in-process guard.

Robustness shapes
-----------------
* **Admission control / load shedding** -- the bounded queue rejects
  with a structured reason (``queue_full``, ``past_deadline``, ...)
  instead of buffering unbounded work; see :mod:`repro.serve.queue`.
* **Circuit breaking** -- consecutive crash/timeout failures of one
  (run_kind, config) open its breaker; further jobs for that key shed
  immediately with reason ``breaker_open`` (recorded as ``shed`` gaps in
  the failure taxonomy) until a half-open probe succeeds; see
  :mod:`repro.serve.breaker`.
* **Degraded mode** -- when *worker spawn itself* keeps failing (fork
  EAGAIN, fd exhaustion: ``OSError`` out of the pool,
  ``config.spawn_failure_threshold`` times consecutively), the service
  permanently falls back from process to thread isolation and says so
  (``serve.degraded`` counter, health flag).  Reduced isolation beats
  serving nothing.
* **Graceful drain** -- :meth:`request_shutdown` (wired to SIGTERM and
  SIGINT by the CLI) stops admissions and stops *starting* queued jobs;
  :meth:`shutdown` then waits up to ``drain_deadline_s`` for in-flight
  jobs, aborts still-running worker pools past the deadline
  (:meth:`~repro.experiments.runner.SweepRunner.abort_active_pools`),
  records every unfinished job as a ``shed`` gap, and writes a final
  health snapshot.  A re-run against the same checkpoint serves only
  the gaps.

Accounting invariant: every submitted job reaches exactly one terminal
state (``served`` / ``failed`` / ``shed`` / ``cancelled``), and every
non-served admitted job leaves a :class:`RunFailure` gap or an explicit
cancellation -- nothing is ever dropped silently.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from threading import Event, RLock, Thread
from typing import Callable

from repro import obs
from repro.experiments.runner import SweepRunner
from repro.obs.events import get_event_log
from repro.obs.export import metrics_snapshot_path, write_metrics_snapshot
from repro.resilience import diskio
from repro.resilience.errors import RunFailure
from repro.resilience.pool import PoolAborted
from repro.serve.breaker import BreakerPolicy, BreakerRegistry
from repro.serve.health import HealthSnapshot, write_health
from repro.serve.queue import Admission, Job, JobQueue
from repro.store.address import content_address

#: Run kinds a job may carry (the runner's cache/figure kinds).
RUN_KINDS = ("cpu", "gpu", "dvfs")

#: Terminal job states.
TERMINAL_STATES = ("served", "failed", "shed", "cancelled")


@dataclass
class ServiceConfig:
    """Shape of one :class:`SimService` instance."""

    #: Bounded queue capacity (admissions beyond it shed ``queue_full``).
    capacity: int = 64
    #: Concurrent dispatcher threads (= max in-flight jobs).
    workers: int = 1
    #: "thread" (in-process guard) or "process" (supervised workers).
    isolation: str = "thread"
    #: Graceful-drain budget for in-flight jobs at shutdown (seconds).
    drain_deadline_s: float = 10.0
    #: Circuit-breaker policy, shared by every (run_kind, config) key.
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: Health-file path (None = no health file).
    health_file: "str | None" = None
    #: Minimum seconds between health-file rewrites (state changes in
    #: between are coalesced; shutdown always forces a final write).
    health_interval_s: float = 0.5
    #: Dispatcher idle poll quantum (seconds).
    poll_s: float = 0.05
    #: Consecutive worker-spawn ``OSError``s before degrading to threads.
    spawn_failure_threshold: int = 3

    def __post_init__(self) -> None:
        if self.isolation not in ("thread", "process"):
            raise ValueError(
                f"unknown isolation {self.isolation!r} "
                f"(expected 'thread' or 'process')"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.spawn_failure_threshold < 1:
            raise ValueError("spawn_failure_threshold must be >= 1")


@dataclass
class JobRecord:
    """The service-side state of one admitted job."""

    job: Job
    status: str = "pending"  # pending/running + TERMINAL_STATES
    failure: "RunFailure | None" = None
    shed_reason: "str | None" = None
    detail: str = ""
    #: Headline measurement for a served job (time_s/energy_j/ed2).
    result: "dict | None" = None

    def to_dict(self) -> dict:
        return {
            "job_id": self.job.job_id,
            "run_kind": self.job.run_kind,
            "config": self.job.config,
            "workload": self.job.workload,
            "extra": list(self.job.extra),
            "priority": self.job.priority,
            "status": self.status,
            "shed_reason": self.shed_reason,
            "detail": self.detail,
            "result": self.result,
            "failure": self.failure.to_dict() if self.failure else None,
        }


class SimService:
    """Long-running, admission-controlled simulation job service."""

    def __init__(
        self,
        runner: "SweepRunner | None" = None,
        config: "ServiceConfig | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.runner = runner or SweepRunner()
        self.config = config or ServiceConfig()
        self._clock = clock
        self.queue = JobQueue(
            self.config.capacity, clock=clock, on_shed=self._on_queue_shed
        )
        self.breakers = BreakerRegistry(
            self.config.breaker,
            clock=clock,
            on_transition=self._on_breaker_transition,
        )
        self._lock = RLock()
        self._records: "dict[str, JobRecord]" = {}
        self._counters = {
            "submitted": 0,
            "admitted": 0,
            "served": 0,
            "failed": 0,
            "shed": 0,
            "cancelled": 0,
            "drained": 0,
            "deduplicated": 0,
            "intake_malformed": 0,
            "intake_rotated": 0,
        }
        #: idempotency key -> job id, shared by every intake path (JSONL
        #: and HTTP), so a resubmitted request finds its original job.
        self._idempotency: "dict[str, str]" = {}
        self._in_flight = 0
        self._threads: "list[Thread]" = []
        self._stop = Event()
        self._started = False
        self._finished = False
        self._degraded = False
        self._spawn_failures = 0
        self._auto_ids = itertools.count(1)
        self._last_health_write = float("-inf")
        self._health_seq = 0
        self._last_metrics_write: "float | None" = None

    # -- small helpers -------------------------------------------------
    @property
    def telemetry(self):
        return self.runner.telemetry

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._counters[key] += n

    def _on_breaker_transition(self, key: tuple, old: str, new: str) -> None:
        label = {"open": "opened", "half_open": "half_open", "closed": "closed"}
        self.telemetry.record_serve(f"breaker.{label[new]}")
        get_event_log().emit(
            "breaker.transition", key=list(key), old=old, new=new,
        )
        self._write_health(force=True)

    def _shed_gap(self, job: Job, reason: str, detail: str) -> RunFailure:
        """Record one admitted-but-never-served job as a taxonomy gap."""
        failure = RunFailure(
            run_kind=job.run_kind,
            config=job.config,
            workload=job.workload,
            kind="shed",
            attempts=0,
            message=f"{reason}: {detail}" if detail else reason,
            extra=tuple(job.extra),
        )
        self.runner.record_gap(failure)
        return failure

    def _mark_shed(
        self, job: Job, reason: str, detail: str, *, gap: bool = True
    ) -> bool:
        """Move a job's record to ``shed``; False if already terminal.

        The claim check keeps the accounting invariant under races:
        shutdown closing out an abandoned in-flight job and its
        dispatcher finishing late must settle on exactly one terminal
        state and one counter increment.
        """
        with self._lock:
            record = self._records.get(job.job_id)
            if record is not None and record.status in TERMINAL_STATES:
                return False
            if record is not None:
                record.status = "shed"
                record.shed_reason = reason
                record.detail = detail
        failure = self._shed_gap(job, reason, detail) if gap else None
        if record is not None and failure is not None:
            with self._lock:
                record.failure = failure
        self._count("shed")
        self.telemetry.record_shed(reason)
        self._write_health()
        return True

    def _on_queue_shed(self, job: Job, reason: str, detail: str) -> None:
        """Jobs the queue discarded after admission (pop-time decisions)."""
        if reason == "cancelled":
            # Already accounted at cancel() time; the queue is merely
            # confirming the discard.
            return
        self._mark_shed(job, reason, detail)

    # -- submission-side API -------------------------------------------
    def submit(self, job: "Job | dict") -> "tuple[str, Admission]":
        """Admit one job; returns (job_id, admission decision).

        Rejections are synchronous and structured (the caller learns the
        reason immediately); admitted jobs get a poll-able
        :class:`JobRecord`.  Raises ``ValueError`` for a malformed job
        (unknown run kind) -- that is a caller bug, not load.
        """
        if isinstance(job, dict):
            job = self.job_from_spec(job)
        if job.run_kind not in RUN_KINDS:
            raise ValueError(
                f"unknown run kind {job.run_kind!r} (expected {RUN_KINDS})"
            )
        self._count("submitted")
        self.telemetry.record_serve("submitted")
        # Register the record *before* offering so a dispatcher that pops
        # the job immediately always finds it; roll back on rejection
        # (restoring any finished record a re-submission replaced).
        with self._lock:
            previous = self._records.get(job.job_id)
            if previous is not None and previous.status not in TERMINAL_STATES:
                admission = Admission.shed(
                    "duplicate_id",
                    f"job id {job.job_id!r} is still pending or running",
                )
            else:
                self._records[job.job_id] = JobRecord(job=job)
                admission = None
        if admission is None:
            admission = self.queue.offer(job)
        if not admission.admitted:
            with self._lock:
                if (
                    self._records.get(job.job_id) is not None
                    and self._records[job.job_id].job is job
                ):
                    if previous is not None:
                        self._records[job.job_id] = previous
                    else:
                        self._records.pop(job.job_id, None)
            self._count("shed")
            self.telemetry.record_shed(admission.reason)
            self._write_health()
            return job.job_id, admission
        self._count("admitted")
        self.telemetry.record_serve("admitted")
        self.telemetry.record_queue_depth(self.queue.depth)
        self._write_health()
        return job.job_id, admission

    @staticmethod
    def idempotency_key_for(spec: dict) -> str:
        """The content-addressed idempotency key of one job spec.

        A pure function of the request's meaningful fields (explicit id,
        cell coordinates, priority, deadline), via the same
        :func:`~repro.store.address.content_address` scheme the result
        store keys with -- so identical requests collide across
        processes, reconnects, and intake paths, and different requests
        never do.  Auto-assigned ids are *not* part of the key (the
        caller never saw them), which is why the key is computed from
        the spec, not the built :class:`Job`.
        """
        return content_address("serve.job", {
            "id": spec.get("id"),
            "run_kind": str(spec.get("run_kind", spec.get("kind", "cpu"))),
            "config": spec.get("config"),
            "workload": spec.get("workload"),
            "extra": list(spec.get("extra", ())),
            "priority": int(spec.get("priority", 10)),
            "deadline_s": spec.get("deadline_s"),
        })

    def submit_idempotent(
        self,
        spec: "Job | dict",
        *,
        idempotency_key: "str | None" = None,
        admission_breaker: bool = False,
    ) -> "tuple[str, Admission, str]":
        """Admit one job with duplicate suppression and store read-through.

        Returns ``(job_id, admission, outcome)`` where ``outcome`` is

        * ``"deduplicated"`` -- the idempotency key already maps to a
          live or served job; its original id is returned and nothing
          is enqueued (re-POSTing after a reconnect cannot double-run);
        * ``"cached"`` -- the result store / memo cache already holds
          this cell; the job is recorded as served immediately, without
          ever occupying a queue slot or a worker;
        * ``"admitted"`` / ``"shed"`` -- the normal :meth:`submit`
          decision.

        A key mapped to a *failed* terminal job (failed / shed /
        cancelled) is dropped and the job resubmitted fresh: idempotency
        protects against duplicate execution, not against retrying a
        failure.  With ``admission_breaker=True`` a hard-open
        (run_kind, config) breaker sheds at admission time (reason
        ``breaker_open``, ``retry_after_s`` = the probe ETA) instead of
        after queueing -- the HTTP tier's backpressure shape.
        """
        if isinstance(spec, dict):
            key = idempotency_key or self.idempotency_key_for(spec)
            job = self.job_from_spec(spec)
        else:
            key = idempotency_key
            job = spec
        if job.run_kind not in RUN_KINDS:
            raise ValueError(
                f"unknown run kind {job.run_kind!r} (expected {RUN_KINDS})"
            )
        if key is not None:
            with self._lock:
                existing = self._idempotency.get(key)
                record = (
                    self._records.get(existing)
                    if existing is not None else None
                )
                if record is not None and record.status in (
                    "pending", "running", "served"
                ):
                    self._counters["deduplicated"] += 1
                else:
                    # Stale mapping (failure terminal, or record gone):
                    # forget it and admit the resubmission fresh.
                    record = None
                    self._idempotency.pop(key, None)
            if record is not None:
                self.telemetry.record_serve("deduplicated")
                return existing, Admission.ok(), "deduplicated"
        if admission_breaker:
            breaker = self.breakers.breaker_for(job.run_kind, job.config)
            eta = breaker.probe_eta_s()
            if eta is not None:
                self._count("submitted")
                self.telemetry.record_serve("submitted")
                self._count("shed")
                self.telemetry.record_shed("breaker_open")
                self._write_health()
                return job.job_id, Admission.shed(
                    "breaker_open", breaker.reject_detail(),
                    retry_after_s=eta,
                ), "shed"
        cell = (job.config, job.workload, *job.extra)
        cached = self.runner.cached_result(job.run_kind, cell)
        if cached is not None:
            with self._lock:
                previous = self._records.get(job.job_id)
                live = (
                    previous is not None
                    and previous.status not in TERMINAL_STATES
                )
                if not live:
                    self._records[job.job_id] = JobRecord(
                        job=job,
                        status="served",
                        result=self._result_summary(cached),
                        detail="served from result cache",
                    )
                    if key is not None:
                        self._idempotency[key] = job.job_id
            if live:
                # Same duplicate-id contract as submit(), without
                # touching the queue.
                job_id, admission = self.submit(job)
                return job_id, admission, "shed"
            self._count("submitted")
            self.telemetry.record_serve("submitted")
            self._count("served")
            self.telemetry.record_serve("served")
            self.telemetry.record_serve("served_from_cache")
            # The same cache-hit accounting run_cell would have done had
            # the job been dispatched -- resume flows assert on it.
            self.runner.record_cache_hit(job.run_kind, cell, cached)
            self._write_health()
            return job.job_id, Admission.ok(), "cached"
        job_id, admission = self.submit(job)
        if admission.admitted and key is not None:
            with self._lock:
                self._idempotency[key] = job_id
        return job_id, admission, (
            "admitted" if admission.admitted else "shed"
        )

    def job_from_spec(self, spec: dict) -> Job:
        """Build a :class:`Job` from a JSONL-style dict (auto id)."""
        job_id = str(spec.get("id") or f"job-{next(self._auto_ids)}")
        return Job(
            job_id=job_id,
            run_kind=str(spec.get("run_kind", spec.get("kind", "cpu"))),
            config=str(spec["config"]),
            workload=str(spec["workload"]),
            extra=tuple(spec.get("extra", ())),
            priority=int(spec.get("priority", 10)),
            deadline_s=(
                float(spec["deadline_s"])
                if spec.get("deadline_s") is not None
                else None
            ),
        )

    def poll(self, job_id: str) -> "JobRecord | None":
        with self._lock:
            return self._records.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; False once it started (or unknown)."""
        if not self.queue.cancel(job_id):
            return False
        with self._lock:
            record = self._records.get(job_id)
            if record is not None:
                record.status = "cancelled"
                record.shed_reason = "cancelled"
        self._count("cancelled")
        self.telemetry.record_serve("cancelled")
        self._write_health()
        return True

    # -- JSONL intake --------------------------------------------------
    def intake(
        self,
        path: str,
        *,
        follow: bool = False,
        poll_s: float = 0.2,
        on_line: "Callable[[str, Admission | None], None] | None" = None,
    ) -> "tuple[int, int]":
        """Submit jobs from a JSONL file; returns (submitted, malformed).

        Each line is one job spec (see :meth:`job_from_spec`; blank lines
        and ``#`` comments are skipped).  With ``follow=True`` the file
        is tailed -- new complete lines are submitted as they appear --
        until :meth:`request_shutdown`.  Malformed lines are counted
        (``serve.intake_malformed``) and reported through ``on_line``,
        never silently swallowed and never fatal to the intake loop.

        The tail survives log rotation: when the file's inode changes
        (rotated and recreated) or its size shrinks below the read
        position (truncated in place), the loop reopens from offset 0
        instead of silently stalling at a seek position past EOF.  Each
        such event is counted (``serve.intake_rotated``) and reported
        through ``on_line``.
        """
        pos = 0
        inode: "int | None" = None
        submitted = malformed = 0
        while True:
            try:
                with open(path, "r") as handle:
                    stat = os.fstat(handle.fileno())
                    if inode is not None and (
                        stat.st_ino != inode or stat.st_size < pos
                    ):
                        # Rotation (new inode) or truncation (shrunk):
                        # the old offset points into a file that no
                        # longer exists; start over at the top.
                        pos = 0
                        self._count("intake_rotated")
                        self.telemetry.record_serve("intake_rotated")
                        if on_line is not None:
                            on_line(
                                "jobs file rotated or truncated; "
                                "re-reading from offset 0",
                                None,
                            )
                    inode = stat.st_ino
                    handle.seek(pos)
                    chunk = handle.read()
            except OSError:
                chunk = ""  # not-yet-created file under --follow
            buffered = 0
            if chunk:
                lines = chunk.splitlines(keepends=True)
                if follow and lines and not lines[-1].endswith("\n"):
                    buffered = len(lines[-1])  # partial tail; re-read later
                    lines = lines[:-1]
                pos += len(chunk) - buffered
                for raw in lines:
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    try:
                        spec = json.loads(line)
                        job = self.job_from_spec(spec)
                        if job.run_kind not in RUN_KINDS:
                            raise ValueError(
                                f"unknown run kind {job.run_kind!r}"
                            )
                    except (ValueError, KeyError, TypeError) as exc:
                        malformed += 1
                        self._count("intake_malformed")
                        self.telemetry.record_serve("intake_malformed")
                        if on_line is not None:
                            on_line(f"malformed job line skipped: {exc}", None)
                        continue
                    _, admission, outcome = self.submit_idempotent(
                        job, idempotency_key=self.idempotency_key_for(spec)
                    )
                    submitted += 1
                    if on_line is not None:
                        line = job.describe()
                        if outcome == "deduplicated":
                            line += " (deduplicated)"
                        on_line(line, admission)
            if not follow or self._stop.is_set():
                return submitted, malformed
            self._stop.wait(poll_s)

    # -- dispatch ------------------------------------------------------
    def start(self) -> "SimService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        if self.config.health_file is not None:
            # Writer-startup hygiene: a predecessor that died mid-write
            # leaves *.tmp.<pid> droppings next to the health/metrics
            # files.
            diskio.sweep_orphan_temps(
                Path(self.config.health_file).parent, site="health"
            )
        for i in range(self.config.workers):
            thread = Thread(
                target=self._dispatch_loop,
                name=f"repro-serve-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._write_health(force=True)
        return self

    def _dispatch_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout=self.config.poll_s)
            if job is None:
                if self._stop.is_set():
                    return
                continue
            with self._lock:
                record = self._records.get(job.job_id)
                if record is None:  # pragma: no cover - defensive
                    record = self._records[job.job_id] = JobRecord(job=job)
                record.status = "running"
                self._in_flight += 1
            try:
                self._execute(job, record)
            finally:
                with self._lock:
                    self._in_flight -= 1
                self.telemetry.record_queue_depth(self.queue.depth)
                self._write_health()

    def _effective_isolation(self) -> str:
        if self.config.isolation == "process" and not self._degraded:
            return "process"
        return "thread"

    def _run_cell(self, job: Job):
        """One job through the runner, with spawn-failure degradation."""
        isolation = self._effective_isolation()
        if isolation == "process":
            try:
                result = self.runner.run_cell(
                    job.run_kind, job.config, job.workload, job.extra,
                    isolation="process",
                )
                with self._lock:
                    self._spawn_failures = 0
                return result
            except PoolAborted:
                raise
            except OSError as exc:
                # Worker spawn (or its pipe plumbing) failed -- the host
                # is refusing processes, not the simulation refusing to
                # run.  Fall back to thread isolation for this job, and
                # permanently once it keeps happening.  The counter and
                # the degradation flip are read-modify-write from every
                # dispatcher thread, so they stay under the service lock.
                with self._lock:
                    self._spawn_failures += 1
                    degrade = (
                        not self._degraded
                        and self._spawn_failures
                        >= self.config.spawn_failure_threshold
                    )
                    if degrade:
                        self._degraded = True
                if degrade:
                    self.telemetry.record_serve("degraded")
                    self._write_health(force=True)
                self.telemetry.record_serve("spawn_failure")
                self.runner.telemetry.record_pool("spawn_failed")
                _ = exc
        return self.runner.run_cell(
            job.run_kind, job.config, job.workload, job.extra,
            isolation="thread",
        )

    @staticmethod
    def _result_summary(result) -> dict:
        return {
            "time_s": result.time_s,
            "energy_j": result.energy_j,
            "ed2": result.ed2,
        }

    def _execute(self, job: Job, record: JobRecord) -> None:
        # The job span opens on the dispatcher thread, so the span
        # context it pushes is exactly what the worker pool captures and
        # propagates into worker processes: one trace_id from job
        # admission down to the engine run.
        with get_event_log().span(
            "serve.job",
            job_id=job.job_id,
            run_kind=job.run_kind,
            config=job.config,
            workload=job.workload,
        ):
            self._execute_inner(job, record)

    def _execute_inner(self, job: Job, record: JobRecord) -> None:
        breaker = self.breakers.breaker_for(job.run_kind, job.config)
        if not breaker.allow():
            self._mark_shed(job, "breaker_open", breaker.reject_detail())
            return
        try:
            result = self._run_cell(job)
        except PoolAborted:
            # Drain deadline: the supervisor killed this job's workers.
            breaker.record_failure("shed")  # releases a claimed probe
            if self._mark_shed(
                job, "draining",
                "in-flight workers aborted at the drain deadline",
            ):
                self._count("drained")
                self.telemetry.record_serve("drained")
            return
        except Exception as exc:
            # The gap-tolerant runner path should never raise; contain a
            # surprise (fail_fast policies, future refactors) as a
            # failed job rather than a dead dispatcher thread.
            breaker.record_failure("crash")
            failure = self.runner.failures.get(job.cell) or RunFailure(
                run_kind=job.run_kind,
                config=job.config,
                workload=job.workload,
                kind="crash",
                attempts=1,
                message=f"{type(exc).__name__}: {exc}",
                extra=tuple(job.extra),
            )
            with self._lock:
                if record.status in TERMINAL_STATES:
                    return  # shutdown already closed this job out
                record.status = "failed"
                record.failure = failure
                record.detail = failure.summary()
            self._count("failed")
            self.telemetry.record_serve("failed")
            return
        if result is not None:
            breaker.record_success()
            with self._lock:
                if record.status in TERMINAL_STATES:
                    # Shutdown reported this abandoned thread-isolation
                    # job as a drained gap; a late finish must not count
                    # the same job in a second terminal state.
                    return
                record.status = "served"
                record.result = self._result_summary(result)
            self._count("served")
            self.telemetry.record_serve("served")
            return
        failure = self.runner.failures.get(job.cell)
        kind = failure.kind if failure is not None else "crash"
        breaker.record_failure(kind)
        with self._lock:
            if record.status in TERMINAL_STATES:
                return  # shutdown already closed this job out
            record.status = "failed"
            record.failure = failure
            record.detail = failure.summary() if failure else "unrecorded gap"
        self._count("failed")
        self.telemetry.record_serve("failed")

    # -- idle / shutdown -----------------------------------------------
    def wait_idle(
        self, timeout: "float | None" = None, poll_s: float = 0.05
    ) -> bool:
        """Block until no job is pending or running (batch-mode helper).

        Returns False on timeout or if shutdown was requested first.
        """
        deadline = self._clock() + timeout if timeout is not None else None
        while not self._stop.is_set():
            with self._lock:
                active = any(
                    r.status not in TERMINAL_STATES
                    for r in self._records.values()
                )
            if not active:
                return True
            if deadline is not None and self._clock() >= deadline:
                return False
            time.sleep(poll_s)
        return False

    def request_shutdown(self) -> None:
        """Stop admissions and stop starting queued jobs (signal-safe)."""
        self._stop.set()
        self.queue.close()

    def shutdown(self, drain_deadline_s: "float | None" = None) -> dict:
        """Graceful drain; returns the final summary dict.

        Admissions stop; queued-but-unstarted jobs become ``shed`` gaps
        (reason ``draining``); in-flight jobs get ``drain_deadline_s``
        to finish, after which their worker pools are aborted (SIGKILL +
        reap) and they too become gaps.  A final health snapshot is
        written before returning; every served cell is already in the
        checkpoint, so a subsequent run against it serves exactly the
        gaps.
        """
        deadline_s = (
            drain_deadline_s
            if drain_deadline_s is not None
            else self.config.drain_deadline_s
        )
        self.request_shutdown()
        deadline = self._clock() + deadline_s
        for thread in self._threads:
            thread.join(max(deadline - self._clock(), 0.0))
        if any(t.is_alive() for t in self._threads):
            # Past the drain deadline: kill in-flight worker processes.
            # Their dispatchers observe PoolAborted and record the gaps.
            self.runner.abort_active_pools()
            for thread in self._threads:
                thread.join(2.0)
        # Queued leftovers (never started) are gaps too.
        for job in self.queue.drain_remaining():
            if self._mark_shed(
                job, "draining", "queued but never started before shutdown"
            ):
                self._count("drained")
                self.telemetry.record_serve("drained")
        # Thread-isolation stragglers cannot be killed from Python; their
        # records stay "running" -- report them as drained gaps so the
        # accounting closes (the daemon threads die with the process).
        with self._lock:
            stuck = [
                r.job for r in self._records.values()
                if r.status not in TERMINAL_STATES
            ]
        for job in stuck:
            if self._mark_shed(
                job, "draining",
                "in-flight past the drain deadline (thread isolation "
                "cannot be killed; worker abandoned)",
            ):
                self._count("drained")
                self.telemetry.record_serve("drained")
        self._finished = True
        self._write_health(force=True)
        return self.summary()

    # -- introspection -------------------------------------------------
    @property
    def counters(self) -> dict:
        with self._lock:
            return dict(self._counters)

    @property
    def degraded(self) -> bool:
        return self._degraded

    def gap_count(self) -> int:
        """Jobs that ended as gaps (failed or shed) -- drives exit code 3."""
        with self._lock:
            return self._counters["failed"] + self._counters["shed"]

    def records(self) -> "list[JobRecord]":
        with self._lock:
            return list(self._records.values())

    def health_snapshot(self) -> HealthSnapshot:
        with self._lock:
            counters = dict(self._counters)
            in_flight = self._in_flight
        depth = self.queue.depth
        draining = self._stop.is_set()
        metrics_age = None
        if self._last_metrics_write is not None:
            metrics_age = max(self._clock() - self._last_metrics_write, 0.0)
        return HealthSnapshot(
            seq=self._health_seq,
            metrics_age_s=metrics_age,
            alive=self._started and not self._finished,
            ready=(
                self._started
                and not draining
                and depth < self.config.capacity
            ),
            draining=draining,
            queue_depth=depth,
            queue_capacity=self.config.capacity,
            workers=self.config.workers,
            in_flight=in_flight,
            isolation=self._effective_isolation(),
            degraded=self._degraded,
            breakers=self.breakers.states(),
            breakers_open=self.breakers.open_count(),
            counters=counters,
            shed_reasons=self.telemetry.shed_counts(),
        )

    def _write_health(self, force: bool = False) -> None:
        if self.config.health_file is None:
            return
        now = self._clock()
        with self._lock:
            if (
                not force
                and now - self._last_health_write
                < self.config.health_interval_s
            ):
                return
            self._last_health_write = now
            self._health_seq += 1
            seq = self._health_seq
        # Periodic metrics snapshot for `repro top` / scrapers: written
        # with the same cadence (and atomic-replace discipline) as the
        # health file, in the same directory.  Best-effort -- a full
        # disk must never take down the service.
        if obs.enabled():
            try:
                write_metrics_snapshot(
                    metrics_snapshot_path(self.config.health_file), seq=seq
                )
                with self._lock:
                    self._last_metrics_write = self._clock()
            except OSError:
                pass
        try:
            write_health(self.config.health_file, self.health_snapshot())
        except OSError:
            # Same contract as the metrics snapshot: a full or faulty
            # disk costs one heartbeat, never the service.
            pass

    def summary(self) -> dict:
        """Machine-readable final report (the CLI's ``--json`` payload)."""
        return {
            "counters": self.counters,
            "degraded": self._degraded,
            "breakers": self.breakers.states(),
            "jobs": [r.to_dict() for r in self.records()],
            "telemetry": self.telemetry.summary(),
        }
