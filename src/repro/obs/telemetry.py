"""Sweep telemetry: per-run wall time, throughput, and cache accounting.

The :class:`repro.experiments.runner.SweepRunner` memoises every
(configuration, workload) simulation.  This module gives that cache and
the runs behind it a visible shape:

* every executed (non-cached) run becomes a :class:`RunRecord` with wall
  time and simulated-instructions-per-second;
* every lookup bumps ``sweep.<kind>.cache_hits`` / ``cache_misses``
  counters in the global metrics registry (no-ops while observability is
  off -- the telemetry object keeps its own authoritative plain-int
  counts either way);
* registered progress callbacks fire after each lookup so long sweeps can
  report live instead of going dark for minutes -- a callback that raises
  is counted (``sweep.progress_callback_errors``) and skipped, never
  allowed to abort the sweep mid-run;
* the resilience layer reports into the same object: retries
  (``sweep.<kind>.retries``), failed cells (``sweep.<kind>.failures`` plus
  a per-taxonomy-kind breakdown), and checkpoint activity
  (``sweep.checkpoint.<event>``);
* the process-isolated executor (:mod:`repro.resilience.pool`) reports
  its worker lifecycle here too: ``sweep.pool.spawned`` / ``killed`` /
  ``crashed`` / ``heartbeat_lost`` / ``requeued`` / ``completed``
  counters plus a ``sweep.pool.utilization`` gauge (busy worker-seconds
  over ``workers x elapsed``), and the thread guard's abandoned-thread
  leak is surfaced as the ``sweep.guard.zombie_threads`` gauge;
* the job service (:mod:`repro.serve`) reports its admission and
  lifecycle decisions: ``sweep.serve.submitted`` / ``admitted`` /
  ``served`` / ``failed`` / ``cancelled`` / ``drained`` / ``degraded``
  counters, structured load shedding per reason
  (``sweep.serve.shed.<reason>`` plus the ``sweep.serve.shed``
  aggregate), breaker transitions (``sweep.serve.breaker.<state>``),
  and a ``sweep.serve.queue_depth`` gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.metrics import MetricsRegistry, get_registry

#: Run kinds the SweepRunner distinguishes.
KINDS = ("cpu", "gpu", "dvfs")

#: Wall-time histogram buckets (seconds).
_WALL_BOUNDS = (0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0)

#: HTTP request latency buckets (seconds) -- an API tier lives three
#: orders of magnitude below simulation wall times.
_HTTP_LATENCY_BOUNDS = (0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 1.0, 5.0)


@dataclass(frozen=True)
class RunRecord:
    """One executed (not cache-served) simulation."""

    kind: str  # "cpu" | "gpu" | "dvfs"
    config: str
    workload: str
    wall_s: float
    instructions: int

    @property
    def ips(self) -> float:
        """Simulated instructions per wall-clock second."""
        return self.instructions / self.wall_s if self.wall_s > 0 else 0.0


class SweepTelemetry:
    """Collects run records and cache statistics for one SweepRunner."""

    def __init__(self, registry: "MetricsRegistry | None" = None):
        # NB: explicit None check -- an empty MetricsRegistry is falsy
        # (it defines __len__), so `registry or get_registry()` would
        # silently swap a fresh registry for the global one.
        if registry is None:
            registry = get_registry()
        self._scope = registry.child("sweep")
        self.records: "list[RunRecord]" = []
        self._hits = dict.fromkeys(KINDS, 0)
        self._misses = dict.fromkeys(KINDS, 0)
        self._retries = dict.fromkeys(KINDS, 0)
        self._failures = dict.fromkeys(KINDS, 0)
        self._failure_kinds: "dict[str, int]" = {}
        self._checkpoint: "dict[str, int]" = {}
        self._pool: "dict[str, int]" = {}
        self._serve: "dict[str, int]" = {}
        self._shed: "dict[str, int]" = {}
        self._fabric: "dict[str, int]" = {}
        self._store: "dict[str, int]" = {}
        self._http: "dict[str, int]" = {}
        self._batch: "dict[str, float]" = {}
        self.pool_utilization = 0.0
        self.zombie_threads = 0
        self.callback_errors = 0
        self._callbacks: "list[Callable[[dict], None]]" = []
        # Pull-model mirrors of the process-wide workload trace cache
        # (lazy import: workloads must not become an obs dependency).
        from repro.workloads.trace_cache import shared_cache

        for stat in ("hits", "misses", "evictions"):
            self._scope.probe(
                f"trace_cache.{stat}",
                lambda s=stat: getattr(shared_cache(), s),
            )
        self._scope.probe("trace_cache.entries", lambda: len(shared_cache()))
        # Same pull-model mirror for the shm trace transport (its plain
        # int counters live in repro.resilience.shm; reads stay lazy).
        from repro.resilience.shm import transport_stats

        for stat in sorted(transport_stats()):
            self._scope.probe(
                f"shm.{stat}",
                lambda s=stat: transport_stats()[s],
            )
        # And for the durable-I/O layer (writes, quarantines, orphan
        # sweeps): plain ints in repro.resilience.diskio.
        from repro.resilience.diskio import stats as diskio_stats

        for stat in sorted(diskio_stats()):
            self._scope.probe(
                f"diskio.{stat}",
                lambda s=stat: diskio_stats()[s],
            )

    def trace_cache_counts(self) -> "dict[str, int]":
        """Point-in-time stats of the shared workload trace cache."""
        from repro.workloads.trace_cache import shared_cache

        return shared_cache().stats()

    def shm_transport_counts(self) -> "dict[str, int]":
        """Point-in-time counters of the shm trace transport."""
        from repro.resilience.shm import transport_stats

        return transport_stats()

    # -- hooks ---------------------------------------------------------
    def on_progress(self, callback: "Callable[[dict], None]") -> None:
        """Register a callback fired (with an event dict) after each run."""
        self._callbacks.append(callback)

    def record_run(
        self,
        kind: str,
        config: str,
        workload: str,
        wall_s: float,
        instructions: int,
        cached: bool,
    ) -> None:
        """Account one SweepRunner lookup (``cached`` = served from memo)."""
        if kind not in self._hits:
            raise ValueError(f"unknown run kind {kind!r} (expected {KINDS})")
        scope = self._scope
        if cached:
            self._hits[kind] += 1
            scope.counter(f"{kind}.cache_hits").inc()
        else:
            self._misses[kind] += 1
            scope.counter(f"{kind}.cache_misses").inc()
            scope.counter(f"{kind}.runs").inc()
            # Cumulative simulated instructions: ``repro top`` derives
            # its live instr/s rate from successive snapshots of this.
            scope.counter(f"{kind}.instructions_total").inc(instructions)
            scope.gauge(f"{kind}.last_wall_s").set(wall_s)
            scope.histogram(f"{kind}.wall_s", bounds=_WALL_BOUNDS).observe(wall_s)
            self.records.append(
                RunRecord(kind, config, workload, wall_s, instructions)
            )
        event = {
            "kind": kind,
            "config": config,
            "workload": workload,
            "cached": cached,
            "wall_s": wall_s,
            "instructions": instructions,
            "completed_runs": len(self.records),
        }
        self._fire(event)

    def _fire(self, event: dict) -> None:
        """Invoke progress callbacks; a raising callback is counted and
        skipped so user code can never abort a sweep mid-run."""
        for callback in list(self._callbacks):
            try:
                callback(event)
            except Exception:
                self.callback_errors += 1
                self._scope.counter("progress_callback_errors").inc()

    def record_batch(
        self,
        kind: str,
        *,
        cells: int,
        vectorized: int,
        wall_s: float,
        instructions: int,
        cycles: int = 0,
        skipped_cycles: int = 0,
    ) -> None:
        """Account one batched-engine invocation.

        A batch is one :func:`~repro.experiments.runner.simulate_cells`
        call covering one or more sweep cells -- either one in-process
        run or one pool worker's cell batch.  Unlike lookups it fires
        no progress event, so a one-cell run notifies exactly once.
        ``vectorized`` counts the cells the lockstep engine
        produced (batch occupancy = vectorized / cells);
        ``skipped_cycles`` are the idle cycles the engines' event-driven
        skip jumped over (skip rate = skipped / (cycles + skipped)).
        ``repro top`` derives its engine row from these counters.
        """
        if kind not in self._hits:
            raise ValueError(f"unknown run kind {kind!r} (expected {KINDS})")
        b = self._batch
        for stat, value in (
            ("batches", 1),
            ("cells", cells),
            ("vectorized_cells", vectorized),
            ("instructions", instructions),
            ("engine_cycles", cycles),
            ("skipped_cycles", skipped_cycles),
        ):
            b[stat] = b.get(stat, 0) + value
            self._scope.counter(f"batch.{stat}").inc(value)
        b["wall_s"] = b.get("wall_s", 0.0) + wall_s
        scope = self._scope
        scope.gauge("batch.last_wall_s").set(wall_s)
        scope.gauge("batch.last_cells").set(cells)
        scope.gauge("batch.last_occupancy").set(
            vectorized / cells if cells else 0.0
        )
        scope.gauge("batch.last_ips").set(
            instructions / wall_s if wall_s > 0 else 0.0
        )

    def batch_counts(self) -> "dict[str, float]":
        """Cumulative batched-engine stats (batches/cells/vectorized_cells
        /instructions/engine_cycles/skipped_cycles/wall_s) so far."""
        return dict(self._batch)

    # -- resilience accounting -----------------------------------------
    def record_retry(self, kind: str, failure_kind: str = "crash") -> None:
        """Account one retry of a guarded run (before its backoff sleep)."""
        if kind not in self._retries:
            raise ValueError(f"unknown run kind {kind!r} (expected {KINDS})")
        self._retries[kind] += 1
        self._scope.counter(f"{kind}.retries").inc()
        self._fire({"kind": kind, "event": "retry", "failure_kind": failure_kind})

    def record_failure(self, failure) -> None:
        """Account one cell that exhausted its guard budget
        (``failure`` is a :class:`repro.resilience.errors.RunFailure`)."""
        if failure.run_kind not in self._failures:
            raise ValueError(
                f"unknown run kind {failure.run_kind!r} (expected {KINDS})"
            )
        self._failures[failure.run_kind] += 1
        self._failure_kinds[failure.kind] = (
            self._failure_kinds.get(failure.kind, 0) + 1
        )
        self._scope.counter(f"{failure.run_kind}.failures").inc()
        self._scope.counter(f"failures.{failure.kind}").inc()
        self._fire(
            {
                "kind": failure.run_kind,
                "event": "failure",
                "config": failure.config,
                "workload": failure.workload,
                "failure_kind": failure.kind,
                "attempts": failure.attempts,
            }
        )

    def record_pool(self, event: str, count: int = 1) -> None:
        """Account one worker-lifecycle event from the process pool
        (``spawned``/``completed``/``killed``/``crashed``/
        ``heartbeat_lost``/``requeued``)."""
        self._pool[event] = self._pool.get(event, 0) + count
        self._scope.counter(f"pool.{event}").inc(count)

    def record_pool_utilization(self, value: float) -> None:
        """Record the pool's aggregate worker utilization (0..1)."""
        self.pool_utilization = value
        self._scope.gauge("pool.utilization").set(value)

    def record_zombie_threads(self, count: int) -> None:
        """Record abandoned (unkillable) guard threads still running."""
        self.zombie_threads = count
        self._scope.gauge("guard.zombie_threads").set(count)

    def record_serve(self, event: str, count: int = 1) -> None:
        """Account one job-service lifecycle event (``submitted`` /
        ``admitted`` / ``served`` / ``failed`` / ``cancelled`` /
        ``drained`` / ``degraded`` / ``intake_malformed`` /
        ``breaker.opened`` / ``breaker.half_open`` / ``breaker.closed``)."""
        self._serve[event] = self._serve.get(event, 0) + count
        self._scope.counter(f"serve.{event}").inc(count)

    def record_shed(self, reason: str, count: int = 1) -> None:
        """Account one structurally shed job by its admission-control
        reason (``queue_full`` / ``past_deadline`` / ``breaker_open`` /
        ``draining`` / ``duplicate_id`` / ``cancelled``)."""
        self._shed[reason] = self._shed.get(reason, 0) + count
        self._serve["shed"] = self._serve.get("shed", 0) + count
        self._scope.counter("serve.shed").inc(count)
        self._scope.counter(f"serve.shed.{reason}").inc(count)

    def record_fabric(self, event: str, count: int = 1) -> None:
        """Account one distributed-fabric lifecycle event
        (``node_joined`` / ``node_died`` / ``assigned`` / ``completed``
        / ``failed`` / ``resubmitted`` / ``fenced`` / ``duplicate`` /
        ``task_timeout`` / ``heartbeat``)."""
        self._fabric[event] = self._fabric.get(event, 0) + count
        self._scope.counter(f"fabric.{event}").inc(count)

    def record_store(self, event: str, count: int = 1) -> None:
        """Account one durable result-store event (``hits`` / ``misses``
        / ``puts`` / ``errors``)."""
        self._store[event] = self._store.get(event, 0) + count
        self._scope.counter(f"store.{event}").inc(count)

    def record_http(self, event: str, count: int = 1) -> None:
        """Account one HTTP front-door event (``requests`` /
        ``status.<code>`` / ``accept_dropped`` / ``over_capacity`` /
        ``rate_limited`` / ``malformed`` / ``timeouts`` /
        ``disconnects`` / ``internal_error`` / ``write_dropped``)."""
        self._http[event] = self._http.get(event, 0) + count
        self._scope.counter(f"serve.http.{event}").inc(count)

    def record_http_latency(self, seconds: float) -> None:
        """Observe one request's wall time in the latency histogram
        (``sweep.serve.http.latency_s``; ``repro top`` derives p50/p99
        from its buckets)."""
        self._scope.histogram(
            "serve.http.latency_s", bounds=_HTTP_LATENCY_BOUNDS
        ).observe(seconds)

    def record_http_in_flight(self, count: int) -> None:
        """Record the number of HTTP requests currently being handled."""
        self._scope.gauge("serve.http.in_flight").set(count)

    def record_queue_depth(self, depth: int) -> None:
        """Record the service's current admitted-but-unstarted backlog."""
        self._scope.gauge("serve.queue_depth").set(depth)

    def record_checkpoint(self, event: str) -> None:
        """Account one checkpoint event: a cell ``save``d, a
        ``write_failed``, or a cell a resume served (``entries_loaded``)."""
        self._checkpoint[event] = self._checkpoint.get(event, 0) + 1
        self._scope.counter(f"checkpoint.{event}").inc()

    # -- aggregate views ----------------------------------------------
    def cache_counts(self) -> "dict[str, tuple[int, int]]":
        """Per kind: (cache_hits, cache_misses)."""
        return {k: (self._hits[k], self._misses[k]) for k in KINDS}

    def retry_counts(self) -> "dict[str, int]":
        """Per run kind: retries performed."""
        return dict(self._retries)

    def failure_counts(self) -> "dict[str, int]":
        """Per run kind: cells that exhausted their guard budget."""
        return dict(self._failures)

    def failure_kind_counts(self) -> "dict[str, int]":
        """Per taxonomy kind (timeout/config/workload/crash/corrupt)."""
        return dict(self._failure_kinds)

    def checkpoint_counts(self) -> "dict[str, int]":
        """Checkpoint events (save/write_failed/entries_loaded) so far."""
        return dict(self._checkpoint)

    def pool_counts(self) -> "dict[str, int]":
        """Worker-lifecycle events (spawned/killed/crashed/...) so far."""
        return dict(self._pool)

    def serve_counts(self) -> "dict[str, int]":
        """Job-service lifecycle events (submitted/served/shed/...) so far."""
        return dict(self._serve)

    def shed_counts(self) -> "dict[str, int]":
        """Shed jobs per structured admission-control reason."""
        return dict(self._shed)

    def fabric_counts(self) -> "dict[str, int]":
        """Distributed-fabric lifecycle events so far."""
        return dict(self._fabric)

    def store_counts(self) -> "dict[str, int]":
        """Durable result-store events (hits/misses/puts/errors) so far."""
        return dict(self._store)

    def http_counts(self) -> "dict[str, int]":
        """HTTP front-door events (requests/status.<code>/...) so far."""
        return dict(self._http)

    @property
    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    @property
    def total_instructions(self) -> int:
        return sum(r.instructions for r in self.records)

    @property
    def mean_ips(self) -> float:
        wall = self.total_wall_s
        return self.total_instructions / wall if wall > 0 else 0.0

    def summary(self) -> dict:
        """Machine-readable rollup of the sweep so far."""
        return {
            "runs": len(self.records),
            "wall_s": round(self.total_wall_s, 3),
            "instructions": self.total_instructions,
            "instructions_per_s": round(self.mean_ips, 1),
            "cache": {
                kind: {"hits": h, "misses": m}
                for kind, (h, m) in self.cache_counts().items()
            },
            "retries": dict(self._retries),
            "failures": dict(self._failures),
            "failure_kinds": dict(self._failure_kinds),
            "checkpoint": dict(self._checkpoint),
            "pool": dict(self._pool),
            "serve": dict(self._serve),
            "shed_reasons": dict(self._shed),
            "fabric": dict(self._fabric),
            "store": dict(self._store),
            "http": dict(self._http),
            "batch": dict(self._batch),
            "pool_utilization": round(self.pool_utilization, 4),
            "zombie_threads": self.zombie_threads,
            "callback_errors": self.callback_errors,
        }

    def cache_summary(self) -> str:
        """One-line human-readable cache + throughput summary."""
        parts = [
            f"{kind} {self._hits[kind]}h/{self._misses[kind]}m"
            for kind in KINDS
            if self._hits[kind] or self._misses[kind]
        ]
        cache = " ".join(parts) if parts else "empty"
        line = (
            f"sweep cache: {cache} | {len(self.records)} runs, "
            f"{self.total_wall_s:.1f}s wall, {self.mean_ips / 1e3:.1f}k instr/s"
        )
        retries = sum(self._retries.values())
        failures = sum(self._failures.values())
        if retries or failures:
            line += f" | {retries} retries, {failures} failed cells"
        return line
