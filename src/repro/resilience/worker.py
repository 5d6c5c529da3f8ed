"""Worker-process entrypoint for the process-isolated sweep executor.

One worker process executes exactly **one attempt of one batch of sweep
cells** (a single cell is a batch of one) and exits.  All policy --
timeouts, retries, backoff -- lives in the parent's supervisor
(:mod:`repro.resilience.pool`); keeping the worker
single-attempt means a SIGKILL from the supervisor can never strand
partial retry state, and a hard crash (segfault, OOM kill, injected
``die`` fault) costs one attempt, not a pool.

Protocol (over a dedicated :func:`multiprocessing.Pipe` connection, so a
killed worker can never poison a lock shared with its siblings):

* ``("hb",)`` -- heartbeat, sent every ``spec["heartbeat_s"]`` seconds
  from a daemon thread; the supervisor SIGKILLs workers whose heartbeats
  stop (a wedged-but-alive process);
* ``("batch", entries, wall_s, stats, obs)`` -- the attempt over
  ``spec["cells"]`` finished; ``entries`` holds one terminal per-cell
  tuple each in cell order: ``("ok", result, wall_s)`` for a cell that
  passed the end-of-run self-checks (``result`` is the pickled run
  result), or ``("fail", kind, message, traceback, wall_s)`` for one
  that raised (``kind`` is ``corrupt`` for self-check rejections, else
  ``crash``); ``stats`` holds the engine aggregates (cells, vectorized,
  instructions, cycles, skipped_cycles, wall_s) the coordinator's batch
  telemetry consumes;
* ``("fail", kind, message, traceback, wall_s, obs)`` -- the attempt
  raised outside the per-cell loop; it costs every cell of the batch
  one attempt.  Timeouts never originate here: the supervisor kills
  overrunners.

The trailing ``obs`` element is the worker's telemetry freight: ``None``
while observability is off (zero overhead), else a dict carrying the
worker's structured-event export and its metrics-registry delta since
worker start (:meth:`~repro.obs.metrics.MetricsRegistry.export_state`
with ``since=``, so state inherited over ``fork`` is never re-shipped).
The supervisor merges both into the coordinator's registry/event log.
Because a SIGKILL can land at any instant, the worker *also* appends
every event to a sidecar JSONL file named in the spec as it happens --
the flight recorder the supervisor reads back when the pipe dies.

Span propagation: the spec's ``trace`` entry carries the coordinator's
``(trace_id, span_id)``; the worker adopts it so its ``worker.attempt``
and ``engine.run`` spans stitch into the same distributed trace.

Determinism: the worker re-applies the parent's ``REPRO_*`` environment
and fault plan from the task spec (so programmatically installed
injectors and spawn-context workers behave identically to the parent),
then *primes* the injector with the attempt number it was handed --
fault draws key on (cell, attempt), never on PID, so a faulted parallel
sweep replays the serial schedule exactly.
"""

from __future__ import annotations

import contextlib
import threading
import time
import traceback as tb_module

from repro.resilience import faults
from repro.resilience.errors import CorruptResult
from repro.resilience.selfcheck import validate_result


def execute_batch(cells: "list[dict]", instructions: int, warmup: int):
    """Run one worker attempt's cells through the runner's batch driver.

    Returns per-cell outcome objects (``result``/``error``) in cell
    order, computed by :func:`repro.experiments.runner.simulate_cells`
    -- the same call an in-process sweep makes, so a cell computed in a
    worker process is bit-identical to one computed in-process.  A cell
    whose configuration fails to resolve gets its error recorded without
    taking the batch down -- names are validated coordinator-side, so
    this is a belt-and-braces path.
    """
    from repro.core.configs import cpu_config, gpu_config
    from repro.core.simulate import CpuCellOutcome
    from repro.experiments.runner import simulate_cells

    kind = cells[0]["run_kind"]
    lookup = gpu_config if kind == "gpu" else cpu_config
    outcomes: "list" = [None] * len(cells)
    batch, slots = [], []
    for i, cell in enumerate(cells):
        try:
            design = lookup(cell["config"])
        except Exception as exc:
            outcomes[i] = CpuCellOutcome(result=None, error=exc)
            continue
        batch.append((design, cell["workload"], tuple(cell["extra"])))
        slots.append(i)
    if batch:
        ready = simulate_cells(kind, batch, instructions, warmup)
        for i, out in zip(slots, ready):
            outcomes[i] = out
    return outcomes


def _batch_stats(kind: str, outcomes, wall_s: float) -> dict:
    """Aggregate engine stats for one batch (``pool.batch_completed``)."""
    instructions = cycles = skipped = vectorized = 0
    for out in outcomes:
        vectorized += int(getattr(out, "vectorized", False))
        skipped += int(getattr(out, "skipped_cycles", 0))
        result = out.result
        if result is None:
            continue
        if kind == "gpu":
            instructions += result.gpu.cu_result.instructions
            cycles += result.gpu.cu_result.cycles
        else:
            instructions += result.core.committed
            cycles += result.core.cycles
    return {
        "cells": len(outcomes),
        "vectorized": vectorized,
        "instructions": instructions,
        "cycles": cycles,
        "skipped_cycles": skipped,
        "wall_s": wall_s,
    }


def _start_heartbeat(conn, lock: threading.Lock, interval_s: float):
    """Send ``("hb",)`` every ``interval_s`` until stopped or the pipe dies."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval_s):
            with lock:
                try:
                    conn.send(("hb",))
                except OSError:  # parent gone; nothing left to report to
                    return

    thread = threading.Thread(target=beat, daemon=True, name="repro-worker-hb")
    thread.start()
    return stop


def worker_main(conn, spec: dict) -> None:
    """Process entrypoint: run one attempt of one cell batch, report, exit."""
    import os

    # Propagate the parent's sweep-shaping environment (REPRO_FAULTS*,
    # REPRO_OBS, sizing overrides).  Under a fork context this is a no-op;
    # under spawn it makes the worker's env-gated behaviour explicit
    # rather than dependent on inheritance.
    os.environ.update(spec.get("env", {}))

    # Map the parent's shared-memory trace segment (if exported) and seed
    # the process-local trace cache, so the simulators below reuse the
    # parent's buffers instead of regenerating the workload.  Best-effort:
    # a failed attach (segment already gone in a drain race) just means
    # regeneration -- slower, bit-identical.
    shm_meta = spec.get("shm_traces")
    if shm_meta is not None:
        from repro.resilience import shm as shm_transport

        shm_transport.attach_traces(shm_meta)

    # Reconstruct fault state from the spec, never from inherited process
    # state; each cell below draws for exactly the attempt the supervisor
    # assigned.
    faults.reset()
    plan = spec.get("fault_plan")
    injector = (
        faults.install(faults.FaultInjector(faults.FaultPlan.from_dict(plan)))
        if plan is not None
        else faults.active()
    )

    # Observability: the spec says explicitly whether the coordinator had
    # it on (the flag may have been set programmatically, which a spawn
    # context would not inherit).  When on, the worker keeps its own
    # event log (spilled per-event to the sidecar flight recorder) and
    # snapshots the registry so only this attempt's delta ships back.
    from repro import obs
    from repro.obs.events import EventLog
    from repro.obs.metrics import get_registry

    if spec.get("obs"):
        obs.set_enabled(True)
    wlog = None
    base_state = None
    if obs.enabled():
        base_state = get_registry().export_state()
        wlog = EventLog(
            proc=f"worker-{os.getpid()}",
            spill_path=spec.get("obs_sidecar"),
            enabled=True,
        )

    send_lock = threading.Lock()
    stop_heartbeat = _start_heartbeat(
        conn, send_lock, float(spec.get("heartbeat_s", 0.5))
    )
    start = time.perf_counter()

    trace_ctx = spec.get("trace") or {}
    span_stack = contextlib.ExitStack()
    if wlog is not None:
        span_stack.enter_context(
            wlog.activate(trace_ctx.get("trace_id"), trace_ctx.get("span_id"))
        )

    cells = spec["cells"]
    try:
        # One engine batch, then each cell replayed through its own
        # injector draw + self-check so failures stay per cell (an
        # injected raise or a corrupt result costs exactly the cell it
        # hit).
        with span_stack:
            if wlog is not None:
                span_stack.enter_context(
                    wlog.span(
                        "worker.attempt",
                        cells=len(cells),
                        run_kind=spec["run_kind"],
                        attempt=spec["attempt"],
                    )
                )
            engine_start = time.perf_counter()
            engine_span = (
                wlog.span(
                    "engine.run", run_kind=spec["run_kind"], cells=len(cells)
                )
                if wlog is not None
                else contextlib.nullcontext()
            )
            with engine_span:
                outcomes = execute_batch(
                    cells, spec["instructions"], spec["warmup"]
                )
            engine_wall = time.perf_counter() - engine_start
            share = engine_wall / len(cells)
            entries = []
            for cell, out in zip(cells, outcomes):
                cell_start = time.perf_counter()
                cell_key = tuple(cell["key"])
                if injector is not None:
                    injector.prime(cell["run_kind"], cell_key, spec["attempt"])

                def replay(out=out):
                    if out.error is not None:
                        raise out.error
                    return out.result

                try:
                    if injector is not None:
                        result = injector.call(
                            cell["run_kind"], cell_key, replay
                        )
                    else:
                        result = replay()
                    validate_result(cell["run_kind"], result)
                except Exception as exc:
                    kind = (
                        "corrupt" if isinstance(exc, CorruptResult) else "crash"
                    )
                    entries.append((
                        "fail",
                        kind,
                        f"{type(exc).__name__}: {exc}",
                        tb_module.format_exc(),
                        share + time.perf_counter() - cell_start,
                    ))
                else:
                    entries.append((
                        "ok", result, share + time.perf_counter() - cell_start,
                    ))
        message = (
            "batch",
            entries,
            time.perf_counter() - start,
            _batch_stats(spec["run_kind"], outcomes, engine_wall),
            _obs_payload(wlog, base_state),
        )
    except BaseException as exc:
        kind = "corrupt" if isinstance(exc, CorruptResult) else "crash"
        message = (
            "fail",
            kind,
            f"{type(exc).__name__}: {exc}",
            tb_module.format_exc(),
            time.perf_counter() - start,
            _obs_payload(wlog, base_state),
        )
    stop_heartbeat.set()
    with send_lock:
        try:
            conn.send(message)
        except OSError:  # parent died first; exit quietly
            pass
    conn.close()


def _obs_payload(wlog, base_state) -> "dict | None":
    """The telemetry freight appended to a terminal message (or None)."""
    if wlog is None:
        return None
    from repro.obs.events import SCHEMA_VERSION
    from repro.obs.metrics import get_registry

    wlog.close()
    return {
        "schema": SCHEMA_VERSION,
        "events": wlog.events(),
        "metrics": get_registry().export_state(since=base_state),
    }
