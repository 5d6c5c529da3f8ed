"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show available exhibits, CPU/GPU configurations, apps, and kernels.
``exhibit NAME [NAME...]``
    Regenerate paper exhibits (e.g. ``table1``, ``figure7``) and print
    their tables plus paper-vs-measured comparisons.  Each exhibit is
    followed by a one-line sweep-cache/telemetry summary.  Exit status:
    0 = every cell ran, 3 = failed cells (their table goes to stderr).
``run CONFIG WORKLOAD [--json]``
    Run one configuration on one workload (CPU app or GPU kernel) and
    print the measurement; ``--json`` emits a machine-readable record.
``stats CONFIG WORKLOAD [--json]``
    Run one pair with observability enabled and dump the structured
    counter tree (DL1 fast-way hit rate, ALU steering split, stall
    breakdown, ...).
``trace CONFIG WORKLOAD --out FILE [--capacity N]``
    Run one pair with pipeline tracing enabled and write a Chrome
    trace-event JSON file (open in ``chrome://tracing`` or Perfetto).
``sweep CONFIGS... [--gpu] [--checkpoint PATH] [--resume] [--store DIR]
[--timeout S] [--max-retries N] [--fail-fast] [--workers N]
[--isolation {thread,process}] [--json]``
    Run a resilient (configuration x workload) sweep: failed cells
    degrade to recorded gaps (retried up to ``--max-retries`` times with
    backoff, killed after ``--timeout`` seconds each), every executed
    cell is saved to ``--checkpoint`` (a result-store directory) as it
    commits, and ``--resume`` serves the cells a matching checkpoint
    holds so only missing cells execute.  ``--workers N`` with
    ``--isolation process`` (implied for N > 1) runs cells in parallel
    supervised worker processes: hung attempts are SIGKILLed at the
    timeout and a crashing worker costs one cell, not the sweep; the
    report is byte-identical to a serial run.  Exit status:
    0 = complete, 3 = completed with gaps.  SIGTERM exits 3 (gaps),
    matching a sweep that completed with missing cells; SIGINT exits
    130.  A ``--checkpoint`` that is an existing regular file exits 2.
    ``--store DIR`` (or ``$REPRO_STORE``) reads cache misses through a
    durable content-addressed result store and writes executed cells
    back: identical cells across runs, machines, and entry points never
    touch a cycle engine twice.
``serve --jobs FILE [--follow] [--workers N] [--isolation {thread,process}]
[--queue-capacity N] [--breaker-threshold N] [--breaker-recovery S]
[--drain-deadline S] [--checkpoint PATH] [--resume] [--timeout S]
[--max-retries N] [--health-file PATH] [--json]``
    Run the admission-controlled simulation job service over a JSONL job
    file (one job per line: ``{"run_kind": "cpu", "config": "AdvHet",
    "workload": "lu", "priority": 5, "deadline_s": 30}``).  ``--follow``
    tails the file for new jobs until SIGTERM/SIGINT; otherwise the
    service drains the file and exits.  Saturation, per-job deadlines,
    and open circuit breakers shed jobs with structured reasons (never
    silent drops); SIGTERM stops admissions, drains in-flight workers
    within ``--drain-deadline``, and records unfinished jobs as gaps.
    Exit status: 0 = everything served, 3 = gaps (failed or shed jobs).
``serve --health [--health-file PATH]``
    Dump the service's latest liveness/readiness snapshot (queue depth,
    breaker states, served/shed counters) from its health file.
``fabric coordinator CONFIGS... [--gpu] [--listen HOST:PORT] [--nodes N]
[--checkpoint PATH] [--resume] [--heartbeat S] [--heartbeat-timeout S]
[--task-timeout S] [--grace S] [--drain-deadline S] [--fleet-dir DIR]
[--json]``
    Run a sweep distributed across connected fabric nodes: cells are
    consistent-hashed onto nodes, dead nodes (heartbeat timeout or
    connection loss) have their in-flight cells resubmitted to
    survivors exactly once (epoch fencing rejects zombie results), and
    SIGTERM drains the whole fleet.
    The report is byte-identical to a serial ``sweep`` of the same
    cells.  Exit status matches ``sweep``: 0 = complete, 3 = gaps.
``fabric node --connect HOST:PORT [--name NAME] [--workers N]
[--isolation {thread,process}] [--checkpoint PATH] [--resume]
[--queue-capacity N] [--health-file PATH] [--json]``
    Run one worker node: the existing job service (queue, breakers,
    process pool) fed by coordinator assignments.  Reconnects with
    seeded exponential backoff after a lost coordinator; exits on the
    coordinator's ``bye``/``drain``.
``top --fleet PATH``
    Render the fabric's fleet rollup (``<fleet-dir>/fleet.json``)
    instead of a single service's health file.
``store fsck DIR [--no-quarantine] [--json]``
    Verify every entry of a durable result store (``--store DIR`` /
    ``$REPRO_STORE``): checksum, schema, and content address must all
    match.  Damaged entries are quarantined (renamed aside) so the
    store heals in place; exit 1 when damage was found this run, so an
    immediately rerun fsck exits 0.
``store gc DIR [--max-bytes N] [--keep-version V] [--json]``
    Drop store entries written by stale simulator versions, then
    enforce a total size budget oldest-first.

Sweep sizing obeys ``REPRO_INSTRUCTIONS`` / ``REPRO_APPS`` /
``REPRO_KERNELS``, as everywhere else; fault injection (for exercising
the resilience path) obeys ``REPRO_FAULTS`` and friends
(:mod:`repro.resilience.faults`).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro import obs
from repro.core.configs import CPU_CONFIGS, GPU_CONFIGS, cpu_config, gpu_config
from repro.core.simulate import simulate_cpu, simulate_gpu
from repro.experiments.figures import ALL_EXHIBITS
from repro.experiments.report import (
    failure_table,
    paper_vs_measured,
    stall_breakdown_table,
)
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.resilience import GuardPolicy, SweepError, faults
from repro.resilience.checkpoint import check_checkpoint_path
from repro.obs.stats import collect_cpu_stats, collect_gpu_stats, format_stats
from repro.obs.trace import PipelineTracer
from repro.workloads import CPU_APPS, GPU_KERNELS

#: Exhibits that consume the shared sweep runner.
_SWEEP_EXHIBITS = {
    "figure7", "figure8", "figure9", "figure10", "figure11",
    "figure12", "figure13", "figure14",
}


def _cmd_list(_args: argparse.Namespace) -> int:
    print("exhibits:   ", " ".join(ALL_EXHIBITS))
    print("cpu configs:", " ".join(CPU_CONFIGS))
    print("gpu configs:", " ".join(GPU_CONFIGS))
    print("cpu apps:   ", " ".join(CPU_APPS))
    print("gpu kernels:", " ".join(GPU_KERNELS))
    return 0


def _cmd_exhibit(args: argparse.Namespace) -> int:
    unknown = [n for n in args.names if n not in ALL_EXHIBITS]
    if unknown:
        print(f"unknown exhibits: {unknown}", file=sys.stderr)
        return 2
    runner = SweepRunner()
    for name in args.names:
        fn = ALL_EXHIBITS[name]
        result = fn(runner) if name in _SWEEP_EXHIBITS else fn()
        print(f"\n== {result.exhibit}: {result.title} ==")
        print(result.table)
        print("\npaper vs measured (means):")
        print(paper_vs_measured(result))
        print(runner.telemetry.cache_summary())
    failures = list(runner.failures.values())
    if failures:
        print(failure_table(failures), file=sys.stderr)
        return 3
    return 0


def _classify(config: str, workload: str) -> "str | None":
    """"cpu" / "gpu" for a valid (config, workload) pair, else None."""
    if config in CPU_CONFIGS and workload in CPU_APPS:
        return "cpu"
    if config in GPU_CONFIGS and workload in GPU_KERNELS:
        return "gpu"
    return None


def _no_pair(config: str, workload: str) -> int:
    print(
        f"no matching (config, workload) pair for "
        f"({config!r}, {workload!r}); see `python -m repro list`",
        file=sys.stderr,
    )
    return 2


def _single_run(config: str, workload: str, kind: str, tracer=None):
    """One simulation at the env-controlled sweep sizing."""
    settings = SweepSettings()
    if kind == "cpu":
        return simulate_cpu(
            cpu_config(config),
            workload,
            instructions=settings.instructions,
            warmup=settings.warmup,
            tracer=tracer,
        )
    return simulate_gpu(gpu_config(config), workload, tracer=tracer)


def _run_record(run, kind: str) -> dict:
    """The machine-readable ``run --json`` payload."""
    record = {
        "kind": kind,
        "config": run.config,
        "workload": run.app if kind == "cpu" else run.kernel,
        "time_s": run.time_s,
        "energy_j": run.energy_j,
        "power_w": run.power_w,
        "ed": run.ed,
        "ed2": run.ed2,
    }
    if kind == "cpu":
        core = run.core
        record.update(
            cycles=core.cycles,
            committed=core.committed,
            ipc=core.ipc,
            bpred_miss_rate=core.branch_mispredict_rate,
            dl1_hit_rate=core.dl1_hit_rate,
            dl1_fast_way_hit_rate=core.dl1_fast_hit_rate,
        )
    else:
        cu = run.gpu.cu_result
        record.update(
            cycles=cu.cycles,
            instructions=cu.instructions,
            ipc=cu.ipc,
            rf_cache_hit_rate=cu.rf_cache_hit_rate,
        )
    return record


def _cmd_run(args: argparse.Namespace) -> int:
    kind = _classify(args.config, args.workload)
    if kind is None:
        return _no_pair(args.config, args.workload)
    run = _single_run(args.config, args.workload, kind)
    if args.json:
        print(json.dumps(_run_record(run, kind), indent=2))
        return 0
    if kind == "cpu":
        core = run.core
        print(f"{args.config} on {args.workload} (CPU):")
        print(f"  time    {run.time_s * 1e6:.2f} us   energy {run.energy_j * 1e3:.3f} mJ")
        print(f"  ED      {run.ed:.3e}   ED^2  {run.ed2:.3e}")
        print(
            f"  ipc {core.ipc:.2f}  bpred-miss {core.branch_mispredict_rate:.3f}  "
            f"dl1-hit {core.dl1_hit_rate:.3f}  fast-way {core.dl1_fast_hit_rate:.3f}"
        )
    else:
        cu = run.gpu.cu_result
        print(f"{args.config} on {args.workload} (GPU):")
        print(f"  time    {run.time_s * 1e6:.2f} us   energy {run.energy_j * 1e3:.3f} mJ")
        print(f"  ED      {run.ed:.3e}   ED^2  {run.ed2:.3e}")
        print(f"  cu-ipc {cu.ipc:.2f}  rf-cache-hit {cu.rf_cache_hit_rate:.2f}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    kind = _classify(args.config, args.workload)
    if kind is None:
        return _no_pair(args.config, args.workload)
    obs.set_enabled(True)
    try:
        run = _single_run(args.config, args.workload, kind)
        if kind == "cpu":
            stats = collect_cpu_stats(run)
        else:
            stats = collect_gpu_stats(run)
        if getattr(args, "prom", False):
            # Capture the typed registry state while obs is still on;
            # rendering happens after the flag is restored.
            from repro.obs.metrics import get_registry

            prom_state = get_registry().export_state()
    finally:
        obs.set_enabled(False)
    if getattr(args, "prom", False):
        from repro.obs.export import prometheus_text

        print(prometheus_text(prom_state), end="")
        return 0
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(format_stats(stats))
        if kind == "cpu":
            print("\nstall breakdown:")
            print(stall_breakdown_table([run]))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    kind = _classify(args.config, args.workload)
    if kind is None:
        return _no_pair(args.config, args.workload)
    if args.capacity <= 0:
        print("--capacity must be positive", file=sys.stderr)
        return 2
    tracer = PipelineTracer(
        capacity=args.capacity, process_name=f"{args.config}/{args.workload}"
    )
    obs.set_enabled(True)
    try:
        _single_run(args.config, args.workload, kind, tracer=tracer)
    finally:
        obs.set_enabled(False)
    tracer.write(args.out)
    print(
        f"wrote {len(tracer)} events to {args.out} "
        f"({tracer.emitted} emitted, {tracer.dropped} dropped; "
        f"open in chrome://tracing or Perfetto)"
    )
    return 0


def _sweep_status_table(results: dict, workloads: "list[str]") -> str:
    """ok / `--` status matrix for a finished sweep."""
    name_w = max(len(w) for w in workloads) + 2
    configs = list(results)
    header = " " * name_w + "".join(f"{c:>{len(c) + 2}}" for c in configs)
    lines = [header]
    for workload in workloads:
        row = "".join(
            f"{'ok' if results[c][workload] is not None else '--':>{len(c) + 2}}"
            for c in configs
        )
        lines.append(f"{workload:<{name_w}}" + row)
    return "\n".join(lines)


class _SweepTerminated(BaseException):
    """SIGTERM arrived mid-sweep, converted so cleanup can run.

    A ``BaseException`` (like ``KeyboardInterrupt``) on purpose: the
    guard's retry loop catches ``Exception`` to contain simulation
    crashes, and a termination request must cut through it, not be
    classified as a crash and retried.
    """


def _checkpoint_error(args: argparse.Namespace) -> "str | None":
    """Why ``--checkpoint``/``--resume`` cannot be used, or None."""
    if args.resume and not args.checkpoint:
        return "--resume requires --checkpoint PATH"
    if args.checkpoint:
        try:
            check_checkpoint_path(args.checkpoint)
        except ValueError as exc:
            return str(exc)
    return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    known = GPU_CONFIGS if args.gpu else CPU_CONFIGS
    unknown = [n for n in args.configs if n not in known]
    if unknown:
        kind = "GPU" if args.gpu else "CPU"
        print(
            f"unknown {kind} configs: {unknown}; choose from {sorted(known)}",
            file=sys.stderr,
        )
        return 2
    error = _checkpoint_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.workers > 1 and args.isolation == "thread":
        print(
            "--workers > 1 requires --isolation process "
            "(threads cannot parallelise CPU-bound sweeps)",
            file=sys.stderr,
        )
        return 2
    policy = GuardPolicy(
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        fail_fast=args.fail_fast,
    )
    runner = SweepRunner(
        policy=policy, checkpoint=args.checkpoint, resume=args.resume,
        store=args.store,
    )
    workloads = runner.settings.kernels if args.gpu else runner.settings.apps
    interrupted = False

    def _on_sigterm(_signum, _frame):
        raise _SweepTerminated()

    try:
        old_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not the main thread (embedded callers)
        old_sigterm = None
    try:
        try:
            if args.gpu:
                results = runner.gpu_sweep(
                    args.configs, workers=args.workers, isolation=args.isolation
                )
            else:
                results = runner.cpu_sweep(
                    args.configs, workers=args.workers, isolation=args.isolation
                )
        except SweepError as exc:
            print(f"sweep aborted (--fail-fast): {exc}", file=sys.stderr)
            return 1
        except _SweepTerminated:
            # SIGTERM = an orchestrator asking for an orderly stop: report
            # "completed with gaps" (exit 3); every finished cell is
            # already saved, so `--checkpoint ... --resume` runs the rest.
            hint = (
                f"; rerun with --checkpoint {args.checkpoint} --resume "
                f"to continue"
                if args.checkpoint
                else ""
            )
            print(f"\nsweep terminated (SIGTERM){hint}", file=sys.stderr)
            return 3
        except KeyboardInterrupt:
            interrupted = True
            results = {}
    finally:
        if old_sigterm is not None:
            signal.signal(signal.SIGTERM, old_sigterm)
    failures = list(runner.failures.values())
    if interrupted:
        hint = (
            f"; rerun with --checkpoint {args.checkpoint} --resume to continue"
            if args.checkpoint
            else ""
        )
        print(f"\nsweep interrupted{hint}", file=sys.stderr)
        return 130
    if args.json:
        cells = {
            config: {
                workload: (
                    None if run is None else {
                        "time_s": run.time_s,
                        "energy_j": run.energy_j,
                        "ed2": run.ed2,
                    }
                )
                for workload, run in row.items()
            }
            for config, row in results.items()
        }
        print(
            json.dumps(
                {
                    "kind": "gpu" if args.gpu else "cpu",
                    "configs": args.configs,
                    "workloads": workloads,
                    "cells": cells,
                    "failures": [f.to_dict() for f in failures],
                    "failure_table": failure_table(failures),
                    "telemetry": runner.telemetry.summary(),
                },
                indent=2,
            )
        )
    else:
        total = len(args.configs) * len(workloads)
        done = sum(
            1 for row in results.values() for run in row.values() if run is not None
        )
        print(_sweep_status_table(results, workloads))
        print(f"\n{done}/{total} cells ok, {len(failures)} failed")
        if failures:
            print(failure_table(failures))
        print(runner.telemetry.cache_summary())
        if args.checkpoint:
            print(f"checkpoint: {args.checkpoint}")
    return 3 if failures else 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    if args.interval <= 0:
        print("--interval must be positive", file=sys.stderr)
        return 2
    if args.fleet and args.health_file:
        print("--fleet and --health-file are mutually exclusive",
              file=sys.stderr)
        return 2
    if not args.fleet and not args.health_file:
        print("top requires --health-file PATH (or --fleet PATH)",
              file=sys.stderr)
        return 2
    run_top(
        args.fleet or args.health_file,
        interval_s=args.interval,
        iterations=1 if args.once else None,
        fleet=bool(args.fleet),
    )
    return 0


def _parse_hostport(value: str, default_port: int = 7077) -> "tuple[str, int]":
    host, sep, port = value.rpartition(":")
    if not sep:
        return value, default_port
    return host or "127.0.0.1", int(port)


def _cmd_fabric_coordinator(args: argparse.Namespace) -> int:
    import asyncio

    from repro.fabric import FabricConfig, FabricCoordinator

    known = GPU_CONFIGS if args.gpu else CPU_CONFIGS
    unknown = [n for n in args.configs if n not in known]
    if unknown:
        kind = "GPU" if args.gpu else "CPU"
        print(
            f"unknown {kind} configs: {unknown}; choose from {sorted(known)}",
            file=sys.stderr,
        )
        return 2
    error = _checkpoint_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    host, port = _parse_hostport(args.listen)
    runner = SweepRunner(
        policy=GuardPolicy(
            timeout_s=args.timeout, max_retries=args.max_retries
        ),
        checkpoint=args.checkpoint,
        resume=args.resume,
        store=args.store,
    )
    run_kind = "gpu" if args.gpu else "cpu"
    workloads = runner.settings.kernels if args.gpu else runner.settings.apps
    cells = [
        (run_kind, config, workload)
        for config in args.configs
        for workload in workloads
    ]
    coordinator = FabricCoordinator(
        runner,
        cells,
        FabricConfig(
            host=host,
            port=port,
            heartbeat_s=args.heartbeat,
            heartbeat_timeout_s=args.heartbeat_timeout,
            task_timeout_s=args.task_timeout,
            min_nodes=args.nodes,
            join_timeout_s=args.join_timeout,
            rejoin_grace_s=args.grace,
            drain_deadline_s=args.drain_deadline,
            fleet_dir=args.fleet_dir,
        ),
    )

    def _on_signal(_signum, _frame):
        coordinator.request_shutdown()

    old_handlers = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            old_handlers.append((signum, signal.signal(signum, _on_signal)))
        except ValueError:  # not the main thread (embedded callers)
            pass
    async def _serve_with_status_front():
        # A status-only front door next to the fabric listener: no job
        # routes, just healthz/readyz/metrics and GET /v1/fleet from
        # the coordinator's live summary.
        from repro.serve.http import HttpConfig, HttpFrontDoor

        http_host, http_port = _parse_hostport(args.http, default_port=8080)

        def _status() -> dict:
            doc = dict(coordinator.summary())
            doc.setdefault("alive", True)
            doc.setdefault("ready", True)
            return doc

        front = HttpFrontDoor(
            None,
            HttpConfig(host=http_host, port=http_port),
            status_provider=_status,
            telemetry=runner.telemetry,
        )
        await front.start()
        print(f"fabric: http status on {front.url}",
              file=sys.stderr, flush=True)
        try:
            return await coordinator.serve()
        finally:
            front.request_shutdown()
            await front.drain()

    try:
        if args.http:
            fabric_summary = asyncio.run(_serve_with_status_front())
        else:
            fabric_summary = asyncio.run(coordinator.serve())
    finally:
        for signum, handler in old_handlers:
            signal.signal(signum, handler)

    # Assemble the report straight from the runner caches in
    # deterministic cell order -- the exact construction the serial
    # sweep uses, so the two are byte-identical.  (Never re-execute
    # here: a gap must stay a gap, not trigger a local retry.)
    cache = runner._cache_for(run_kind)
    results = {
        config: {w: cache.get((config, w)) for w in workloads}
        for config in args.configs
    }
    failures = list(runner.failures.values())
    if args.json:
        cells_doc = {
            config: {
                workload: (
                    None if run is None else {
                        "time_s": run.time_s,
                        "energy_j": run.energy_j,
                        "ed2": run.ed2,
                    }
                )
                for workload, run in row.items()
            }
            for config, row in results.items()
        }
        print(
            json.dumps(
                {
                    "kind": run_kind,
                    "configs": args.configs,
                    "workloads": workloads,
                    "cells": cells_doc,
                    "failures": [f.to_dict() for f in failures],
                    "failure_table": failure_table(failures),
                    "telemetry": runner.telemetry.summary(),
                    "fabric": fabric_summary,
                },
                indent=2,
            )
        )
    else:
        total = len(args.configs) * len(workloads)
        done = sum(
            1 for row in results.values() for run in row.values()
            if run is not None
        )
        print(_sweep_status_table(results, workloads))
        counters = fabric_summary["counters"]
        print(
            f"\n{done}/{total} cells ok, {len(failures)} failed | "
            f"{counters['nodes_joined']} node(s) joined, "
            f"{counters['nodes_dead']} died, "
            f"{counters['resubmitted']} resubmitted, "
            f"{counters['fenced']} fenced, "
            f"{counters['duplicates']} duplicates dropped"
        )
        if failures:
            print(failure_table(failures))
        print(runner.telemetry.cache_summary())
        if args.checkpoint:
            print(f"checkpoint: {args.checkpoint}")
    return 3 if failures else 0


def _cmd_fabric_node(args: argparse.Namespace) -> int:
    from repro.fabric import FabricNode, NodeConfig

    error = _checkpoint_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.workers > 1 and args.isolation == "thread":
        print(
            "--workers > 1 requires --isolation process "
            "(threads cannot parallelise CPU-bound sweeps)",
            file=sys.stderr,
        )
        return 2
    host, port = _parse_hostport(args.connect)
    node = FabricNode(NodeConfig(
        host=host,
        port=port,
        name=args.name,
        workers=args.workers,
        isolation=args.isolation,
        queue_capacity=args.queue_capacity,
        checkpoint=args.checkpoint,
        resume=args.resume,
        store=args.store,
        health_file=args.health_file,
    ))

    def _on_signal(_signum, _frame):
        node.request_shutdown()

    old_handlers = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            old_handlers.append((signum, signal.signal(signum, _on_signal)))
        except ValueError:
            pass
    try:
        summary = node.run()
    finally:
        for signum, handler in old_handlers:
            signal.signal(signum, handler)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        counters = summary["counters"]
        print(
            f"fabric node {summary['node']}: "
            f"{counters['assigned']} assigned, "
            f"{counters['results_sent']} results sent, "
            f"{counters['connects']} connect(s), "
            f"{counters['reconnects']} reconnect(s)"
        )
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    if args.fabric_command == "coordinator":
        return _cmd_fabric_coordinator(args)
    return _cmd_fabric_node(args)


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store.cas import ResultStore

    store = ResultStore(args.root)
    if args.store_command == "fsck":
        report = store.fsck(quarantine=not args.no_quarantine)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(
                f"store fsck: {report['checked']} checked, "
                f"{report['ok']} ok, {len(report['damaged'])} damaged, "
                f"{report['quarantined']} quarantined, "
                f"{report['orphans_swept']} orphan temps swept"
            )
            for item in report["damaged"]:
                print(f"  damaged [{item['reason']}] {item['path']}")
        # Damage found *this run* fails the check; quarantining (the
        # default) repairs the store, so an immediately rerun fsck is 0.
        return 1 if report["damaged"] else 0

    report = store.gc(
        max_bytes=args.max_bytes, keep_sim_version=args.keep_version
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"store gc: {report['removed_stale']} stale-version removed, "
            f"{report['removed_over_budget']} over-budget removed, "
            f"{report['remaining']} remaining ({report['bytes']} bytes)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import BreakerPolicy, ServiceConfig, SimService
    from repro.serve.health import read_health

    if args.health:
        if not args.health_file:
            print("--health requires --health-file PATH", file=sys.stderr)
            return 2
        snapshot = read_health(args.health_file)
        if snapshot is None:
            print(
                f"no readable health snapshot at {args.health_file}",
                file=sys.stderr,
            )
            return 1
        if args.json:
            print(json.dumps(snapshot.to_dict(), indent=2, sort_keys=True))
        else:
            print(snapshot.describe())
        return 0

    if not args.jobs and not args.http:
        print("serve requires --jobs FILE (or --http HOST:PORT, or --health)",
              file=sys.stderr)
        return 2
    error = _checkpoint_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    obs_requested = bool(args.obs_log or args.trace_out)
    obs_was_enabled = obs.enabled()
    if obs_requested:
        obs.set_enabled(True)
    policy = GuardPolicy(timeout_s=args.timeout, max_retries=args.max_retries)
    runner = SweepRunner(
        policy=policy, checkpoint=args.checkpoint, resume=args.resume,
        store=args.store,
    )
    config = ServiceConfig(
        capacity=args.queue_capacity,
        workers=args.workers,
        isolation=args.isolation,
        drain_deadline_s=args.drain_deadline,
        breaker=BreakerPolicy(
            failure_threshold=args.breaker_threshold,
            recovery_s=args.breaker_recovery,
            max_recovery_s=max(args.breaker_recovery * 10.0, args.breaker_recovery),
        ),
        health_file=args.health_file,
    )
    service = SimService(runner, config)

    front = None
    if args.http:
        from repro.serve.http import HttpConfig, HttpFrontDoor

        http_host, http_port = _parse_hostport(args.http, default_port=8080)
        front = HttpFrontDoor(service, HttpConfig(
            host=http_host,
            port=http_port,
            read_timeout_s=args.read_timeout,
            max_connections=args.max_connections,
            rate_per_s=args.rate_limit,
            rate_burst=args.rate_burst,
            drain_deadline_s=args.drain_deadline,
        ))

    def _on_signal(_signum, _frame):
        # With a front door the drain order matters: stop accepting
        # HTTP first; the service drains after the loop exits.
        if front is not None:
            front.request_shutdown()
        else:
            service.request_shutdown()

    old_handlers = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            old_handlers.append((signum, signal.signal(signum, _on_signal)))
        except ValueError:  # not the main thread (embedded callers)
            pass

    def _narrate(line: str, admission) -> None:
        if admission is None:
            print(f"serve: {line}", file=sys.stderr)
        elif not admission.admitted:
            print(
                f"serve: shed [{admission.reason}] {line}"
                + (f" ({admission.detail})" if admission.detail else ""),
                file=sys.stderr,
            )

    try:
        service.start()
        submitted = malformed = 0
        if front is None:
            if args.jobs:
                submitted, malformed = service.intake(
                    args.jobs, follow=args.follow, on_line=_narrate
                )
            if not args.follow:
                service.wait_idle()
        else:
            import asyncio
            import threading

            intake_done = {}
            intake_thread = None
            if args.jobs:
                def _intake() -> None:
                    try:
                        intake_done["result"] = service.intake(
                            args.jobs, follow=args.follow, on_line=_narrate
                        )
                    except Exception as exc:  # surfaced, never silent
                        print(f"serve: intake failed: {exc}",
                              file=sys.stderr)

                intake_thread = threading.Thread(
                    target=_intake, name="serve-intake", daemon=True
                )

            async def _serve_http() -> None:
                await front.start()
                print(f"serve: http listening on {front.url}",
                      file=sys.stderr, flush=True)
                if intake_thread is not None:
                    intake_thread.start()
                try:
                    await front.wait_shutdown()
                finally:
                    await front.drain()

            asyncio.run(_serve_http())
            service.request_shutdown()
            if intake_thread is not None:
                intake_thread.join(timeout=args.drain_deadline)
                submitted, malformed = intake_done.get("result", (0, 0))
        summary = service.shutdown()
    finally:
        for signum, handler in old_handlers:
            signal.signal(signum, handler)

    if obs_requested:
        from repro.obs.events import chrome_trace, get_event_log

        elog = get_event_log()
        if args.obs_log:
            count = elog.write_jsonl(args.obs_log)
            print(f"serve: wrote {count} events to {args.obs_log}",
                  file=sys.stderr)
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump(chrome_trace(elog.events()), handle)
            print(f"serve: wrote Chrome trace to {args.trace_out}",
                  file=sys.stderr)
        if not obs_was_enabled:
            obs.set_enabled(False)

    counters = summary["counters"]
    if args.json:
        summary["submitted_from_file"] = submitted
        summary["malformed_lines"] = malformed
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"serve: {counters['submitted']} submitted, "
            f"{counters['served']} served, {counters['failed']} failed, "
            f"{counters['shed']} shed, {counters['cancelled']} cancelled"
            + (f", {malformed} malformed lines" if malformed else "")
            + (" [DEGRADED: thread isolation]" if summary["degraded"] else "")
        )
        shed_reasons = runner.telemetry.shed_counts()
        if shed_reasons:
            print(
                "shed reasons: "
                + ", ".join(f"{k}={v}" for k, v in sorted(shed_reasons.items()))
            )
        failures = list(runner.failures.values())
        if failures:
            print(failure_table(failures))
        print(runner.telemetry.cache_summary())
        if args.checkpoint:
            print(f"checkpoint: {args.checkpoint}")
    return 3 if service.gap_count() else 0


def _make_client(args: argparse.Namespace):
    from repro.serve.client import ClientConfig, ServeClient

    return ServeClient(args.url, ClientConfig(
        max_attempts=args.max_attempts,
        backoff_base_s=args.backoff,
        timeout_s=args.http_timeout,
        seed=args.seed,
    ))


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError

    client = _make_client(args)
    specs = [
        {
            "run_kind": args.run_kind,
            "config": config,
            "workload": workload,
            "priority": args.priority,
            **({"deadline_s": args.deadline_s}
               if args.deadline_s is not None else {}),
        }
        for config in args.configs
        for workload in (args.workloads or ["lu"])
    ]
    responses = []
    exit_code = 0
    for spec in specs:
        cell = f"{spec['config']}/{spec['workload']}"
        try:
            body = client.submit(
                spec, idempotency_key=args.idempotency_key
            )
            if args.wait and body.get("status") not in (
                "served", "failed", "shed", "cancelled"
            ):
                body = client.wait(
                    body["job_id"], timeout_s=args.wait_timeout
                )
            responses.append({"cell": cell, **body})
            if body.get("status") in ("failed", "shed", "cancelled"):
                exit_code = 1
            if not args.json:
                note = " (deduplicated)" if body.get("deduplicated") else (
                    " (cache)" if body.get("served_from") == "cache" else ""
                )
                print(f"{cell}: {body.get('job_id')} "
                      f"{body.get('status')}{note}")
        except ServeError as exc:
            responses.append({"cell": cell, "error": str(exc)})
            exit_code = 1
            if not args.json:
                print(f"{cell}: ERROR {exc}", file=sys.stderr)
    if args.json:
        print(json.dumps(responses, indent=2, sort_keys=True))
    return exit_code


def _cmd_poll(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError

    client = _make_client(args)
    records = []
    exit_code = 0
    for job_id in args.job_ids:
        try:
            record = (
                client.wait(job_id, timeout_s=args.wait_timeout)
                if args.wait else client.poll(job_id)
            )
        except ServeError as exc:
            records.append({"job_id": job_id, "error": str(exc)})
            exit_code = 1
            if not args.json:
                print(f"{job_id}: ERROR {exc}", file=sys.stderr)
            continue
        if record is None:
            records.append({"job_id": job_id, "error": "unknown_job"})
            exit_code = 1
            if not args.json:
                print(f"{job_id}: unknown job", file=sys.stderr)
            continue
        records.append(record)
        if record.get("status") in ("failed", "shed", "cancelled"):
            exit_code = 1
        if not args.json:
            detail = record.get("detail") or ""
            print(f"{job_id}: {record.get('status')}"
                  + (f" ({detail})" if detail else ""))
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
    return exit_code


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show exhibits, configs, and workloads")

    p_exhibit = sub.add_parser("exhibit", help="regenerate paper exhibits")
    p_exhibit.add_argument("names", nargs="+", metavar="NAME")

    p_run = sub.add_parser("run", help="run one configuration on one workload")
    p_run.add_argument("config")
    p_run.add_argument("workload")
    p_run.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON record"
    )

    p_stats = sub.add_parser(
        "stats", help="run one pair and dump the structured counter tree"
    )
    p_stats.add_argument("config")
    p_stats.add_argument("workload")
    p_stats.add_argument(
        "--json", action="store_true", help="emit the counter tree as JSON"
    )
    p_stats.add_argument(
        "--prom", action="store_true",
        help="emit the metrics registry in Prometheus text format instead",
    )

    p_trace = sub.add_parser(
        "trace", help="run one pair and write a Chrome trace-event file"
    )
    p_trace.add_argument("config")
    p_trace.add_argument("workload")
    p_trace.add_argument("--out", required=True, metavar="FILE")
    p_trace.add_argument(
        "--capacity",
        type=int,
        default=65536,
        help="ring-buffer size (oldest events drop beyond this)",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="run a resilient (config x workload) sweep with recorded gaps",
    )
    p_sweep.add_argument("configs", nargs="+", metavar="CONFIG")
    p_sweep.add_argument(
        "--gpu", action="store_true", help="sweep GPU configs over kernels"
    )
    p_sweep.add_argument(
        "--checkpoint", metavar="PATH",
        help="save each executed cell to this checkpoint directory",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="serve cells from the checkpoint; only missing cells execute",
    )
    p_sweep.add_argument(
        "--store", metavar="DIR", default=None,
        help="durable content-addressed result store: cache misses read "
        "through it, executed cells write back (default $REPRO_STORE)",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per run attempt (seconds)",
    )
    p_sweep.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per cell with exponential backoff (default 2)",
    )
    p_sweep.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first failed cell",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="parallel worker processes (N > 1 implies --isolation process)",
    )
    p_sweep.add_argument(
        "--isolation", choices=("thread", "process"), default=None,
        help="run attempts in-process under the thread guard (default for "
        "--workers 1) or in SIGKILL-supervised worker processes",
    )
    p_sweep.add_argument(
        "--json", action="store_true",
        help="emit cells, failures, and telemetry as JSON",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the admission-controlled simulation job service",
    )
    p_serve.add_argument(
        "--jobs", metavar="FILE",
        help="JSONL job file (one job spec per line)",
    )
    p_serve.add_argument(
        "--follow", action="store_true",
        help="tail the job file for new jobs until SIGTERM/SIGINT",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent dispatcher slots (default 1)",
    )
    p_serve.add_argument(
        "--isolation", choices=("thread", "process"), default="thread",
        help="execute jobs in-process (thread) or in SIGKILL-supervised "
        "worker processes (process); spawn failures degrade to thread",
    )
    p_serve.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        help="bounded queue size; admissions beyond it shed queue_full",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive crash/timeout failures of one (run_kind, "
        "config) that open its circuit breaker (default 3)",
    )
    p_serve.add_argument(
        "--breaker-recovery", type=float, default=30.0, metavar="S",
        help="seconds an open breaker waits before a half-open probe "
        "(default 30; escalates exponentially under repeated trips)",
    )
    p_serve.add_argument(
        "--drain-deadline", type=float, default=10.0, metavar="S",
        help="graceful-shutdown budget for in-flight jobs (default 10)",
    )
    p_serve.add_argument(
        "--checkpoint", metavar="PATH",
        help="save each served cell to this checkpoint directory",
    )
    p_serve.add_argument(
        "--resume", action="store_true",
        help="serve cells from the checkpoint; cached cells serve instantly",
    )
    p_serve.add_argument(
        "--store", metavar="DIR", default=None,
        help="durable content-addressed result store: cache misses read "
        "through it, executed cells write back (default $REPRO_STORE)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per run attempt (seconds)",
    )
    p_serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per job with exponential backoff (default 2)",
    )
    p_serve.add_argument(
        "--health-file", metavar="PATH",
        help="write liveness/readiness snapshots here (read by --health)",
    )
    p_serve.add_argument(
        "--health", action="store_true",
        help="dump the latest health snapshot from --health-file and exit",
    )
    p_serve.add_argument(
        "--json", action="store_true",
        help="emit the final job records, counters, and telemetry as JSON",
    )
    p_serve.add_argument(
        "--obs-log", metavar="FILE",
        help="enable observability and write the merged structured event "
        "log (coordinator + workers) as JSONL at shutdown",
    )
    p_serve.add_argument(
        "--trace-out", metavar="FILE",
        help="enable observability and write the merged spans as a Chrome "
        "trace-event file at shutdown",
    )
    p_serve.add_argument(
        "--http", metavar="HOST:PORT",
        help="run the overload-hardened HTTP front door (POST /v1/jobs, "
        "poll/cancel, healthz/readyz/metrics); port 0 binds ephemeral",
    )
    p_serve.add_argument(
        "--rate-limit", type=float, default=0.0, metavar="N",
        help="per-client HTTP token-bucket rate (requests/second); "
        "0 disables (default)",
    )
    p_serve.add_argument(
        "--rate-burst", type=float, default=20.0, metavar="N",
        help="per-client HTTP burst allowance (default 20 requests)",
    )
    p_serve.add_argument(
        "--max-connections", type=int, default=64, metavar="N",
        help="concurrent HTTP connection ceiling; beyond it new "
        "connections get an immediate 503 (default 64)",
    )
    p_serve.add_argument(
        "--read-timeout", type=float, default=5.0, metavar="S",
        help="HTTP header/body read deadline against slow-loris clients "
        "(default 5)",
    )

    def _add_client_options(p) -> None:
        p.add_argument(
            "--url", required=True, metavar="URL",
            help="front-door endpoint, e.g. http://127.0.0.1:8080",
        )
        p.add_argument(
            "--max-attempts", type=int, default=6, metavar="N",
            help="attempts per request before giving up (default 6)",
        )
        p.add_argument(
            "--backoff", type=float, default=0.25, metavar="S",
            help="base retry backoff; doubles per attempt with "
            "deterministic jitter, Retry-After overrides (default 0.25)",
        )
        p.add_argument(
            "--http-timeout", type=float, default=10.0, metavar="S",
            help="per-request socket timeout (default 10)",
        )
        p.add_argument(
            "--seed", type=int, default=0, metavar="N",
            help="seed for the deterministic backoff jitter (default 0)",
        )
        p.add_argument(
            "--wait-timeout", type=float, default=300.0, metavar="S",
            help="--wait budget per job before giving up (default 300)",
        )
        p.add_argument(
            "--json", action="store_true",
            help="emit the structured responses as JSON",
        )

    p_submit = sub.add_parser(
        "submit",
        help="submit jobs to a running HTTP front door (idempotent retries)",
    )
    p_submit.add_argument(
        "configs", nargs="+", metavar="CONFIG",
        help="configuration names to submit",
    )
    p_submit.add_argument(
        "--workload", dest="workloads", action="append", metavar="NAME",
        help="workload(s) per config (repeatable; default lu)",
    )
    p_submit.add_argument(
        "--run-kind", choices=("cpu", "gpu", "dvfs"), default="cpu",
        help="simulation kind (default cpu)",
    )
    p_submit.add_argument(
        "--priority", type=int, default=10, metavar="N",
        help="queue priority, lower is more urgent (default 10)",
    )
    p_submit.add_argument(
        "--deadline-s", type=float, default=None, metavar="S",
        help="latest useful start; expired jobs shed past_deadline",
    )
    p_submit.add_argument(
        "--idempotency-key", metavar="KEY",
        help="explicit idempotency key (default: content-addressed "
        "from each spec)",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="poll each accepted job until it reaches a terminal state",
    )
    _add_client_options(p_submit)

    p_poll = sub.add_parser(
        "poll",
        help="poll job records on a running HTTP front door",
    )
    p_poll.add_argument(
        "job_ids", nargs="+", metavar="JOB_ID",
        help="job id(s) returned by submit",
    )
    p_poll.add_argument(
        "--wait", action="store_true",
        help="block until each job reaches a terminal state",
    )
    _add_client_options(p_poll)

    p_top = sub.add_parser(
        "top",
        help="live dashboard tailing a service's health + metrics snapshots",
    )
    p_top.add_argument(
        "--health-file", metavar="PATH",
        help="the running service's --health-file path",
    )
    p_top.add_argument(
        "--fleet", metavar="PATH",
        help="render a fabric fleet rollup from <fleet-dir>/fleet.json "
        "instead of a single service's health file",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh interval in seconds (default 1.0)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (for scripts and tests)",
    )

    p_fabric = sub.add_parser(
        "fabric",
        help="distributed sweep tier: one coordinator, N worker nodes",
    )
    fabric_sub = p_fabric.add_subparsers(
        dest="fabric_command", required=True
    )
    p_coord = fabric_sub.add_parser(
        "coordinator",
        help="own a sweep's cell list; hash cells onto connected nodes, "
        "resubmit in-flight cells of dead nodes exactly once",
    )
    p_coord.add_argument(
        "configs", nargs="+", metavar="CONFIG",
        help="CPU (or, with --gpu, GPU) configurations to sweep",
    )
    p_coord.add_argument(
        "--gpu", action="store_true",
        help="sweep GPU configurations over kernels instead of CPU/apps",
    )
    p_coord.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:0 = ephemeral port, "
        "printed to stderr at startup)",
    )
    p_coord.add_argument(
        "--nodes", type=int, default=1, metavar="N",
        help="wait for N nodes to join before distributing (default 1)",
    )
    p_coord.add_argument(
        "--checkpoint", metavar="PATH",
        help="save each merged cell to this checkpoint directory",
    )
    p_coord.add_argument(
        "--resume", action="store_true",
        help="serve cells from the checkpoint; cached cells never leave "
        "the coordinator",
    )
    p_coord.add_argument(
        "--store", metavar="DIR", default=None,
        help="durable content-addressed result store: stored cells never "
        "leave the coordinator either (default $REPRO_STORE)",
    )
    p_coord.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per run attempt on each node (seconds)",
    )
    p_coord.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="node-local retries per cell (default 2)",
    )
    p_coord.add_argument(
        "--heartbeat", type=float, default=0.5, metavar="S",
        help="node heartbeat interval (default 0.5)",
    )
    p_coord.add_argument(
        "--heartbeat-timeout", type=float, default=3.0, metavar="S",
        help="heartbeat silence that declares a node dead (default 3)",
    )
    p_coord.add_argument(
        "--task-timeout", type=float, default=120.0, metavar="S",
        help="per-assignment budget before resubmission (default 120)",
    )
    p_coord.add_argument(
        "--join-timeout", type=float, default=60.0, metavar="S",
        help="how long to wait for the first --nodes joins (default 60)",
    )
    p_coord.add_argument(
        "--grace", type=float, default=10.0, metavar="S",
        help="after all nodes die, how long to wait for a rejoin before "
        "shedding the remaining cells (default 10)",
    )
    p_coord.add_argument(
        "--drain-deadline", type=float, default=10.0, metavar="S",
        help="SIGTERM drain budget for the whole fleet (default 10)",
    )
    p_coord.add_argument(
        "--fleet-dir", metavar="DIR",
        help="publish per-node health + the fleet rollup here "
        "(read by `repro top --fleet DIR/fleet.json`)",
    )
    p_coord.add_argument(
        "--json", action="store_true",
        help="emit the sweep report (sweep --json shape) plus a "
        "'fabric' summary as JSON",
    )
    p_coord.add_argument(
        "--http", metavar="HOST:PORT",
        help="also serve a status-only HTTP front (healthz/readyz/"
        "metrics plus GET /v1/fleet from the live coordinator summary)",
    )
    p_node = fabric_sub.add_parser(
        "node",
        help="run one worker node backed by the simulation job service",
    )
    p_node.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address",
    )
    p_node.add_argument(
        "--name", default=None, metavar="NAME",
        help="stable node identity (default node-<pid>); reconnects "
        "under the same name supersede the old session",
    )
    p_node.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent dispatcher slots (default 1)",
    )
    p_node.add_argument(
        "--isolation", choices=("thread", "process"), default="thread",
        help="execute cells in-process (thread) or in SIGKILL-supervised "
        "worker processes (process)",
    )
    p_node.add_argument(
        "--queue-capacity", type=int, default=256, metavar="N",
        help="bounded local queue; overflow assignments shed back to "
        "the coordinator (default 256)",
    )
    p_node.add_argument(
        "--checkpoint", metavar="PATH",
        help="save each cell this node runs to this checkpoint directory",
    )
    p_node.add_argument(
        "--resume", action="store_true",
        help="serve cells from the checkpoint",
    )
    p_node.add_argument(
        "--store", metavar="DIR", default=None,
        help="durable content-addressed result store shared with the "
        "fleet (default $REPRO_STORE)",
    )
    p_node.add_argument(
        "--health-file", metavar="PATH",
        help="also write this node's health snapshots locally",
    )
    p_node.add_argument(
        "--json", action="store_true",
        help="emit the node's counters as JSON on exit",
    )

    p_store = sub.add_parser(
        "store",
        help="inspect and maintain a durable content-addressed result store",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_fsck = store_sub.add_parser(
        "fsck",
        help="verify every entry's checksum, schema, and address; "
        "quarantine damage (exit 1 when damage was found this run)",
    )
    p_fsck.add_argument("root", metavar="DIR", help="store root directory")
    p_fsck.add_argument(
        "--no-quarantine", action="store_true",
        help="report damaged entries but leave them in place",
    )
    p_fsck.add_argument(
        "--json", action="store_true",
        help="emit the fsck report as JSON",
    )
    p_gc = store_sub.add_parser(
        "gc",
        help="drop entries from stale simulator versions and enforce a "
        "size budget (oldest entries first)",
    )
    p_gc.add_argument("root", metavar="DIR", help="store root directory")
    p_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="total size budget; oldest entries removed until under it",
    )
    p_gc.add_argument(
        "--keep-version", default=None, metavar="V",
        help="simulator version to keep (default: the current one)",
    )
    p_gc.add_argument(
        "--json", action="store_true",
        help="emit the gc report as JSON",
    )

    args = parser.parse_args(argv)
    try:
        # A bad REPRO_*FAULTS* value is a usage error up front, not a
        # crash recorded against the first cell, frame or write.
        for domain in faults.DOMAINS:
            faults.active(domain)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "list": _cmd_list,
        "exhibit": _cmd_exhibit,
        "run": _cmd_run,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "poll": _cmd_poll,
        "top": _cmd_top,
        "fabric": _cmd_fabric,
        "store": _cmd_store,
    }
    return handlers[args.command](args)
