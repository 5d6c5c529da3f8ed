#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-serial --seed 0 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing instrumented; ``--trace 1`` alternates untraced,
traced and ``REPRO_OBS=1`` passes and reports the per-layer ledger (also
printed to stderr, with the spans written to ``.bench_out/``).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK_ROOT = REPO / ".bench_work"
OUT_DIR = REPO / ".bench_out"

#: Passes stop once this much time has gone, samples or not, so one run
#: always ends well inside three minutes.
HARD_CAP_S = 120.0

#: Fewest fresh-interpreter import samples behind ``setup_s``.
IMPORT_SAMPLES = 5

#: End-to-end metric -> unit (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "cells_per_s": "1/s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "paper_err": "ln-ratio",
}

#: Per-layer metric -> unit (BENCHMARK.json lists the same).
PER_LAYER = {
    "workloads.trace_generate_s": "s",
    "workloads.trace_generate_calls": "count",
    "workloads.trace_cache_hit_ratio": "ratio",
    "mem.prewarm_s": "s",
    "mem.prewarm_calls": "count",
    "cpu.engine_s": "s",
    "cpu.engine_calls": "count",
    "cpu.engine_ns_per_instr": "ns/instr",
    "gpu.engine_s": "s",
    "gpu.vectorized_share": "ratio",
    "power.evaluate_s": "s",
    "core.simulate_self_s": "s",
    "core.dvfs_s": "s",
    "experiments.cpu_sweep_s": "s",
    "experiments.gpu_sweep_s": "s",
    "experiments.dvfs_sweep_s": "s",
    "experiments.runner_self_s": "s",
    "experiments.report_render_s": "s",
    "resilience.pool_run_s": "s",
    "resilience.pool_utilization": "ratio",
    "resilience.shm_export_s": "s",
    "resilience.checkpoint_flush_s": "s",
    "resilience.checkpoint_flush_calls": "count",
    "resilience.retries": "count",
    "store.put_s": "s",
    "store.put_calls": "count",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.hit_ratio": "ratio",
    "serve.submit_ms": "ms",
    "serve.polls_per_job": "count",
    "serve.run_cell_s": "s",
    "serve.dedupe_share": "ratio",
    "serve.retried_requests": "count",
    "obs.trace_overhead_ratio": "ratio",
    "obs.enabled_overhead_ratio": "ratio",
    "other.self_s": "s",
}

WORKLOAD_NAMES = ("paper-serial", "sweep-parallel", "serve-http")


def import_program() -> None:
    """Import the simulator from this checkout's ``src``.

    Exits with a non-zero status, printing no result, when the checkout
    has no importable program.
    """
    sys.path[:0] = [str(SRC), str(REPO)]
    try:
        import repro
        import perfbench.workloads  # noqa: F401  (imports every layer)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def import_seconds() -> float:
    """Seconds to import the program in a fresh interpreter.

    Times the import statements alone, in a child that is waited for.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
        "import repro, perfbench.workloads; print(time.perf_counter() - t)"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(REPO)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(child.stdout)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_passes(workload, seconds: float, trace: bool, recorder):
    """Repeat passes for ``seconds``.

    Returns the passes by mode, the per-pass set-up times and the import
    times (untraced runs only), sampled once a round so that they spread
    over the run instead of sharing one moment of the host.
    """
    from repro import obs

    from perfbench import ledger

    modes = ("plain", "traced", "obs") if trace else ("plain",)
    passes = {mode: [] for mode in modes}
    setups = []
    imports = []
    started = time.perf_counter()
    index = 0
    while True:
        # Rotate the mode order each round so no mode always runs first.
        turn = len(passes["plain"]) % len(modes)
        for mode in modes[turn:] + modes[:turn]:
            t0 = time.perf_counter()
            state = workload.setup(index)
            setups.append(time.perf_counter() - t0)
            try:
                if mode == "traced":
                    instrumentation = ledger.Instrumentation(recorder)
                    instrumentation.install()
                    try:
                        result = workload.run_pass(state, index)
                    finally:
                        instrumentation.uninstall()
                        recorder.absorb_spills()
                elif mode == "obs":
                    obs.set_enabled(True)
                    try:
                        result = workload.run_pass(state, index)
                    finally:
                        obs.set_enabled(False)
                else:
                    result = workload.run_pass(state, index)
            finally:
                workload.teardown(state)
            passes[mode].append(result)
            index += 1
        if not trace:
            imports.append(import_seconds())
        elapsed = time.perf_counter() - started
        samples = sum(len(p.latencies_s) for p in passes["plain"])
        if elapsed >= HARD_CAP_S:
            break
        if elapsed >= seconds and (trace or samples >= workload.min_samples):
            break
    while not trace and len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds())
    return passes, setups, imports


def end_to_end_metrics(workload, passes, setups, imports) -> dict:
    from perfbench import stats
    from perfbench.workloads import reference_paper_error

    plain = passes["plain"]
    latencies = [x for p in plain for x in p.latencies_s]
    _, beyond = stats.nearest_rank(latencies, 99)
    if workload.min_samples:
        # Serve: pooled job latencies, enough of them for a real p99.
        p50, _ = stats.nearest_rank(latencies, 50)
        p99 = stats.tail_percentile(latencies, 99)
    else:
        # Sweeps: cell completion times within a pass, median over passes.
        p50 = stats.median(stats.nearest_rank(p.latencies_s, 50)[0] for p in plain)
        p99 = stats.median(stats.nearest_rank(p.latencies_s, 99)[0] for p in plain)
    print(
        f"perfbench: {len(plain)} timed passes "
        f"({', '.join(f'{p.wall_s:.3f}' for p in plain)} s), "
        f"{len(latencies)} latency samples ({beyond} beyond p99)",
        file=sys.stderr,
    )
    serial = getattr(workload, "serial_wall_s", None)
    if serial is not None:
        print(f"perfbench: serial in-process sweep of the same cells: {serial:.3f} s",
              file=sys.stderr)
    return {
        "setup_s": stats.median(imports) + stats.median(setups),
        "wall_s": stats.median(p.wall_s for p in plain),
        "sim_minstr_per_s": stats.median(p.instructions / p.wall_s / 1e6 for p in plain),
        "cells_per_s": stats.median(p.cells / p.wall_s for p in plain),
        "jobs_per_s": stats.median(p.jobs / p.wall_s for p in plain),
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
        "paper_err": reference_paper_error(),
    }


def per_layer_metrics(workload_name, passes, recorder) -> dict:
    from perfbench import ledger, stats

    traced = passes["traced"]
    n = len(traced)
    totals, other_ns, wall_ns = ledger.layer_totals(
        recorder.spans, [p.window_ns for p in traced]
    )
    print(ledger.format_ledger(workload_name, totals, other_ns, wall_ns, n),
          file=sys.stderr)
    empty = ledger.LayerTotals()

    def t(layer):
        return totals.get(layer, empty)

    def per_pass_s(value_ns):
        return value_ns / 1e9 / n

    def ratio(num, den):
        return num / den if den else 0.0

    counters: "dict[str, float]" = {}
    for p in traced:
        for key, value in p.counters.items():
            counters[key] = counters.get(key, 0) + value
    jobs = sum(p.jobs for p in traced)
    sweeps = ("experiments.cpu_sweep", "experiments.gpu_sweep", "experiments.dvfs_sweep")

    def paired_ratio(mode_passes, plain_passes):
        # Median over rounds of this mode's wall over the same round's
        # untraced wall: slow drift of the host cancels within a round.
        ratios = [a.wall_s / b.wall_s for a, b in zip(mode_passes, plain_passes)]
        print(f"perfbench: per-round ratios {', '.join(f'{x:.3f}' for x in ratios)}",
              file=sys.stderr)
        return stats.median(ratios)
    metrics = {
        "workloads.trace_generate_s": per_pass_s(t("workloads.trace_generate").inclusive_ns),
        "workloads.trace_generate_calls": t("workloads.trace_generate").calls / n,
        "workloads.trace_cache_hit_ratio": ratio(
            counters.get("trace_cache_hits", 0),
            counters.get("trace_cache_hits", 0) + counters.get("trace_cache_misses", 0),
        ),
        "mem.prewarm_s": per_pass_s(t("mem.prewarm").inclusive_ns),
        "mem.prewarm_calls": t("mem.prewarm").calls / n,
        "cpu.engine_s": per_pass_s(t("cpu.engine").inclusive_ns),
        "cpu.engine_calls": t("cpu.engine").calls / n,
        "cpu.engine_ns_per_instr": ratio(
            t("cpu.engine").inclusive_ns, t("cpu.engine").counts.get("instructions", 0)
        ),
        "gpu.engine_s": per_pass_s(t("gpu.engine").inclusive_ns),
        "gpu.vectorized_share": ratio(
            t("gpu.engine").counts.get("vectorized", 0), t("gpu.engine").counts.get("cells", 0)
        ),
        "power.evaluate_s": per_pass_s(t("power.evaluate").inclusive_ns),
        "core.simulate_self_s": per_pass_s(t("core.simulate").self_ns),
        "core.dvfs_s": per_pass_s(t("core.dvfs").inclusive_ns),
        "experiments.cpu_sweep_s": per_pass_s(t("experiments.cpu_sweep").inclusive_ns),
        "experiments.gpu_sweep_s": per_pass_s(t("experiments.gpu_sweep").inclusive_ns),
        "experiments.dvfs_sweep_s": per_pass_s(t("experiments.dvfs_sweep").inclusive_ns),
        "experiments.runner_self_s": per_pass_s(sum(t(s).self_ns for s in sweeps)),
        "experiments.report_render_s": per_pass_s(t("experiments.report_render").inclusive_ns),
        "resilience.pool_run_s": per_pass_s(t("resilience.pool_run").inclusive_ns),
        "resilience.pool_utilization": counters.get("pool_utilization", 0) / n,
        "resilience.shm_export_s": per_pass_s(t("resilience.shm_export").inclusive_ns),
        "resilience.checkpoint_flush_s": per_pass_s(
            t("resilience.checkpoint_flush").inclusive_ns
        ),
        "resilience.checkpoint_flush_calls": t("resilience.checkpoint_flush").calls / n,
        "resilience.retries": counters.get("retries", 0) / n,
        "store.put_s": per_pass_s(t("store.put").inclusive_ns),
        "store.put_calls": t("store.put").calls / n,
        "store.get_s": per_pass_s(t("store.get").inclusive_ns),
        "store.get_calls": t("store.get").calls / n,
        "store.hit_ratio": ratio(t("store.get").counts.get("hits", 0), t("store.get").calls),
        "serve.submit_ms": ratio(t("serve.submit").inclusive_ns / 1e6, t("serve.submit").calls),
        "serve.polls_per_job": ratio(t("serve.poll").calls, jobs),
        "serve.run_cell_s": per_pass_s(t("serve.run_cell").inclusive_ns),
        "serve.dedupe_share": ratio(counters.get("deduplicated", 0), jobs),
        "serve.retried_requests": counters.get("client_retries", 0) / n,
        "obs.trace_overhead_ratio": paired_ratio(traced, passes["plain"]),
        "obs.enabled_overhead_ratio": paired_ratio(passes["obs"], passes["plain"]),
        "other.self_s": per_pass_s(other_ns),
    }
    if workload_name == "paper-serial":
        order = [
            ("cpu.engine", metrics["cpu.engine_s"]),
            ("mem.prewarm", metrics["mem.prewarm_s"]),
            ("workloads.trace_generate", metrics["workloads.trace_generate_s"]),
        ]
        ranked = [name for name, _ in sorted(order, key=lambda kv: -kv[1])]
        verdict = "matches" if ranked == [name for name, _ in order] else "differs from"
        print(f"profile order {' > '.join(ranked)} {verdict} the ROADMAP profile "
              f"(engine > prewarm > trace generation)", file=sys.stderr)
    return metrics


def count_failures(passes, problems) -> int:
    """Failed operations of a run.

    A pass-level problem (a report or mapping digest that differs) makes
    every job of every pass wrong, so it fails them all rather than one.
    """
    if problems:
        return sum(p.jobs for p in passes)
    return sum(p.failed for p in passes)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from perfbench import ledger
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    recorder = None
    if trace:
        spill_dir = workdir / "spans"
        spill_dir.mkdir()
        recorder = ledger.SpanRecorder(str(spill_dir))
    passes, setups, imports = run_passes(workload, seconds, trace, recorder)

    everything = [p for mode in passes.values() for p in mode]
    problems = workload.check(everything)
    for problem in problems:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    attempted = sum(p.jobs for p in everything)
    failed = count_failures(everything, problems)

    if trace:
        metrics = per_layer_metrics(name, passes, recorder)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.dump(OUT_DIR / f"spans-{name}-seed{seed}.json")
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(workload, passes, setups, imports)
        metrics["ok_share"] = 1.0 - failed / attempted
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _stop_resource_tracker() -> None:
    """Stop the helper process shared-memory segments start, and wait."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Runs are shaped by the arguments alone, never by the caller's
    # REPRO_* settings; scratch files stay inside the checkout.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        import_program()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
        if "multiprocessing.resource_tracker" in sys.modules:
            _stop_resource_tracker()
    print(json.dumps(result))
    # A wrong answer fails the run, whatever the timings say.
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
