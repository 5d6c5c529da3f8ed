"""Process-isolated sweep executor: supervision, containment, determinism.

Covers the :class:`repro.resilience.pool.SweepPool` supervisor end to
end: hard-kill timeouts (no zombie PIDs), crash containment (a worker
SIGKILLed mid-cell costs one attempt), bounded requeue, fault-plan
propagation into workers, checkpoint-backed resume after the *parent* is
killed, and serial-vs-parallel report identity.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.experiments.runner import (
    SweepRunner,
    SweepSettings,
    _resolve_isolation,
)
from repro.resilience import (
    CellTask,
    FaultInjector,
    FaultPlan,
    GuardPolicy,
    SweepPool,
    faults,
)

#: Tiny-but-valid sizing for tests that really simulate.
SMALL = dict(instructions=2_000, apps=["lu"], kernels=["DCT"])

#: src/ directory, for subprocess PYTHONPATH.
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def small_runner(**kwargs) -> SweepRunner:
    policy = kwargs.pop("policy", GuardPolicy(backoff_base_s=0.0, jitter=0.0))
    return SweepRunner(SweepSettings(**SMALL), policy=policy, **kwargs)


def _cli_env(instructions: int = 6_000) -> dict:
    """Subprocess environment: import path plus tiny sweep sizing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_INSTRUCTIONS"] = str(instructions)
    env["REPRO_APPS"] = "lu"
    return env


# ---------------------------------------------------------------------
# isolation resolution
# ---------------------------------------------------------------------

def test_resolve_isolation_defaults_and_rejections():
    assert _resolve_isolation(1, None) == "thread"
    assert _resolve_isolation(4, None) == "process"
    assert _resolve_isolation(1, "process") == "process"
    assert _resolve_isolation(1, "thread") == "thread"
    with pytest.raises(ValueError, match="isolation='process'"):
        _resolve_isolation(2, "thread")
    with pytest.raises(ValueError, match="unknown isolation"):
        _resolve_isolation(1, "fibers")
    with pytest.raises(ValueError, match="workers"):
        _resolve_isolation(0, None)


def test_cli_rejects_parallel_thread_isolation():
    from repro.cli import main

    assert main(["sweep", "BaseCMOS", "--workers", "2",
                 "--isolation", "thread"]) == 2
    assert main(["sweep", "BaseCMOS", "--workers", "0"]) == 2


# ---------------------------------------------------------------------
# clean parallel execution
# ---------------------------------------------------------------------

def test_parallel_cpu_sweep_matches_serial():
    configs = ["BaseCMOS", "AdvHet"]
    serial = small_runner().cpu_sweep(configs)

    runner = small_runner()
    parallel = runner.cpu_sweep(configs, workers=2)

    assert parallel == serial  # dataclass-deep, bit-exact floats
    assert runner.failures == {}
    counts = runner.telemetry.pool_counts()
    assert counts["spawned"] == 2 and counts["completed"] == 2
    assert 0.0 < runner.telemetry.pool_utilization <= 1.0
    assert multiprocessing.active_children() == []


def test_parallel_gpu_and_dvfs_sweeps_match_serial():
    points = [("BaseCMOS", "lu", 2.0, False), ("AdvHet", "lu", 1.0, True)]
    baseline = small_runner()
    serial_gpu = baseline.gpu_sweep(["BaseCMOS"])
    serial_dvfs = baseline.dvfs_sweep(points)

    runner = small_runner()
    assert runner.gpu_sweep(["BaseCMOS"], workers=2) == serial_gpu
    assert runner.dvfs_sweep(points, workers=2) == serial_dvfs
    assert runner.failures == {}
    assert multiprocessing.active_children() == []


def test_parallel_sweep_serves_cached_cells_without_spawning():
    runner = small_runner()
    runner.cpu_sweep(["BaseCMOS"], workers=2)
    spawned_before = runner.telemetry.pool_counts()["spawned"]
    runner.cpu_sweep(["BaseCMOS"], workers=2)
    assert runner.telemetry.pool_counts()["spawned"] == spawned_before
    hits, _misses = runner.telemetry.cache_counts()["cpu"]
    assert hits == 1


# ---------------------------------------------------------------------
# crash containment: worker SIGKILLed mid-cell
# ---------------------------------------------------------------------

def test_worker_sigkill_retried_then_crash_gap():
    # The installed plan travels via the worker spec -- no env involved.
    assert "REPRO_FAULTS" not in os.environ
    faults.install(FaultInjector(FaultPlan(die_p=1.0)))
    runner = small_runner(
        policy=GuardPolicy(max_retries=1, backoff_base_s=0.0, jitter=0.0)
    )

    results = runner.cpu_sweep(["BaseCMOS"], workers=2)

    assert results["BaseCMOS"]["lu"] is None
    failure = runner.failures[("cpu", "BaseCMOS", "lu")]
    assert failure.kind == "crash"
    assert failure.attempts == 2  # first attempt + one requeue
    assert "killed by SIGKILL" in failure.message
    counts = runner.telemetry.pool_counts()
    assert counts["spawned"] == 2
    assert counts["crashed"] == 2
    assert counts["requeued"] == 1
    # Requeues mirror into the serial retry counter for dashboards/CI.
    assert runner.telemetry.retry_counts()["cpu"] == 1
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------
# hard timeouts: hung worker SIGKILLed, no zombie PID
# ---------------------------------------------------------------------

def test_hung_worker_sigkilled_within_budget_no_zombie_pid():
    faults.install(FaultInjector(FaultPlan(hang_p=1.0, hang_s=60.0)))
    settings = SweepSettings(**SMALL)
    pids: "list[int]" = []
    events: "list[str]" = []

    def on_event(event: str, info: dict) -> None:
        events.append(event)
        if event == "spawned":
            pids.append(info["pid"])

    pool = SweepPool(
        policy=GuardPolicy(timeout_s=1.0, max_retries=0,
                           backoff_base_s=0.0, jitter=0.0),
        instructions=settings.instructions,
        warmup=settings.warmup,
        workers=1,
        on_event=on_event,
    )
    start = time.monotonic()
    (outcome,) = pool.run([CellTask("cpu", "BaseCMOS", "lu")])
    elapsed = time.monotonic() - start

    assert elapsed < 10.0  # far below the injected 60s hang
    assert not outcome.ok
    assert outcome.failure.kind == "timeout"
    assert "SIGKILLed" in outcome.failure.message
    assert "killed" in events
    assert pids
    for pid in pids:  # SIGKILLed *and reaped*: the PID is gone
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------
# deterministic replay: faulted parallel sweep == faulted serial sweep
# ---------------------------------------------------------------------

def test_faulted_parallel_sweep_replays_serial_schedule():
    plan = FaultPlan(fail_p=0.35, corrupt_p=0.25, seed=11)
    configs = ["BaseCMOS", "BaseHet", "AdvHet"]

    def policy() -> GuardPolicy:
        return GuardPolicy(max_retries=2, backoff_base_s=0.0, jitter=0.0)

    faults.install(FaultInjector(plan))
    serial = small_runner(policy=policy())
    serial_results = serial.cpu_sweep(configs)

    faults.reset()
    faults.install(FaultInjector(plan))
    parallel = small_runner(policy=policy())
    parallel_results = parallel.cpu_sweep(configs, workers=4)

    # Same successes (bit-exact) and the same gaps...
    assert parallel_results == serial_results
    assert set(parallel.failures) == set(serial.failures)
    # ...reached through the same per-cell attempt schedule, because
    # fault draws key on (cell, attempt), never on process identity.
    for cell, failure in serial.failures.items():
        twin = parallel.failures[cell]
        assert (twin.kind, twin.attempts) == (failure.kind, failure.attempts)
    assert parallel.telemetry.retry_counts() == serial.telemetry.retry_counts()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------
# parent killed mid-sweep: --resume executes only the gaps
# ---------------------------------------------------------------------

def test_parent_killed_mid_sweep_then_resume_fills_gaps(tmp_path):
    env = _cli_env(instructions=60_000)
    checkpoint = tmp_path / "sweep.ckpt.json"
    configs = ["BaseCMOS", "BaseTFET", "BaseHet", "AdvHet"]
    cmd = [
        sys.executable, "-m", "repro", "sweep", *configs,
        "--checkpoint", str(checkpoint),
        "--workers", "1", "--isolation", "process",
    ]

    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        # Wait for the first cell to be durable in the checkpoint, then
        # kill the parent outright (each save is atomic, so whatever
        # state we hit mid-save still loads).
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if any(checkpoint.rglob("*.json")) or proc.poll() is not None:
                break
            time.sleep(0.01)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=30)
    assert any(checkpoint.rglob("*.json"))

    resumed = subprocess.run(
        cmd + ["--resume", "--json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(resumed.stdout)
    assert payload["failures"] == []
    assert all(
        run is not None
        for row in payload["cells"].values()
        for run in row.values()
    )
    cache = payload["telemetry"]["cache"]["cpu"]
    loaded = payload["telemetry"]["checkpoint"]["entries_loaded"]
    # Race-proof accounting: whatever had been flushed before the kill
    # is served from the checkpoint; only the gaps re-execute.
    assert loaded >= 1
    assert cache["hits"] == loaded
    assert cache["hits"] + cache["misses"] == len(configs)


# ---------------------------------------------------------------------
# byte-identical reports: serial vs --workers 4
# ---------------------------------------------------------------------

def test_parallel_report_is_byte_identical_to_serial():
    env = _cli_env(instructions=6_000)
    base = [sys.executable, "-m", "repro", "sweep",
            "BaseCMOS", "AdvHet", "--json"]

    serial = subprocess.run(
        base, env=env, capture_output=True, text=True, timeout=300
    )
    parallel = subprocess.run(
        base + ["--workers", "4", "--isolation", "process"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert serial.returncode == 0, serial.stderr
    assert parallel.returncode == 0, parallel.stderr

    serial_doc = json.loads(serial.stdout)
    parallel_doc = json.loads(parallel.stdout)
    # Telemetry carries wall-clock times, which differ between any two
    # runs (serial reruns included); everything else must match exactly.
    serial_doc.pop("telemetry")
    parallel_doc.pop("telemetry")
    assert (
        json.dumps(parallel_doc, sort_keys=True)
        == json.dumps(serial_doc, sort_keys=True)
    )
