"""SimService end to end: serving, breaking, degrading, draining.

In-process tests drive a real :class:`SweepRunner` over tiny workloads;
the SIGTERM test exercises the full CLI path in a subprocess (follow-mode
intake, graceful drain, checkpoint flush, resume-serves-the-gaps).
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.resilience import FaultInjector, FaultPlan, GuardPolicy, faults
from repro.serve import BreakerPolicy, ServiceConfig, SimService, read_health

SMALL = dict(instructions=2_000, apps=["lu"], kernels=["DCT"])
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def make_runner(checkpoint=None, **kwargs) -> SweepRunner:
    policy = kwargs.pop(
        "policy",
        GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
    )
    return SweepRunner(
        SweepSettings(**SMALL), policy=policy, checkpoint=checkpoint, **kwargs
    )


def make_service(runner=None, **cfg_kwargs) -> SimService:
    cfg = ServiceConfig(
        workers=cfg_kwargs.pop("workers", 1),
        poll_s=cfg_kwargs.pop("poll_s", 0.01),
        **cfg_kwargs,
    )
    return SimService(runner or make_runner(), cfg)


def job(job_id, workload="lu", config="BaseCMOS", **kwargs) -> dict:
    return {
        "id": job_id, "run_kind": "cpu",
        "config": config, "workload": workload, **kwargs,
    }


def assert_accounting_closed(service: SimService) -> None:
    """Every submitted job reached exactly one terminal state."""
    c = service.counters
    pending = sum(
        1 for r in service.records()
        if r.status in ("pending", "running")
    )
    assert (
        c["submitted"]
        == c["served"] + c["failed"] + c["shed"] + c["cancelled"] + pending
    )


# ---------------------------------------------------------------------
# the happy path: jobs are served through the shared runner
# ---------------------------------------------------------------------

def test_submitted_jobs_are_served_with_results():
    service = make_service().start()
    ids = [service.submit(job("a", "lu"))[0],
           service.submit(job("b", "barnes"))[0]]
    assert service.wait_idle(timeout=60.0)
    for job_id in ids:
        record = service.poll(job_id)
        assert record.status == "served"
        assert record.result["time_s"] > 0.0
        assert record.result["ed2"] > 0.0
    assert service.counters["served"] == 2
    assert service.gap_count() == 0
    assert_accounting_closed(service)
    summary = service.shutdown()
    assert summary["counters"]["served"] == 2
    assert summary["telemetry"]["serve"]["served"] == 2


def test_submit_auto_ids_and_rejects_unknown_kind():
    service = make_service()
    job_id, admission = service.submit(
        {"run_kind": "cpu", "config": "BaseCMOS", "workload": "lu"}
    )
    assert job_id == "job-1" and admission.admitted
    with pytest.raises(ValueError, match="unknown run kind"):
        service.submit(job("bad") | {"run_kind": "quantum"})


# ---------------------------------------------------------------------
# admission control: structured rejections, no silent drops
# ---------------------------------------------------------------------

def test_queue_full_rejection_is_structured():
    service = make_service(capacity=1)  # not started: nothing pops
    assert service.submit(job("first"))[1].admitted
    _, admission = service.submit(job("second"))
    assert (admission.admitted, admission.reason) == (False, "queue_full")
    assert service.poll("second") is None  # record rolled back
    counters = service.counters
    assert counters == counters | {"submitted": 2, "admitted": 1, "shed": 1}
    assert service.telemetry.shed_counts()["queue_full"] == 1
    assert_accounting_closed(service)


def test_duplicate_of_active_job_is_rejected_synchronously():
    service = make_service(capacity=8)
    assert service.submit(job("twin"))[1].admitted
    _, admission = service.submit(job("twin"))
    assert (admission.admitted, admission.reason) == (False, "duplicate_id")
    assert service.poll("twin").status == "pending"  # original untouched


def test_cancel_before_start_is_terminal_and_accounted():
    service = make_service(capacity=8)
    service.submit(job("doomed"))
    assert service.cancel("doomed") is True
    assert service.cancel("doomed") is False
    record = service.poll("doomed")
    assert (record.status, record.shed_reason) == ("cancelled", "cancelled")
    assert service.counters["cancelled"] == 1
    assert_accounting_closed(service)


# ---------------------------------------------------------------------
# circuit breaking: persistent crashes shed instead of burning retries
# ---------------------------------------------------------------------

def test_breaker_trips_and_sheds_after_consecutive_crashes():
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    service = make_service(
        breaker=BreakerPolicy(failure_threshold=2, recovery_s=60.0,
                              max_recovery_s=600.0),
    )
    service.start()
    for i, workload in enumerate(["lu", "barnes", "radix", "fft"]):
        service.submit(job(f"a{i}", workload))
    assert service.wait_idle(timeout=60.0)

    statuses = {r.job.job_id: r.status for r in service.records()}
    assert statuses == {"a0": "failed", "a1": "failed",
                        "a2": "shed", "a3": "shed"}
    for job_id in ("a2", "a3"):
        record = service.poll(job_id)
        assert record.shed_reason == "breaker_open"
        assert record.failure.kind == "shed"  # a recorded gap, attempts=0
        assert record.failure.attempts == 0
    snap = service.breakers.states()["cpu/BaseCMOS"]
    assert snap["state"] == "open" and snap["trips"] == 1
    # Shed gaps land in the shared failure taxonomy next to the crashes.
    kinds = {cell[2]: f.kind for cell, f in service.runner.failures.items()}
    assert kinds == {"lu": "crash", "barnes": "crash",
                     "radix": "shed", "fft": "shed"}
    assert service.telemetry.serve_counts()["breaker.opened"] == 1
    assert service.telemetry.shed_counts()["breaker_open"] == 2
    assert_accounting_closed(service)
    service.shutdown(drain_deadline_s=1.0)


def test_breaker_recovers_after_faults_clear():
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    clock = [1000.0]
    service = SimService(
        make_runner(),
        ServiceConfig(
            workers=1, poll_s=0.01,
            breaker=BreakerPolicy(failure_threshold=1, recovery_s=30.0,
                                  max_recovery_s=300.0),
        ),
        clock=lambda: clock[0],
    )
    service.start()
    service.submit(job("boom"))
    assert service.wait_idle(timeout=60.0)
    assert service.poll("boom").status == "failed"
    breaker = service.breakers.breaker_for("cpu", "BaseCMOS")
    assert breaker.state == "open"

    faults.reset()
    clock[0] += 31.0  # past recovery: the next job is the probe
    service.submit(job("probe"))
    assert service.wait_idle(timeout=60.0)
    assert service.poll("probe").status == "served"
    assert breaker.state == "closed"
    service.shutdown(drain_deadline_s=1.0)


# ---------------------------------------------------------------------
# degraded mode: spawn failures fall back to thread isolation
# ---------------------------------------------------------------------

def test_repeated_spawn_failures_degrade_to_thread_isolation():
    runner = make_runner()
    real_run_cell = runner.run_cell
    spawn_attempts = []

    def refusing_run_cell(run_kind, config, workload, extra=(), *,
                         isolation="thread"):
        if isolation == "process":
            spawn_attempts.append(config)
            raise OSError("Resource temporarily unavailable")
        return real_run_cell(run_kind, config, workload, extra,
                             isolation=isolation)

    runner.run_cell = refusing_run_cell
    service = make_service(
        runner, isolation="process", spawn_failure_threshold=2,
    )
    service.start()
    for i in range(3):
        service.submit(job(f"d{i}", ["lu", "barnes", "radix"][i]))
    assert service.wait_idle(timeout=60.0)

    # Every job still served (thread fallback), service now degraded.
    assert all(r.status == "served" for r in service.records())
    assert service.degraded
    assert len(spawn_attempts) == 2  # threshold hit -> stop trying process
    assert service.health_snapshot().isolation == "thread"
    counts = service.telemetry.serve_counts()
    assert counts["degraded"] == 1
    assert counts["spawn_failure"] == 2
    service.shutdown(drain_deadline_s=1.0)


# ---------------------------------------------------------------------
# graceful drain: queued and stuck jobs become resumable gaps
# ---------------------------------------------------------------------

def test_drain_sheds_queued_jobs_and_resume_serves_only_gaps(tmp_path):
    ck_path = tmp_path / "serve.ckpt.json"
    runner = make_runner(checkpoint=ck_path)
    release = threading.Event()
    started = threading.Event()
    real_run_cell = runner.run_cell

    def gated_run_cell(run_kind, config, workload, extra=(), *,
                       isolation="thread"):
        started.set()
        release.wait(30.0)
        return real_run_cell(run_kind, config, workload, extra,
                             isolation=isolation)

    runner.run_cell = gated_run_cell
    service = make_service(runner)
    service.start()
    for i, workload in enumerate(["lu", "barnes", "radix"]):
        service.submit(job(f"g{i}", workload))
    assert started.wait(10.0)  # g0 is in flight, g1/g2 queued
    service.request_shutdown()
    release.set()  # the in-flight job finishes inside the drain window
    summary = service.shutdown(drain_deadline_s=10.0)

    statuses = {r.job.job_id: (r.status, r.shed_reason)
                for r in service.records()}
    assert statuses == {"g0": ("served", None),
                        "g1": ("shed", "draining"),
                        "g2": ("shed", "draining")}
    assert summary["counters"]["drained"] == 2
    assert_accounting_closed(service)

    # The checkpoint serves the finished cell and re-executes exactly
    # the two drained gaps.
    resumed = make_runner(checkpoint=ck_path, resume=True)
    second = make_service(resumed)
    second.start()
    for i, workload in enumerate(["lu", "barnes", "radix"]):
        second.submit(job(f"g{i}", workload))
    assert second.wait_idle(timeout=60.0)
    assert all(r.status == "served" for r in second.records())
    assert resumed.telemetry.cache_counts()["cpu"] == (1, 2)
    second.shutdown(drain_deadline_s=1.0)


def test_drain_deadline_reports_stuck_thread_job_as_gap():
    runner = make_runner()
    release = threading.Event()
    started = threading.Event()

    def stuck_run_cell(run_kind, config, workload, extra=(), *,
                       isolation="thread"):
        started.set()
        release.wait(60.0)
        return None

    runner.run_cell = stuck_run_cell
    service = make_service(runner)
    service.start()
    service.submit(job("wedged"))
    assert started.wait(10.0)
    summary = service.shutdown(drain_deadline_s=0.2)
    record = service.poll("wedged")
    assert (record.status, record.shed_reason) == ("shed", "draining")
    assert "drain deadline" in record.detail
    assert summary["counters"]["drained"] == 1
    assert_accounting_closed(service)
    release.set()  # let the abandoned daemon thread exit


# ---------------------------------------------------------------------
# JSONL intake
# ---------------------------------------------------------------------

def test_intake_submits_valid_lines_and_counts_malformed(tmp_path):
    jobs_file = tmp_path / "jobs.jsonl"
    jobs_file.write_text("\n".join([
        "# batch of two, plus garbage",
        json.dumps(job("ok-1", "lu")),
        "",
        "{not json at all",
        json.dumps(job("ok-2", "barnes")),
        json.dumps({"run_kind": "quantum", "config": "X", "workload": "lu"}),
        json.dumps({"run_kind": "cpu", "workload": "lu"}),  # no config
    ]) + "\n")
    service = make_service(capacity=8)
    narrated = []
    submitted, malformed = service.intake(
        str(jobs_file), on_line=lambda line, adm: narrated.append(line)
    )
    assert (submitted, malformed) == (2, 3)
    assert service.counters["intake_malformed"] == 3
    assert service.poll("ok-1").status == "pending"
    assert service.poll("ok-2").status == "pending"
    assert sum("malformed" in line for line in narrated) == 3


def test_intake_follow_tails_until_shutdown(tmp_path):
    jobs_file = tmp_path / "jobs.jsonl"
    jobs_file.write_text(json.dumps(job("f0")) + "\n")
    service = make_service(capacity=8)  # not started: jobs stay queued

    def feed():
        time.sleep(0.15)
        with open(jobs_file, "a") as handle:
            handle.write(json.dumps(job("f1", "barnes")) + "\n")
        time.sleep(0.15)
        service.request_shutdown()

    feeder = threading.Thread(target=feed)
    feeder.start()
    submitted, malformed = service.intake(
        str(jobs_file), follow=True, poll_s=0.02
    )
    feeder.join()
    assert (submitted, malformed) == (2, 0)
    assert service.poll("f1") is not None


def test_intake_follow_survives_rotation_and_truncation(tmp_path):
    jobs_file = tmp_path / "jobs.jsonl"
    jobs_file.write_text(json.dumps(job("r0")) + "\n")
    service = make_service(capacity=16)  # not started: jobs stay queued
    narrated = []

    def feed():
        time.sleep(0.15)
        # Rotation: the tailed file is renamed away and a new file
        # appears at the same path (new inode, fresh offset).
        jobs_file.rename(tmp_path / "jobs.jsonl.1")
        jobs_file.write_text(json.dumps(job("r1", "barnes")) + "\n")
        time.sleep(0.15)
        # Truncation: the file shrinks below the read position in place.
        jobs_file.write_text(json.dumps(job("r2", "radix")) + "\n")
        time.sleep(0.15)
        service.request_shutdown()

    feeder = threading.Thread(target=feed)
    feeder.start()
    submitted, malformed = service.intake(
        str(jobs_file), follow=True, poll_s=0.02,
        on_line=lambda line, adm: narrated.append(line),
    )
    feeder.join()
    assert malformed == 0
    # Every job in every incarnation of the file was picked up; without
    # the reopen the tail would stall at an offset past the new EOF.
    for job_id in ("r0", "r1", "r2"):
        assert service.poll(job_id) is not None, job_id
    assert service.counters["intake_rotated"] == 2
    assert sum("rotated or truncated" in line for line in narrated) == 2


# ---------------------------------------------------------------------
# health snapshots
# ---------------------------------------------------------------------

def test_health_file_tracks_lifecycle(tmp_path):
    health_file = tmp_path / "health.json"
    service = make_service(
        health_file=str(health_file), health_interval_s=0.0, capacity=2,
    )
    service.start()
    snap = read_health(health_file)
    assert snap is not None and snap.alive and snap.ready
    assert (snap.queue_capacity, snap.workers) == (2, 1)
    service.submit(job("h0"))
    assert service.wait_idle(timeout=60.0)
    service.shutdown(drain_deadline_s=1.0)
    final = read_health(health_file)
    assert final.alive is False and final.draining is True
    assert final.counters["served"] == 1
    # describe() renders without raising and mentions the served count.
    assert "served=1" in final.describe()


def test_stale_health_snapshot_reports_dead(tmp_path):
    health_file = tmp_path / "health.json"
    service = make_service(health_file=str(health_file))
    service.start()
    service.shutdown(drain_deadline_s=0.1)
    from repro.resilience import diskio

    doc = diskio.read_record(health_file, site="test")
    doc["alive"] = True
    doc["ready"] = True
    doc["updated_at"] = doc["updated_at"] - 3600.0  # an hour ago
    diskio.write_record(health_file, doc, site="test")
    snap = read_health(health_file)
    assert snap.alive is False and snap.ready is False
    assert read_health(tmp_path / "missing.json") is None


# ---------------------------------------------------------------------
# SIGTERM: graceful drain through the real CLI, then resume
# ---------------------------------------------------------------------

def test_sigterm_drains_flushes_checkpoint_and_resume_serves_gaps(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_INSTRUCTIONS"] = "60000"
    env["REPRO_APPS"] = "lu"
    jobs_file = tmp_path / "jobs.jsonl"
    checkpoint = tmp_path / "serve.ckpt.json"
    health_file = tmp_path / "health.json"
    configs = ["BaseCMOS", "BaseTFET", "BaseHet", "AdvHet", "AdvHet-2X"]
    jobs_file.write_text("".join(
        json.dumps({"id": f"s{i}", "run_kind": "cpu",
                    "config": config, "workload": "lu"}) + "\n"
        for i, config in enumerate(configs)
    ))
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--jobs", str(jobs_file), "--follow",
        "--checkpoint", str(checkpoint),
        "--health-file", str(health_file),
        "--drain-deadline", "5",
    ]
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # Wait for the first served job's checkpoint save, then TERM.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if any(checkpoint.rglob("*.json")) or proc.poll() is not None:
                break
            time.sleep(0.01)
        assert proc.poll() is None, proc.stderr.read()
        proc.send_signal(signal.SIGTERM)
        stderr = proc.communicate(timeout=60.0)[1]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    # Unfinished jobs existed, so the drain reports gaps: exit code 3.
    assert proc.returncode == 3, stderr
    snap = read_health(health_file)
    assert snap is not None
    assert snap.draining is True and snap.alive is False
    assert snap.counters["served"] >= 1
    assert snap.counters["shed"] >= 1
    assert snap.counters["served"] + snap.counters["shed"] == len(configs)

    # Resume against the same checkpoint: only the gaps execute.
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "serve",
         "--jobs", str(jobs_file),
         "--checkpoint", str(checkpoint), "--resume", "--json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(resumed.stdout)
    assert payload["counters"]["served"] == len(configs)
    assert payload["counters"]["shed"] == 0
    cache = payload["telemetry"]["cache"]["cpu"]
    assert cache["hits"] == snap.counters["served"]
    assert cache["hits"] + cache["misses"] == len(configs)


# ---------------------------------------------------------------------
# shutdown vs. late-finishing abandoned workers
# ---------------------------------------------------------------------

def test_late_thread_finish_does_not_double_count_after_shutdown():
    """Regression: shutdown reports an abandoned thread-isolation job as
    a drained ``shed`` gap; if the daemon thread later finishes anyway,
    the job must not be re-counted as served/failed (which would break
    submitted == served + failed + shed + cancelled)."""
    runner = make_runner()
    release = threading.Event()
    started = threading.Event()

    def stuck_run_cell(run_kind, config, workload, extra=(), *,
                       isolation="thread"):
        started.set()
        release.wait(60.0)
        return None  # a late finish that would have recorded "failed"

    runner.run_cell = stuck_run_cell
    service = make_service(runner)
    service.start()
    service.submit(job("wedged"))
    assert started.wait(10.0)
    summary = service.shutdown(drain_deadline_s=0.2)
    assert summary["counters"] == service.counters
    assert service.counters["shed"] == 1
    # Let the abandoned worker finish and its dispatcher thread exit.
    release.set()
    for thread in service._threads:
        thread.join(10.0)
    assert not any(t.is_alive() for t in service._threads)
    record = service.poll("wedged")
    assert (record.status, record.shed_reason) == ("shed", "draining")
    c = service.counters
    assert (c["served"], c["failed"], c["shed"]) == (0, 0, 1)
    assert_accounting_closed(service)
