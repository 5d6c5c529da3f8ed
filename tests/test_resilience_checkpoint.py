"""Checkpoint round-trips, invalidation, and fail-soft loading."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import SweepRunner, SweepSettings
from repro.resilience import (
    CHECKPOINT_VERSION,
    FaultInjector,
    FaultPlan,
    SweepCheckpoint,
)
from repro.resilience import faults
from repro.resilience.checkpoint import (
    _digest,
    decode_cpu_result,
    decode_gpu_result,
    encode_cpu_result,
    encode_gpu_result,
)

SMALL = dict(instructions=2_000, apps=["lu"], kernels=["DCT"])


def make_runner(path, **kwargs) -> SweepRunner:
    return SweepRunner(SweepSettings(**SMALL), checkpoint=path, **kwargs)


@pytest.fixture
def ck_path(tmp_path):
    return tmp_path / "sweep.ckpt.json"


def test_codec_round_trip_is_lossless(ck_path):
    runner = make_runner(None)
    cpu = runner.cpu_run("AdvHet", "lu")
    gpu = runner.gpu_run("AdvHet", "DCT")
    assert decode_cpu_result(json.loads(json.dumps(encode_cpu_result(cpu)))) == cpu
    assert decode_gpu_result(json.loads(json.dumps(encode_gpu_result(gpu)))) == gpu


def test_checkpoint_round_trip_serves_cache_hits(ck_path):
    first = make_runner(ck_path)
    cpu = first.cpu_run("BaseCMOS", "lu")
    gpu = first.gpu_run("BaseCMOS", "DCT")
    dvfs = first.dvfs_run("BaseCMOS", "lu", 2.0, False)
    assert ck_path.exists()

    resumed = make_runner(ck_path, resume=True)
    assert resumed.telemetry.checkpoint_counts() == {
        "load": 1, "entries_loaded": 3,
    }
    assert resumed.cpu_run("BaseCMOS", "lu") == cpu
    assert resumed.gpu_run("BaseCMOS", "DCT") == gpu
    assert resumed.dvfs_run("BaseCMOS", "lu", 2.0, False) == dvfs
    counts = resumed.telemetry.cache_counts()
    for kind in ("cpu", "gpu", "dvfs"):
        assert counts[kind] == (1, 0), f"{kind} should be all hits"


def test_resume_requires_checkpoint():
    with pytest.raises(ValueError, match="resume=True requires a checkpoint"):
        SweepRunner(SweepSettings(**SMALL), resume=True)


def test_missing_and_corrupted_files_load_as_misses(ck_path):
    fingerprint = SweepSettings(**SMALL).fingerprint()
    assert SweepCheckpoint(ck_path).load(fingerprint) is None  # missing

    ck_path.write_text("this is not json{{{")
    assert SweepCheckpoint(ck_path).load(fingerprint) is None

    runner = make_runner(ck_path, resume=True)  # must not crash
    assert runner.telemetry.checkpoint_counts() == {"invalid": 1}
    assert runner.cpu_run("BaseCMOS", "lu") is not None  # re-executes fine


def test_truncated_file_loads_as_miss(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    text = ck_path.read_text()
    ck_path.write_text(text[: len(text) // 2])
    with pytest.warns(RuntimeWarning, match="torn write"):
        assert (
            SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint())
            is None
        )


def test_zero_byte_checkpoint_warns_and_loads_as_missing(ck_path):
    ck_path.write_text("")
    with pytest.warns(RuntimeWarning, match="empty"):
        assert (
            SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint())
            is None
        )
    # And the runner path: resume over the empty file re-executes fine.
    with pytest.warns(RuntimeWarning, match="empty"):
        runner = make_runner(ck_path, resume=True)
    assert runner.telemetry.checkpoint_counts() == {"invalid": 1}
    assert runner.cpu_run("BaseCMOS", "lu") is not None


def test_tampered_payload_fails_integrity_check(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    doc = json.loads(ck_path.read_text())
    entry = doc["payload"]["entries"]["cpu"][0]
    entry["result"]["time_s"] = 123.456  # bit-flip the measurement
    ck_path.write_text(json.dumps(doc))
    assert SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint()) is None


def test_version_mismatch_invalidates(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    doc = json.loads(ck_path.read_text())
    doc["payload"]["version"] = CHECKPOINT_VERSION + 1
    doc["integrity"] = _digest(doc["payload"])  # re-sign, still wrong version
    ck_path.write_text(json.dumps(doc))
    assert SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint()) is None


def test_settings_fingerprint_mismatch_invalidates(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    other = SweepRunner(
        SweepSettings(instructions=4_000, apps=["lu"], kernels=["DCT"]),
        checkpoint=ck_path,
        resume=True,
    )
    assert other.telemetry.checkpoint_counts() == {"invalid": 1}
    other.cpu_run("BaseCMOS", "lu")
    assert other.telemetry.cache_counts()["cpu"] == (0, 1)  # re-executed


def test_fingerprint_tracks_every_settings_field():
    base = SweepSettings(**SMALL)
    assert base.fingerprint() == SweepSettings(**SMALL).fingerprint()
    variants = [
        SweepSettings(instructions=3_000, apps=["lu"], kernels=["DCT"]),
        SweepSettings(instructions=2_000, apps=["fft"], kernels=["DCT"]),
        SweepSettings(instructions=2_000, apps=["lu"], kernels=["Reduction"]),
    ]
    for variant in variants:
        assert variant.fingerprint() != base.fingerprint()


def test_failures_are_persisted_in_checkpoint(ck_path):
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    runner = make_runner(ck_path)
    assert runner.cpu_cell("BaseCMOS", "lu") is None
    runner.save_checkpoint()
    data = SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint())
    assert data is not None and data.entries == 0
    (failure,) = data.failures
    assert failure.kind == "crash" and failure.config == "BaseCMOS"


def test_resume_executes_only_missing_cells(ck_path):
    class KillCell(FaultInjector):
        """Deterministically fail exactly one (config, app) cell."""

        def draw(self, run_kind, key):
            if key == ("AdvHet", "lu"):
                raise RuntimeError("poisoned cell")

    faults.install(KillCell(FaultPlan()))
    first = make_runner(ck_path)
    results = first.cpu_sweep(["BaseCMOS", "AdvHet"])
    assert results["BaseCMOS"]["lu"] is not None
    assert results["AdvHet"]["lu"] is None

    faults.reset()
    resumed = make_runner(ck_path, resume=True)
    results = resumed.cpu_sweep(["BaseCMOS", "AdvHet"])
    assert all(run is not None for run in (r["lu"] for r in results.values()))
    # Exactly the one gap was executed; the rest came from the checkpoint.
    assert resumed.telemetry.cache_counts()["cpu"] == (1, 1)
    assert resumed.failures == {}


def test_checkpoint_saves_are_atomic_after_each_run(ck_path):
    runner = make_runner(ck_path)
    runner.cpu_run("BaseCMOS", "lu")
    first = json.loads(ck_path.read_text())
    assert len(first["payload"]["entries"]["cpu"]) == 1
    runner.gpu_run("BaseCMOS", "DCT")
    second = json.loads(ck_path.read_text())
    assert len(second["payload"]["entries"]["gpu"]) == 1
    assert not ck_path.with_name(ck_path.name + ".tmp").exists()


# ---------------------------------------------------------------------
# advisory write lock: stale takeover, contention, clean release
# ---------------------------------------------------------------------

def _write_lock(path, pid, age_s=0.0):
    import os as _os
    import time as _time
    path.write_text(json.dumps({"pid": pid, "acquired_at": _time.time() - age_s}))
    _os.utime(path, (_time.time() - age_s,) * 2)


def test_lock_acquire_release_round_trip(tmp_path):
    from repro.resilience import CheckpointLock

    lock = CheckpointLock(tmp_path / "ck.lock", timeout_s=1.0)
    with lock:
        body = json.loads((tmp_path / "ck.lock").read_text())
        assert body["pid"] == __import__("os").getpid()
        with pytest.raises(RuntimeError, match="already held"):
            lock.acquire()
    assert not (tmp_path / "ck.lock").exists()
    assert lock.takeovers == 0


def test_lock_takes_over_dead_owner(tmp_path):
    import subprocess
    import sys

    from repro.resilience import CheckpointLock

    # A PID that provably existed and is now dead (spawned and reaped).
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    lock_path = tmp_path / "ck.lock"
    _write_lock(lock_path, proc.pid)  # fresh timestamp, dead owner

    lock = CheckpointLock(lock_path, stale_s=3600.0, timeout_s=1.0)
    lock.acquire()
    assert lock.takeovers == 1
    assert json.loads(lock_path.read_text())["pid"] != proc.pid
    lock.release()


def test_lock_takes_over_aged_lock_even_with_live_owner(tmp_path):
    from repro.resilience import CheckpointLock

    lock_path = tmp_path / "ck.lock"
    _write_lock(lock_path, __import__("os").getpid(), age_s=120.0)
    lock = CheckpointLock(lock_path, stale_s=30.0, timeout_s=1.0, poll_s=0.01)
    with lock:
        assert lock.takeovers == 1


def test_lock_takes_over_torn_body_via_mtime(tmp_path):
    import os as _os
    import time as _time

    from repro.resilience import CheckpointLock

    lock_path = tmp_path / "ck.lock"
    lock_path.write_text("not json{{{")
    _os.utime(lock_path, (_time.time() - 120.0,) * 2)
    lock = CheckpointLock(lock_path, stale_s=30.0, timeout_s=1.0, poll_s=0.01)
    with lock:
        assert lock.takeovers == 1


def test_lock_contention_times_out_against_live_owner(tmp_path):
    import subprocess
    import sys
    import time as _time

    from repro.resilience import CheckpointLock, CheckpointLockTimeout

    holder = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        lock_path = tmp_path / "ck.lock"
        _write_lock(lock_path, holder.pid)
        lock = CheckpointLock(
            lock_path, stale_s=3600.0, timeout_s=0.3, poll_s=0.02
        )
        start = _time.monotonic()
        with pytest.raises(CheckpointLockTimeout, match="live writer"):
            lock.acquire()
        assert _time.monotonic() - start < 5.0
        assert lock.takeovers == 0
    finally:
        holder.kill()
        holder.wait()


def test_checkpoint_save_leaves_no_lock_behind(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    assert ck_path.exists()
    assert not ck_path.with_name(ck_path.name + ".lock").exists()


def test_release_leaves_a_usurpers_lock_alone(tmp_path):
    """Regression: a holder whose lock was stale-broken (e.g. suspended
    past stale_s) must not unlink the contender's live lock on release."""
    import os as _os
    import time as _time

    from repro.resilience import CheckpointLock

    lock_path = tmp_path / "ck.lock"
    lock = CheckpointLock(lock_path, timeout_s=1.0)
    lock.acquire()
    # Simulate a takeover while we were suspended: a contender broke our
    # stale lock and wrote its own body (different token).
    usurper = json.dumps(
        {"pid": _os.getpid(), "acquired_at": _time.time(), "token": "theirs"}
    )
    lock_path.write_text(usurper)
    lock.release()
    assert lock_path.exists()
    assert json.loads(lock_path.read_text())["token"] == "theirs"
    # Idempotent: a second release stays a no-op.
    lock.release()
    assert lock_path.exists()


def test_break_stale_skips_a_lock_that_changed_hands(tmp_path):
    """Regression: between judging a lock stale and unlinking it, a
    contender may have broken it first and re-created the lock; the
    unlink must only remove the exact body that was judged stale."""
    import time as _time

    from repro.resilience import CheckpointLock

    lock_path = tmp_path / "ck.lock"
    _write_lock(lock_path, 1, age_s=120.0)  # aged body: stale
    lock = CheckpointLock(lock_path, stale_s=30.0, timeout_s=1.0)
    assert lock._is_stale()
    fresh = json.dumps(
        {"pid": 424242, "acquired_at": _time.time(), "token": "fresh"}
    )
    lock_path.write_text(fresh)  # the contender re-acquired first
    lock._break_stale()
    assert lock_path.exists()
    assert json.loads(lock_path.read_text()) == json.loads(fresh)
    assert lock.takeovers == 0


# ---------------------------------------------------------------------
# SIGKILL in the exact crash window: after temp fsync, before rename
# ---------------------------------------------------------------------

def test_sigkill_mid_checkpoint_flush_resumes_byte_identical(tmp_path):
    """A writer killed between temp-file fsync and rename loses exactly
    one flush: the previous checkpoint stays intact, the orphaned temp
    is swept on the next startup, and the resumed sweep's report is
    byte-identical to an uninterrupted serial run."""
    import os as _os
    import subprocess
    import sys

    src = str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src")
    env = dict(_os.environ)
    env["PYTHONPATH"] = src + _os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_INSTRUCTIONS"] = "2000"
    env["REPRO_APPS"] = "lu"
    env.pop("REPRO_DISKIO_CRASH_AFTER_TMP", None)
    configs = ["BaseCMOS", "AdvHet"]
    base = [sys.executable, "-m", "repro", "sweep", *configs, "--json"]

    serial = subprocess.run(
        base, env=env, capture_output=True, text=True, timeout=300
    )
    assert serial.returncode == 0, serial.stderr
    baseline = json.loads(serial.stdout)
    baseline.pop("telemetry")

    ck = tmp_path / "sweep.ckpt.json"
    chaos_env = dict(env)
    # The 2nd checkpoint write at this site dies after its temp file is
    # fsynced but before the rename -- the worst-possible instant.
    chaos_env["REPRO_DISKIO_CRASH_AFTER_TMP"] = "checkpoint:2"
    crashed = subprocess.run(
        base + ["--checkpoint", str(ck)],
        env=chaos_env, capture_output=True, text=True, timeout=300,
    )
    assert crashed.returncode == -9  # SIGKILLed itself in the window
    assert ck.exists()  # flush 1 survived the crash of flush 2
    orphans = [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
    assert orphans, "the crash window must strand the temp file"

    resumed = subprocess.run(
        base + ["--checkpoint", str(ck), "--resume"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    report = json.loads(resumed.stdout)
    loaded = report["telemetry"]["checkpoint"]["entries_loaded"]
    cache = report["telemetry"]["cache"]["cpu"]
    assert loaded == 1  # exactly the pre-crash flush
    assert cache["hits"] == 1 and cache["misses"] == 1
    report.pop("telemetry")
    assert json.dumps(report, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    # The resumed writer's startup sweep collected the stranded temp.
    assert not [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
