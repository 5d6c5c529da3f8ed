"""Checkpoint round-trips, invalidation, and fail-soft reads.

A checkpoint is a result store at the ``--checkpoint`` path: each
executed cell is one durable object, and a resume reads through it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.resilience import FaultInjector, FaultPlan, SweepCheckpoint
from repro.resilience import diskio, faults
from repro.store.cas import (
    ENTRY_SCHEMA,
    decode_cpu_result,
    decode_gpu_result,
    encode_cpu_result,
    encode_gpu_result,
)

SMALL = dict(instructions=2_000, apps=["lu"], kernels=["DCT"])
FINGERPRINT = SweepSettings(**SMALL).fingerprint()


def make_runner(path, **kwargs) -> SweepRunner:
    return SweepRunner(SweepSettings(**SMALL), checkpoint=path, **kwargs)


def objects(path) -> list:
    """Every cell object saved under a checkpoint path."""
    return sorted(p for p in path.rglob("*.json") if p.is_file())


def orphan_temps(root) -> list:
    """Every ``*.tmp.<pid>`` dropping anywhere under ``root``."""
    return [p for p in root.rglob("*") if ".tmp." in p.name]


def quarantined(obj) -> bool:
    return obj.with_name(obj.name + diskio.QUARANTINE_SUFFIX).exists()


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
    assert len(objects(ck_path)) == 3

    resumed = make_runner(ck_path, resume=True)
    assert resumed.telemetry.checkpoint_counts() == {}  # nothing preloaded
    assert resumed.cpu_run("BaseCMOS", "lu") == cpu
    assert resumed.gpu_run("BaseCMOS", "DCT") == gpu
    assert resumed.dvfs_run("BaseCMOS", "lu", 2.0, False) == dvfs
    assert resumed.telemetry.checkpoint_counts() == {"entries_loaded": 3}
    counts = resumed.telemetry.cache_counts()
    for kind in ("cpu", "gpu", "dvfs"):
        assert counts[kind] == (1, 0), f"{kind} should be all hits"


def test_resume_requires_checkpoint():
    with pytest.raises(ValueError, match="resume=True requires a checkpoint"):
        SweepRunner(SweepSettings(**SMALL), resume=True)


def test_missing_and_corrupted_files_load_as_misses(ck_path):
    assert SweepCheckpoint(ck_path).get(FINGERPRINT, "cpu", "BaseCMOS", "lu") is None

    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    (obj,) = objects(ck_path)
    obj.write_text("this is not json{{{")

    runner = make_runner(ck_path, resume=True)  # must not crash
    assert runner.cpu_run("BaseCMOS", "lu") is not None  # re-executes fine
    assert runner.telemetry.cache_counts()["cpu"] == (0, 1)
    assert "entries_loaded" not in runner.telemetry.checkpoint_counts()
    assert quarantined(obj)


def test_truncated_file_loads_as_miss(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    (obj,) = objects(ck_path)
    text = obj.read_text()
    obj.write_text(text[: len(text) // 2])
    assert SweepCheckpoint(ck_path).get(FINGERPRINT, "cpu", "BaseCMOS", "lu") is None
    assert quarantined(obj)


def test_zero_byte_checkpoint_object_loads_as_missing(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    (obj,) = objects(ck_path)
    obj.write_text("")
    runner = make_runner(ck_path, resume=True)
    assert runner.cpu_run("BaseCMOS", "lu") is not None
    assert runner.telemetry.cache_counts()["cpu"] == (0, 1)
    assert quarantined(obj)


def test_tampered_payload_fails_integrity_check(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    (obj,) = objects(ck_path)
    doc = json.loads(obj.read_text())
    doc["payload"]["result"]["time_s"] = 123.456  # bit-flip the measurement
    obj.write_text(json.dumps(doc))
    assert SweepCheckpoint(ck_path).get(FINGERPRINT, "cpu", "BaseCMOS", "lu") is None


def test_version_mismatch_invalidates(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    (obj,) = objects(ck_path)
    doc = json.loads(obj.read_text())
    doc["payload"]["schema"] = ENTRY_SCHEMA + 1
    # Re-sign: the checksum holds, the layout version is still wrong.
    doc["checksum"] = diskio.record_checksum(doc["payload"])
    obj.write_text(json.dumps(doc))
    assert SweepCheckpoint(ck_path).get(FINGERPRINT, "cpu", "BaseCMOS", "lu") is None


def test_settings_fingerprint_mismatch_invalidates(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    other = SweepRunner(
        SweepSettings(instructions=4_000, apps=["lu"], kernels=["DCT"]),
        checkpoint=ck_path,
        resume=True,
    )
    other.cpu_run("BaseCMOS", "lu")
    assert other.telemetry.cache_counts()["cpu"] == (0, 1)  # re-executed
    assert "entries_loaded" not in other.telemetry.checkpoint_counts()


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
    (first,) = objects(ck_path)
    payload = diskio.read_record(first)
    assert payload["run_kind"] == "cpu"
    assert (payload["cell"]["config"], payload["cell"]["workload"]) == (
        "BaseCMOS", "lu",
    )
    inode = first.stat().st_ino
    runner.gpu_run("BaseCMOS", "DCT")
    assert len(objects(ck_path)) == 2
    assert first.stat().st_ino == inode  # saved cells are never rewritten
    assert not orphan_temps(ck_path)


def test_sweep_of_n_cells_makes_n_single_cell_checkpoint_writes(ck_path):
    """Regression: each save once re-encoded every cached cell, so a
    sweep's checkpoint I/O grew quadratically with its size."""
    settings = SweepSettings(instructions=2_000, apps=["lu", "fft"],
                             kernels=["DCT"])
    configs = ["BaseCMOS", "BaseTFET", "BaseHet", "AdvHet"]
    cells = sorted((c, a) for c in configs for a in settings.apps)
    diskio.reset_stats()
    runner = SweepRunner(settings, checkpoint=ck_path)
    runner.cpu_sweep(configs)
    assert runner.telemetry.checkpoint_counts() == {"save": len(cells)}
    assert diskio.stats()["writes"] == len(cells)
    payloads = [diskio.read_record(p) for p in objects(ck_path)]
    assert sorted(
        (p["cell"]["config"], p["cell"]["workload"]) for p in payloads
    ) == cells
    for payload in payloads:  # one result per object
        assert payload["result"]["config"] == payload["cell"]["config"]
        assert payload["result"]["app"] == payload["cell"]["workload"]


def test_store_hits_are_saved_to_the_checkpoint(tmp_path, ck_path):
    store = tmp_path / "store"
    SweepRunner(SweepSettings(**SMALL), store=store).cpu_run("BaseCMOS", "lu")
    runner = make_runner(ck_path, store=store)
    runner.cpu_run("BaseCMOS", "lu")  # served from the store
    assert runner.telemetry.checkpoint_counts() == {"save": 1}

    resumed = make_runner(ck_path, resume=True)  # the checkpoint alone
    resumed.cpu_run("BaseCMOS", "lu")
    assert resumed.telemetry.cache_counts()["cpu"] == (1, 0)
    assert resumed.telemetry.checkpoint_counts() == {"entries_loaded": 1}


def test_checkpoint_save_leaves_no_lock_behind(ck_path):
    """Writers need no lock: a save leaves its cell object and nothing
    else -- no lock file beside or inside the checkpoint, no temp."""
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    files = sorted(p for p in ck_path.parent.rglob("*") if p.is_file())
    assert files == objects(ck_path) and len(files) == 1


def test_two_writers_share_a_checkpoint(ck_path):
    a, b = make_runner(ck_path), make_runner(ck_path)
    a.cpu_run("BaseCMOS", "lu")
    (obj,) = objects(ck_path)
    before = obj.read_bytes()
    b.cpu_run("BaseCMOS", "lu")  # the same cell: the same bytes
    b.gpu_run("BaseCMOS", "DCT")
    assert obj.read_bytes() == before
    resumed = make_runner(ck_path, resume=True)
    resumed.cpu_run("BaseCMOS", "lu")
    resumed.gpu_run("BaseCMOS", "DCT")
    assert resumed.telemetry.checkpoint_counts() == {"entries_loaded": 2}


def test_checkpoint_path_that_is_a_regular_file_is_rejected(
    tmp_path, ck_path, capsys
):
    old = json.dumps({"integrity": "0" * 64, "payload": {"version": 1}})
    ck_path.write_text(old)  # a single-file checkpoint of the old layout
    with pytest.raises(ValueError, match=re.escape(str(ck_path))):
        make_runner(ck_path)
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text("")
    for argv in (
        ["sweep", "BaseCMOS"],
        ["serve", "--jobs", str(jobs)],
        ["fabric", "coordinator", "BaseCMOS"],
        ["fabric", "node", "--connect", "127.0.0.1:9"],
    ):
        assert cli.main([*argv, "--checkpoint", str(ck_path)]) == 2, argv
        err = capsys.readouterr().err
        assert str(ck_path) in err and "Traceback" not in err, argv
    assert ck_path.read_text() == old  # left untouched


@pytest.mark.parametrize("stmt", [
    "from repro.store import ResultStore",
    "import repro.store.cas",
    "from repro.resilience import SweepCheckpoint",
    "import repro.resilience.checkpoint",
])
def test_store_and_checkpoint_import_in_a_fresh_interpreter(stmt):
    """The store writes through ``repro.resilience.diskio`` and the
    checkpoint subclasses the store, so each entry point must import
    first in a fresh interpreter without a partial-import cycle."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", stmt], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------
# SIGKILL in the exact crash window: after temp fsync, before rename
# ---------------------------------------------------------------------

def test_sigkill_mid_checkpoint_flush_resumes_byte_identical(tmp_path):
    """A writer killed between temp-file fsync and rename loses exactly
    one cell's save: the cells saved before stay intact, the orphaned
    temp is swept on the next startup, and the resumed sweep's report is
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
    # The 2nd checkpoint write dies after its temp file is fsynced but
    # before the rename -- the worst-possible instant.
    chaos_env["REPRO_DISKIO_CRASH_AFTER_TMP"] = "checkpoint:2"
    crashed = subprocess.run(
        base + ["--checkpoint", str(ck)],
        env=chaos_env, capture_output=True, text=True, timeout=300,
    )
    assert crashed.returncode == -9  # SIGKILLed itself in the window
    assert len(objects(ck)) == 1  # save 1 survived the crash of save 2
    assert orphan_temps(tmp_path), "the crash window must strand the temp file"

    resumed = subprocess.run(
        base + ["--checkpoint", str(ck), "--resume"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    report = json.loads(resumed.stdout)
    loaded = report["telemetry"]["checkpoint"]["entries_loaded"]
    cache = report["telemetry"]["cache"]["cpu"]
    assert loaded == 1  # exactly the pre-crash save
    assert cache["hits"] == 1 and cache["misses"] == 1
    report.pop("telemetry")
    assert json.dumps(report, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    # The resumed writer's startup sweep collected the stranded temp.
    assert not orphan_temps(tmp_path)
