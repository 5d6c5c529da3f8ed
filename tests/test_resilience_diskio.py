"""Crash-consistent durable I/O: envelopes, quarantine, fault injection."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys

import pytest

from repro.resilience import diskio, faults
from repro.resilience.faults import FaultInjector, FaultPlan


# ---------------------------------------------------------------------
# write/read round trips and the checksum envelope
# ---------------------------------------------------------------------

def test_record_round_trip(tmp_path):
    path = tmp_path / "snap.json"
    payload = {"a": 1, "nested": {"b": [1, 2, 3]}, "s": "text"}
    diskio.write_record(path, payload, site="t")
    assert diskio.read_record(path, site="t") == payload
    stats = diskio.stats()
    assert stats["writes"] == 1 and stats["reads"] == 1
    assert stats["quarantined"] == 0


def test_write_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "er" / "snap.json"
    diskio.durable_write_text(path, "hello", site="t")
    assert path.read_text() == "hello"


def test_write_leaves_no_temp_droppings(tmp_path):
    path = tmp_path / "snap.json"
    diskio.write_record(path, {"x": 1}, site="t")
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]


def test_missing_file_reads_as_none(tmp_path):
    assert diskio.read_record(tmp_path / "nope.json", site="t") is None
    assert diskio.stats()["quarantined"] == 0


def test_legacy_plain_document_passes_through(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": 1, "data": [1, 2]}))
    assert diskio.read_record(path, site="t") == {"version": 1, "data": [1, 2]}
    assert path.exists()  # not quarantined


@pytest.mark.parametrize(
    "content,reason",
    [
        ("", "empty"),
        ("   \n", "empty"),
        ('{"checksum": "abc", "payl', "torn"),
        ("[1, 2, 3]", "not-a-record"),
    ],
)
def test_damaged_records_are_quarantined_not_raised(tmp_path, content, reason):
    path = tmp_path / "snap.json"
    path.write_text(content)
    assert diskio.read_record(path, site="t") is None
    assert not path.exists()
    assert path.with_name("snap.json.quarantine").exists()
    assert diskio.stats()["quarantined"] == 1


def test_checksum_mismatch_is_quarantined(tmp_path):
    path = tmp_path / "snap.json"
    diskio.write_record(path, {"x": 1}, site="t")
    doc = json.loads(path.read_text())
    doc["payload"]["x"] = 2  # bit-flip after the checksum was minted
    path.write_text(json.dumps(doc))
    assert diskio.read_record(path, site="t") is None
    assert path.with_name("snap.json.quarantine").exists()


def test_no_quarantine_mode_leaves_the_file_in_place(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text("garbage{{{")
    assert diskio.read_record(path, site="t", quarantine=False) is None
    assert path.exists()
    assert diskio.stats()["quarantined"] == 1  # still counted


def test_torn_write_is_detected_on_read(tmp_path):
    path = tmp_path / "snap.json"
    diskio.write_record(path, {"x": 1}, site="t")
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # simulate a torn write
    assert diskio.read_record(path, site="t") is None
    assert path.with_name("snap.json.quarantine").exists()


# ---------------------------------------------------------------------
# orphaned temp sweeping
# ---------------------------------------------------------------------

def test_sweep_removes_dead_pid_and_own_pid_temps(tmp_path):
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()  # a pid that provably existed and is now dead
    (tmp_path / f"snap.json.tmp.{proc.pid}").write_text("x")
    (tmp_path / f"snap.json.tmp.{os.getpid()}").write_text("x")
    (tmp_path / "snap.json").write_text("keep")
    assert diskio.sweep_orphan_temps(tmp_path, site="t") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]
    assert diskio.stats()["orphans_swept"] == 2


def test_sweep_leaves_live_writers_temps_alone(tmp_path):
    holder = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"]
    )
    try:
        temp = tmp_path / f"snap.json.tmp.{holder.pid}"
        temp.write_text("in progress")
        assert diskio.sweep_orphan_temps(tmp_path, site="t") == 0
        assert temp.exists()
    finally:
        holder.kill()
        holder.wait()


def test_sweep_of_missing_directory_is_a_noop(tmp_path):
    assert diskio.sweep_orphan_temps(tmp_path / "nope", site="t") == 0


# ---------------------------------------------------------------------
# disk fault injection
# ---------------------------------------------------------------------

def test_injected_eio_raises_and_leaves_nothing(tmp_path):
    faults.install(FaultInjector(FaultPlan("disk", eio_p=1.0)))
    path = tmp_path / "snap.json"
    with pytest.raises(OSError) as exc:
        diskio.write_record(path, {"x": 1}, site="t")
    assert exc.value.errno == errno.EIO
    assert list(tmp_path.iterdir()) == []
    assert diskio.stats()["write_failures"] == 1


def test_injected_enospc_raises_and_unlinks_the_temp(tmp_path):
    faults.install(FaultInjector(FaultPlan("disk", enospc_p=1.0)))
    path = tmp_path / "snap.json"
    with pytest.raises(OSError) as exc:
        diskio.write_record(path, {"x": 1}, site="t")
    assert exc.value.errno == errno.ENOSPC
    assert list(tmp_path.iterdir()) == []  # no droppings, no target


def test_injected_torn_write_succeeds_then_fails_checksum(tmp_path):
    faults.install(FaultInjector(FaultPlan("disk", torn_p=1.0)))
    path = tmp_path / "snap.json"
    diskio.write_record(path, {"x": 1}, site="t")  # "succeeds"
    assert path.exists()
    faults.uninstall("disk")
    assert diskio.read_record(path, site="t") is None  # caught on read
    assert path.with_name("snap.json.quarantine").exists()


def test_injected_lost_fsync_still_writes_readably(tmp_path):
    faults.install(FaultInjector(FaultPlan("disk", lost_fsync_p=1.0)))
    path = tmp_path / "snap.json"
    diskio.write_record(path, {"x": 1}, site="t")
    faults.uninstall("disk")
    assert diskio.read_record(path, site="t") == {"x": 1}
    assert diskio.stats()["fsync_skipped"] == 1


def test_fates_are_deterministic_per_site_and_seq():
    a = FaultInjector(FaultPlan("disk", torn_p=0.3, eio_p=0.3, seed=7))
    b = FaultInjector(FaultPlan("disk", torn_p=0.3, eio_p=0.3, seed=7))
    fates_a = [a.draw("ck") for _ in range(50)] + [a.draw("hp") for _ in range(50)]
    fates_b = [b.draw("ck") for _ in range(50)] + [b.draw("hp") for _ in range(50)]
    assert fates_a == fates_b
    assert any(f is not None for f in fates_a)  # p=0.6: something fires
    assert any(f is None for f in fates_a)


def test_plan_validation_rejects_bad_probabilities():
    with pytest.raises(ValueError, match="must be in"):
        FaultPlan("disk", eio_p=1.5)
    with pytest.raises(ValueError, match="sum"):
        FaultPlan("disk", eio_p=0.6, torn_p=0.6)


def test_plan_round_trips_through_dict():
    plan = FaultPlan("disk", eio_p=0.1, torn_p=0.2, seed=3)
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_env_gating_builds_an_injector(monkeypatch):
    monkeypatch.delenv("REPRO_DISK_FAULTS", raising=False)
    faults.reset()
    assert faults.active("disk") is None
    monkeypatch.setenv("REPRO_DISK_FAULTS", "1")
    monkeypatch.setenv("REPRO_DISK_FAULTS_TORN_P", "0.25")
    monkeypatch.setenv("REPRO_DISK_FAULTS_SEED", "9")
    injector = faults.active("disk")
    assert injector is not None
    assert injector.plan == FaultPlan("disk", torn_p=0.25, seed=9)
    assert faults.active("disk") is injector  # seqs persist across writes
    faults.reset()
    monkeypatch.delenv("REPRO_DISK_FAULTS")
    assert faults.active("disk") is None


def test_faults_reset_clears_installed_disk_injector():
    faults.install(FaultInjector(FaultPlan("disk", eio_p=1.0)))
    assert faults.active("disk") is not None
    faults.reset()
    assert faults.active("disk") is None


def test_reset_stats_zeroes_everything(tmp_path):
    diskio.write_record(tmp_path / "s.json", {"x": 1}, site="t")
    assert diskio.stats()["writes"] == 1
    diskio.reset_stats()
    assert all(v == 0 for v in diskio.stats().values())
