"""The durable content-addressed result store and its runner wiring."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.resilience import diskio, faults
from repro.resilience.faults import DiskFaultInjector, DiskFaultPlan
from repro.store import content_address
from repro.store.cas import ENTRY_SCHEMA, ResultStore

SMALL = dict(instructions=2_000, apps=["lu"], kernels=["DCT"])


def make_runner(store=None, **kwargs) -> SweepRunner:
    return SweepRunner(SweepSettings(**SMALL), store=store, **kwargs)


@pytest.fixture
def store_root(tmp_path):
    return tmp_path / "store"


# ---------------------------------------------------------------------
# content addressing
# ---------------------------------------------------------------------

def test_content_address_is_deterministic():
    a = content_address("result", {"config": "AdvHet", "seed": 0})
    b = content_address("result", {"seed": 0, "config": "AdvHet"})
    assert a == b  # canonical JSON: key order is irrelevant
    assert len(a) == 64 and int(a, 16) >= 0  # sha256 hex


def test_content_address_separates_namespaces_and_parts():
    base = content_address("result", {"x": 1})
    assert content_address("trace", {"x": 1}) != base
    assert content_address("result", {"x": 2}) != base


def test_content_address_handles_dataclasses():
    @dataclasses.dataclass(frozen=True)
    class Cell:
        config: str
        n: int

    direct = content_address("t", {"cell": {"config": "A", "n": 3}})
    assert content_address("t", {"cell": Cell("A", 3)}) == direct


def test_trace_cache_keys_share_the_addressing_scheme():
    from repro.workloads.profiles import cpu_app
    from repro.workloads.trace_cache import kernel_key, trace_key

    profile = cpu_app("lu")
    key = trace_key(profile, 2_000, 0)
    assert key == trace_key(profile, 2_000, 0)
    assert key != trace_key(profile, 4_000, 0)
    from repro.workloads.gpu_profiles import gpu_kernel

    assert kernel_key(gpu_kernel("DCT"), 0) != key


# ---------------------------------------------------------------------
# put/get round trips
# ---------------------------------------------------------------------

def test_put_get_round_trip(store_root):
    runner = make_runner()
    cpu = runner.cpu_run("BaseCMOS", "lu")
    gpu = runner.gpu_run("BaseCMOS", "DCT")
    fp = runner.settings.fingerprint()

    store = ResultStore(store_root)
    store.put(fp, "cpu", "BaseCMOS", "lu", (), cpu)
    store.put(fp, "gpu", "BaseCMOS", "DCT", (), gpu)
    assert store.get(fp, "cpu", "BaseCMOS", "lu") == cpu
    assert store.get(fp, "gpu", "BaseCMOS", "DCT") == gpu
    assert store.counters["puts"] == 2 and store.counters["hits"] == 2


def test_get_misses_on_absent_and_foreign_cells(store_root):
    store = ResultStore(store_root)
    assert store.get("fp", "cpu", "BaseCMOS", "lu") is None
    assert store.counters["misses"] == 1


def test_entries_shard_two_level(store_root):
    runner = make_runner()
    cpu = runner.cpu_run("BaseCMOS", "lu")
    store = ResultStore(store_root)
    digest = store.put(runner.settings.fingerprint(), "cpu", "BaseCMOS",
                       "lu", (), cpu)
    (entry,) = store.entries()
    assert entry.parent.name == digest[:2]
    assert entry.stem == digest


def test_distinct_sim_versions_address_differently(store_root):
    a = ResultStore(store_root, sim_version="1.0.0")
    b = ResultStore(store_root, sim_version="2.0.0")
    assert (a.address("fp", "cpu", "X", "lu")
            != b.address("fp", "cpu", "X", "lu"))


# ---------------------------------------------------------------------
# the acceptance criterion: a store hit never touches a cycle engine
# ---------------------------------------------------------------------

def test_store_hit_serves_without_engine_invocation(store_root, monkeypatch):
    first = make_runner(store=store_root)
    original = first.cpu_run("BaseCMOS", "lu")
    assert first.telemetry.store_counts() == {"misses": 1, "puts": 1}

    def forbidden(*args, **kwargs):
        raise AssertionError("cycle engine invoked on a store hit")

    import repro.experiments.runner as runner_mod
    monkeypatch.setattr(runner_mod, "simulate_cpu_batch", forbidden)

    second = make_runner(store=store_root)  # fresh process-equivalent
    served = second.cpu_run("BaseCMOS", "lu")
    assert served == original  # identical payload, engine never ran
    assert second.telemetry.store_counts() == {"hits": 1}
    assert second.telemetry.cache_counts()["cpu"] == (1, 0)


def test_lookup_cached_promotes_store_hits(store_root):
    first = make_runner(store=store_root)
    original = first.cpu_run("BaseCMOS", "lu")

    second = make_runner(store=store_root)
    key = ("BaseCMOS", "lu")
    assert second.lookup_cached("cpu", key) == original
    assert second._cpu_cache[key] == original  # promoted
    assert second.lookup_cached("cpu", key) == original
    assert second.telemetry.store_counts() == {"hits": 1}  # only once


def test_runner_reads_store_root_from_env(store_root, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(store_root))
    runner = make_runner()
    assert isinstance(runner.store, ResultStore)
    assert runner.store.root == store_root


def test_store_write_failure_degrades_not_crashes(store_root):
    runner = make_runner(store=store_root)
    faults.install_disk(DiskFaultInjector(DiskFaultPlan(enospc_p=1.0)))
    result = runner.cpu_run("BaseCMOS", "lu")  # sweep continues
    assert result is not None
    counts = runner.telemetry.store_counts()
    assert counts.get("errors", 0) >= 1 and "puts" not in counts


# ---------------------------------------------------------------------
# fsck and gc
# ---------------------------------------------------------------------

def _populated_store(store_root) -> "tuple[ResultStore, str]":
    runner = make_runner()
    cpu = runner.cpu_run("BaseCMOS", "lu")
    store = ResultStore(store_root)
    digest = store.put(runner.settings.fingerprint(), "cpu", "BaseCMOS",
                       "lu", (), cpu)
    return store, digest


def test_fsck_clean_store(store_root):
    store, _ = _populated_store(store_root)
    report = store.fsck()
    assert report == {"checked": 1, "ok": 1, "damaged": [],
                      "quarantined": 0, "orphans_swept": 0}


def test_fsck_quarantines_corruption_then_runs_clean(store_root):
    store, digest = _populated_store(store_root)
    path = store._path(digest)
    path.write_text(path.read_text()[:40])  # tear the entry

    report = store.fsck()
    assert report["checked"] == 1 and report["ok"] == 0
    assert [d["reason"] for d in report["damaged"]] == ["checksum"]
    assert report["quarantined"] == 1
    assert not path.exists()

    # The store healed in place: a second fsck is clean, the cell misses.
    again = store.fsck()
    assert again["damaged"] == [] and again["checked"] == 0


def test_fsck_detects_misplaced_entries(store_root):
    store, digest = _populated_store(store_root)
    path = store._path(digest)
    wrong = path.with_name("ab" + path.name[2:])
    path.rename(wrong)
    report = store.fsck(quarantine=False)
    assert [d["reason"] for d in report["damaged"]] == ["misplaced"]
    assert wrong.exists()  # --no-quarantine leaves it for inspection


def test_fsck_sweeps_orphan_temps(store_root):
    store, digest = _populated_store(store_root)
    shard = store._path(digest).parent
    (shard / "x.json.tmp.999999999").write_text("dropping")
    report = store.fsck()
    assert report["orphans_swept"] == 1
    assert report["ok"] == 1


def test_gc_drops_stale_versions_and_enforces_budget(store_root):
    runner = make_runner()
    cpu = runner.cpu_run("BaseCMOS", "lu")
    fp = runner.settings.fingerprint()
    old = ResultStore(store_root, sim_version="0.0.1")
    old.put(fp, "cpu", "BaseCMOS", "lu", (), cpu)
    new = ResultStore(store_root)
    new.put(fp, "cpu", "BaseCMOS", "lu", (), cpu)

    report = new.gc()
    assert report["removed_stale"] == 1 and report["remaining"] == 1

    report = new.gc(max_bytes=0)
    assert report["removed_over_budget"] == 1
    assert report["remaining"] == 0 and report["bytes"] == 0


def test_gc_keeps_a_requested_version(store_root):
    runner = make_runner()
    cpu = runner.cpu_run("BaseCMOS", "lu")
    fp = runner.settings.fingerprint()
    old = ResultStore(store_root, sim_version="0.0.1")
    old.put(fp, "cpu", "BaseCMOS", "lu", (), cpu)
    report = ResultStore(store_root).gc(keep_sim_version="0.0.1")
    assert report["removed_stale"] == 0 and report["remaining"] == 1


def test_store_init_sweeps_crashed_writer_temps(store_root):
    store, digest = _populated_store(store_root)
    shard = store._path(digest).parent
    (shard / "y.json.tmp.999999999").write_text("dropping")
    reopened = ResultStore(store_root)
    assert reopened.orphans_swept == 1
    assert "orphans_swept" in reopened.stats()


# ---------------------------------------------------------------------
# the CLI: repro store fsck / gc
# ---------------------------------------------------------------------

def test_cli_fsck_exit_codes(store_root, capsys):
    store, digest = _populated_store(store_root)
    assert main(["store", "fsck", str(store_root)]) == 0

    path = store._path(digest)
    path.write_text("torn{{{")
    assert main(["store", "fsck", str(store_root)]) == 1  # damage found
    assert main(["store", "fsck", str(store_root)]) == 0  # healed
    out = capsys.readouterr().out
    assert "damaged" in out


def test_cli_fsck_json_and_no_quarantine(store_root, capsys):
    store, digest = _populated_store(store_root)
    store._path(digest).write_text("torn{{{")
    rc = main(["store", "fsck", str(store_root), "--no-quarantine", "--json"])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 1 and len(report["damaged"]) == 1
    assert store._path(digest).exists()  # left in place


def test_cli_gc(store_root, capsys):
    runner = make_runner()
    cpu = runner.cpu_run("BaseCMOS", "lu")
    old = ResultStore(store_root, sim_version="0.0.1")
    old.put(runner.settings.fingerprint(), "cpu", "BaseCMOS", "lu", (), cpu)
    assert main(["store", "gc", str(store_root), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["removed_stale"] == 1


# ---------------------------------------------------------------------
# entry payload hygiene
# ---------------------------------------------------------------------

def test_entry_payload_carries_provenance(store_root):
    store, digest = _populated_store(store_root)
    payload = diskio.read_record(store._path(digest), site="test")
    assert payload["schema"] == ENTRY_SCHEMA
    assert payload["run_kind"] == "cpu"
    assert payload["cell"]["config"] == "BaseCMOS"
    assert payload["cell"]["workload"] == "lu"
    assert payload["sim_version"] == store.sim_version


def test_undecodable_entry_is_quarantined_on_get(store_root):
    store, digest = _populated_store(store_root)
    path = store._path(digest)
    payload = diskio.read_record(path, site="test")
    payload["result"] = {"nonsense": True}
    diskio.write_record(path, payload, site="test")  # checksum holds

    runner = make_runner()
    fp = runner.settings.fingerprint()
    assert store.get(fp, "cpu", "BaseCMOS", "lu") is None
    assert store.counters["quarantined"] == 1
    assert not path.exists()
