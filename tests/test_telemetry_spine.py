"""The telemetry spine end to end: one trace across processes, merged
metrics that cannot tell serial from parallel apart, flight-recorder
recovery from SIGKILLed workers, and the dashboards that read it all."""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro import obs
from repro.core.configs import cpu_config
from repro.core.simulate import simulate_cpu
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.obs.events import chrome_trace, get_event_log, read_events
from repro.obs.export import (
    deterministic_snapshot,
    metrics_snapshot_path,
    parse_prometheus,
    read_metrics_snapshot,
    snapshot_from_state,
    write_metrics_snapshot,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.top import TopSession, render_dashboard, run_top
from repro.resilience import FaultInjector, FaultPlan, GuardPolicy, diskio, faults
from repro.resilience.errors import RunFailure
from repro.serve import ServiceConfig, SimService
from repro.serve.health import HealthSnapshot, HealthWatcher, write_health

SMALL = dict(instructions=2_000, apps=["lu"], kernels=["DCT"])


@pytest.fixture(autouse=True)
def _obs_reset():
    """Tests here flip the global flag; leave no trace behind."""
    obs.set_enabled(False)
    get_registry().clear()
    get_event_log().clear()
    yield
    obs.set_enabled(False)
    get_registry().clear()
    get_event_log().clear()


def small_runner(**kwargs) -> SweepRunner:
    policy = kwargs.pop("policy", GuardPolicy(backoff_base_s=0.0, jitter=0.0))
    return SweepRunner(SweepSettings(**SMALL), policy=policy, **kwargs)


def spine_snapshot() -> str:
    """The canonical byte-comparison view of the global registry."""
    return json.dumps(
        deterministic_snapshot(get_registry().snapshot()), sort_keys=True
    )


# ---------------------------------------------------------------------
# observability never perturbs a result
# ---------------------------------------------------------------------

def _results_doc() -> str:
    """Canonical JSON of every cell of a small CPU + GPU sweep plus one
    direct ``simulate_cpu`` run."""
    runner = small_runner()
    sweeps = {
        "cpu": runner.cpu_sweep(["BaseCMOS", "AdvHet"]),
        "gpu": runner.gpu_sweep(["BaseCMOS", "AdvHet"]),
    }
    doc = {
        f"{kind}/{config}/{workload}": dataclasses.asdict(run)
        for kind, sweep in sweeps.items()
        for config, row in sweep.items()
        for workload, run in row.items()
    }
    doc["simulate_cpu"] = dataclasses.asdict(
        simulate_cpu(
            cpu_config("BaseCMOS"), "blackscholes",
            instructions=3_000, warmup=750,
        )
    )
    return json.dumps(doc, sort_keys=True, default=str)


def test_enabling_obs_leaves_every_cell_identical():
    obs.set_enabled(False)
    off = _results_doc()
    assert not get_registry().snapshot()
    obs.set_enabled(True)
    on = _results_doc()
    assert get_registry().snapshot(), "obs-on run recorded no metrics"
    assert on == off


# ---------------------------------------------------------------------
# serial vs parallel: merged metrics are byte-identical
# ---------------------------------------------------------------------

def test_metrics_snapshot_byte_identical_serial_vs_parallel():
    obs.set_enabled(True)
    configs = ["BaseCMOS", "AdvHet"]

    small_runner().cpu_sweep(configs)
    small_runner().gpu_sweep(["BaseCMOS"])
    serial = spine_snapshot()

    get_registry().clear()
    get_event_log().clear()
    small_runner().cpu_sweep(configs, workers=4)
    small_runner().gpu_sweep(["BaseCMOS"], workers=4)
    parallel = spine_snapshot()

    assert serial == parallel
    assert json.loads(serial)  # non-trivial: engine counters survived


# ---------------------------------------------------------------------
# one trace id from the coordinator into every worker process
# ---------------------------------------------------------------------

def test_trace_id_propagates_into_worker_processes(tmp_path):
    obs.set_enabled(True)
    elog = get_event_log()
    with elog.span("serve.job", job_id="j1") as (trace, _span):
        small_runner().cpu_sweep(["BaseCMOS"], workers=2)

    events = elog.events()
    worker_events = [
        e for e in events if str(e.get("proc", "")).startswith("worker-")
    ]
    assert worker_events, "worker events were not merged back"
    spans = [e for e in worker_events if "trace_id" in e]
    assert spans and all(e["trace_id"] == trace for e in spans)
    names = {e["name"] for e in worker_events}
    assert {"worker.attempt", "engine.run"} <= names
    # Worker pids differ from ours: the events really crossed a process.
    import os
    assert any(e["pid"] != os.getpid() for e in worker_events)

    # The merged log exports both artifacts the CLI ships: a JSONL event
    # log and a Chrome trace whose rows span coordinator + worker pids.
    log_path = tmp_path / "events.jsonl"
    assert elog.write_jsonl(log_path) == len(events)
    assert len(read_events(log_path)) == len(events)
    doc = chrome_trace(events)
    pids = {row["pid"] for row in doc["traceEvents"] if row["ph"] == "X"}
    assert len(pids) >= 2


# ---------------------------------------------------------------------
# flight recorder: a SIGKILLed worker still reports its last events
# ---------------------------------------------------------------------

def test_sigkilled_worker_leaves_flight_recorder_tail():
    obs.set_enabled(True)
    faults.install(FaultInjector(FaultPlan(die_p=1.0)))
    runner = small_runner(
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0)
    )
    results = runner.cpu_sweep(["BaseCMOS"], workers=2)

    assert results["BaseCMOS"]["lu"] is None
    failure = runner.failures[("cpu", "BaseCMOS", "lu")]
    assert failure.kind == "crash"
    assert failure.flight, "sidecar events were not recovered"
    names = {e.get("name") for e in failure.flight}
    assert "worker.attempt" in names
    # The gap record serializes the tail (fabric results carry it too).
    assert RunFailure.from_dict(failure.to_dict()).flight == failure.flight
    assert "flight" in failure.to_dict()
    # Recovery itself is an event on the supervisor's log.
    recovered = [
        e for e in get_event_log().events()
        if e["name"] == "pool.flight_recovered"
    ]
    assert recovered and recovered[0]["events"] >= 1


def test_obs_off_ships_no_payloads_and_no_flight():
    assert not obs.enabled()
    faults.install(FaultInjector(FaultPlan(die_p=1.0)))
    runner = small_runner(
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0)
    )
    runner.cpu_sweep(["BaseCMOS"], workers=2)
    failure = runner.failures[("cpu", "BaseCMOS", "lu")]
    assert failure.flight == ()
    assert len(get_event_log()) == 0


# ---------------------------------------------------------------------
# serve tier: job spans, health seq, and the metrics snapshot file
# ---------------------------------------------------------------------

def test_serve_writes_metrics_snapshot_and_job_spans(tmp_path):
    obs.set_enabled(True)
    health_file = tmp_path / "svc.health.json"
    runner = small_runner(
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0)
    )
    service = SimService(runner, ServiceConfig(
        workers=1, poll_s=0.01,
        health_file=str(health_file), health_interval_s=0.0,
    ))
    service.start()
    service.submit({"id": "j1", "run_kind": "cpu",
                    "config": "BaseCMOS", "workload": "lu"})
    assert service.wait_idle(timeout=60.0)
    service.shutdown(drain_deadline_s=5.0)

    # Health snapshots carry a monotonically advancing seq.
    final = HealthSnapshot.from_dict(diskio.read_record(health_file, site="test"))
    assert final.seq >= 2
    assert final.metrics_age_s is not None and final.metrics_age_s >= 0.0

    # The metrics snapshot sits next to the health file and parses.
    doc = read_metrics_snapshot(metrics_snapshot_path(health_file))
    assert doc is not None
    flat = snapshot_from_state(doc["state"])
    assert flat.get("sweep.serve.served") == 1

    # The job became a span; the cell attempt nests under its trace.
    events = get_event_log().events()
    job_spans = [e for e in events if e["name"] == "serve.job"]
    assert job_spans and job_spans[0]["job_id"] == "j1"
    trace = job_spans[0]["trace_id"]
    cells = [e for e in events if e["name"] == "cell.attempt"]
    assert cells and all(e["trace_id"] == trace for e in cells)


def test_serve_without_obs_writes_no_metrics_snapshot(tmp_path):
    health_file = tmp_path / "svc.health.json"
    service = SimService(small_runner(), ServiceConfig(
        workers=1, poll_s=0.01,
        health_file=str(health_file), health_interval_s=0.0,
    ))
    service.start()
    service.shutdown(drain_deadline_s=1.0)
    assert health_file.exists()
    assert read_metrics_snapshot(metrics_snapshot_path(health_file)) is None


# ---------------------------------------------------------------------
# HealthWatcher: reader-monotonic staleness, immune to clock steps
# ---------------------------------------------------------------------

def test_health_watcher_judges_staleness_monotonically(tmp_path):
    path = tmp_path / "svc.health.json"
    fake = {"now": 100.0}

    def snap(seq):
        return HealthSnapshot(
            alive=True, ready=True, draining=False, pid=1,
            updated_at=12345.0,  # wall clock is deliberately bogus
            queue_depth=0, queue_capacity=4, in_flight=0, workers=1,
            isolation="thread", degraded=False, counters={}, breakers={},
            breakers_open=0, shed_reasons={}, seq=seq,
        )

    watcher = HealthWatcher(path, stale_after_s=5.0,
                            clock=lambda: fake["now"])
    write_health(path, snap(1))
    assert watcher.poll().alive is True

    # seq keeps advancing: alive no matter what the wall clock says.
    fake["now"] = 110.0
    write_health(path, snap(2))
    assert watcher.poll().alive is True

    # seq frozen for > stale_after_s of *reader* time: declared dead.
    fake["now"] = 120.0
    polled = watcher.poll()
    assert polled.alive is False and polled.ready is False
    assert watcher.silent_s() == pytest.approx(10.0)

    # It comes back as soon as the sequence moves again.
    write_health(path, snap(3))
    assert watcher.poll().alive is True
    assert watcher.poll() is not None
    assert HealthWatcher(tmp_path / "missing.json").poll() is None


# ---------------------------------------------------------------------
# repro top: rates from successive snapshots, pure rendering
# ---------------------------------------------------------------------

def _write_top_fixture(tmp_path, runs: int, written_at: float, seq: int):
    reg = MetricsRegistry("svc", enabled=True)
    reg.counter("sweep.cpu.runs").inc(runs)
    reg.counter("sweep.cpu.instructions_total").inc(runs * 1000)
    doc = write_metrics_snapshot(
        metrics_snapshot_path(tmp_path / "svc.health.json"),
        registry=reg, seq=seq,
    )
    # Pin written_at so the rate denominator is deterministic.
    path = metrics_snapshot_path(tmp_path / "svc.health.json")
    doc = diskio.read_record(path, site="test")
    doc["written_at"] = written_at
    diskio.write_record(path, doc, site="test")


def test_top_session_computes_rates_between_snapshots(tmp_path):
    health = tmp_path / "svc.health.json"
    write_health(health, HealthSnapshot(
        alive=True, ready=True, draining=False, pid=1, updated_at=time.time(),
        queue_depth=1, queue_capacity=8, in_flight=1, workers=2,
        isolation="process", degraded=False, counters={"served": 3},
        breakers={}, breakers_open=0, shed_reasons={}, seq=1,
    ))
    session = TopSession(str(health))

    _write_top_fixture(tmp_path, runs=10, written_at=100.0, seq=1)
    _health, doc, rates = session.sample()
    assert doc is not None
    assert all(rate is None for rate in rates.values())  # no baseline yet

    _write_top_fixture(tmp_path, runs=14, written_at=102.0, seq=2)
    _health, _doc, rates = session.sample()
    assert rates["runs/s"] == pytest.approx(2.0)        # +4 over 2s
    assert rates["instr/s"] == pytest.approx(2000.0)


def test_top_rates_clamp_per_counter_on_writer_restart(tmp_path):
    health = tmp_path / "svc.health.json"
    write_health(health, HealthSnapshot(
        alive=True, ready=True, draining=False, pid=1, updated_at=time.time(),
        queue_depth=0, queue_capacity=8, in_flight=0, workers=1,
        isolation="thread", degraded=False, counters={},
        breakers={}, breakers_open=0, shed_reasons={}, seq=1,
    ))
    session = TopSession(str(health))
    _write_top_fixture(tmp_path, runs=100, written_at=100.0, seq=1)
    session.sample()

    # The writer restarted: cumulative counters reset to a small value.
    # The negative delta must clamp to zero, not render as a negative
    # rate (and must not cancel positive deltas of sibling keys).
    _write_top_fixture(tmp_path, runs=2, written_at=102.0, seq=2)
    _health, _doc, rates = session.sample()
    assert rates["runs/s"] == 0.0
    assert rates["instr/s"] == 0.0

    # From the post-restart baseline, progress reads normally again.
    _write_top_fixture(tmp_path, runs=6, written_at=104.0, seq=3)
    _health, _doc, rates = session.sample()
    assert rates["runs/s"] == pytest.approx(2.0)


def test_render_dashboard_covers_every_section(tmp_path):
    health = HealthSnapshot(
        alive=True, ready=True, draining=False, pid=77, updated_at=1.0,
        queue_depth=2, queue_capacity=4, in_flight=1, workers=2,
        isolation="process", degraded=True, counters={"served": 9},
        breakers={"cpu:X": {"state": "open"}}, breakers_open=1,
        shed_reasons={}, seq=5, metrics_age_s=0.25,
    )
    frame = render_dashboard(
        health, {"seq": 5}, {"instr/s": 1.5e6, "runs/s": None},
        silent_s=2.0,
    )
    assert "alive (ready), pid 77, seq 5, silent 2.0s" in frame
    assert "2/4" in frame and "1/2 in flight" in frame
    assert "DEGRADED" in frame
    assert "served=9" in frame
    assert "1 not closed -- cpu:X:open" in frame
    assert "instr/s 1.50M" in frame
    assert "written 0.2s before health" in frame

    empty = render_dashboard(None, None, {})
    assert "(no health file yet)" in empty
    assert "is obs enabled?" in empty


def test_run_top_once_renders_against_live_files(tmp_path):
    health = tmp_path / "svc.health.json"
    write_health(health, HealthSnapshot(
        alive=True, ready=True, draining=False, pid=1, updated_at=time.time(),
        queue_depth=0, queue_capacity=4, in_flight=0, workers=1,
        isolation="thread", degraded=False, counters={}, breakers={},
        breakers_open=0, shed_reasons={}, seq=1,
    ))
    frames: "list[str]" = []
    assert run_top(str(health), iterations=1, out=frames.append) == 1
    assert "repro top" in frames[0] and "alive" in frames[0]


# ---------------------------------------------------------------------
# CLI surfaces: `repro stats --prom` emits parseable exposition
# ---------------------------------------------------------------------

def test_cli_stats_prom_round_trips_through_parser(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_INSTRUCTIONS", "2000")
    assert main(["stats", "BaseCMOS", "lu", "--prom"]) == 0
    families = parse_prometheus(capsys.readouterr().out)
    assert any(name.startswith("repro_cpu_core0") for name in families)
    assert not obs.enabled()  # the flag is restored afterwards
