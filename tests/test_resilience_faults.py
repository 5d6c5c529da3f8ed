"""Fault injection: determinism, env gating, and end-to-end sweeps."""

from __future__ import annotations

import json
import math

import pytest

from repro import cli
from repro.experiments.figures import figure7
from repro.experiments.report import failure_table, paper_vs_measured
from repro.experiments.runner import SweepRunner, SweepSettings, faulted_attempt
from repro.resilience import FaultInjector, FaultPlan, GuardPolicy, InjectedFault
from repro.resilience import faults

SMALL = dict(instructions=2_000, apps=["lu"], kernels=["DCT"])


# ---------------------------------------------------------------------
# The injector itself
# ---------------------------------------------------------------------

def test_plan_validates_probabilities():
    with pytest.raises(ValueError):
        FaultPlan(fail_p=1.5)
    with pytest.raises(ValueError):
        FaultPlan(fail_p=0.6, hang_p=0.6)


def test_draws_are_deterministic_across_injectors():
    def outcomes(seed):
        injector = FaultInjector(FaultPlan(fail_p=0.4, seed=seed), sleep=lambda s: None)
        out = []
        for attempt in range(20):
            try:
                faulted_attempt(injector, "cpu", ("C", "w"), lambda: "ok")
                out.append("ok")
            except InjectedFault:
                out.append("fail")
        return out

    assert outcomes(7) == outcomes(7)
    assert outcomes(7) != outcomes(8)  # different schedule, same shape
    assert "fail" in outcomes(7) and "ok" in outcomes(7)


def test_retry_attempts_reroll_the_draw():
    injector = FaultInjector(FaultPlan(fail_p=0.5, seed=3), sleep=lambda s: None)
    results = []
    for _ in range(10):
        try:
            faulted_attempt(injector, "cpu", ("C", "w"), lambda: "ok")
            results.append(True)
        except InjectedFault:
            results.append(False)
    assert True in results and False in results
    assert injector.injected["fail"] == results.count(False)


def test_env_gating(monkeypatch):
    faults.reset()
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert faults.active("run") is None

    monkeypatch.setenv("REPRO_FAULTS", "1")
    monkeypatch.setenv("REPRO_FAULTS_FAIL_P", "0.2")
    monkeypatch.setenv("REPRO_FAULTS_HANG_P", "0.05")
    monkeypatch.setenv("REPRO_FAULTS_SEED", "42")
    monkeypatch.setenv("REPRO_FAULTS_HANG_S", "0.01")
    faults.reset()
    injector = faults.active("run")
    assert injector is not None
    assert injector.plan == FaultPlan(
        fail_p=0.2, hang_p=0.05, seed=42, hang_s=0.01
    )
    assert faults.active("run") is injector  # cached, attempt counts persist


def test_installed_injector_takes_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "1")
    mine = faults.install(FaultInjector(FaultPlan()))
    assert faults.active("run") is mine
    faults.uninstall("run")
    assert faults.active("run") is not mine


# ---------------------------------------------------------------------
# End-to-end: sweeps under injected faults
# ---------------------------------------------------------------------

def test_sweep_under_faults_completes_with_consistent_accounting():
    faults.install(
        FaultInjector(FaultPlan(fail_p=0.3, corrupt_p=0.1, seed=11), sleep=lambda s: None)
    )
    runner = SweepRunner(
        SweepSettings(instructions=2_000, apps=["lu", "fft"], kernels=["DCT"]),
        policy=GuardPolicy(max_retries=3, backoff_base_s=0.0, sleep=lambda s: None),
    )
    results = runner.cpu_sweep(["BaseCMOS", "AdvHet"])
    cells = [run for row in results.values() for run in row.values()]
    ok = sum(1 for c in cells if c is not None)
    assert ok + len(runner.failures) == 4  # every cell accounted for
    telemetry = runner.telemetry.summary()
    # The seeded schedule injects at least one fault; each injected fault
    # is either retried away or ends as a recorded failure.
    injector = faults.active("run")
    injected = sum(injector.injected.values())
    assert injected > 0
    assert telemetry["retries"]["cpu"] + sum(
        f.attempts for f in runner.failures.values()
    ) >= injected


def test_figure_renders_failed_cells_as_gaps():
    class KillCell(FaultInjector):
        def draw(self, run_kind, key):
            if key == ("BaseTFET", "lu"):
                raise RuntimeError("poisoned cell")

    faults.install(KillCell(FaultPlan()))
    runner = SweepRunner(SweepSettings(**SMALL))
    result = figure7(runner)
    assert "--" in result.table
    assert math.isnan(result.measured_means["BaseTFET"])
    assert math.isfinite(result.measured_means["AdvHet"])
    comparison = paper_vs_measured(result)
    assert "-- (failed cells)" in comparison


def test_failure_table_lists_gaps():
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    runner = SweepRunner(SweepSettings(**SMALL))
    runner.cpu_cell("BaseCMOS", "lu")
    table = failure_table(list(runner.failures.values()))
    assert "BaseCMOS" in table and "crash" in table
    assert failure_table([]) == "*no failed cells*"


# ---------------------------------------------------------------------
# CLI: repro sweep
# ---------------------------------------------------------------------

def _run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_cli_sweep_with_gaps_then_resume(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "2000")
    monkeypatch.setenv("REPRO_APPS", "lu")
    monkeypatch.setenv("REPRO_KERNELS", "DCT")
    ck = tmp_path / "cli.ckpt.json"

    class KillCell(FaultInjector):
        def draw(self, run_kind, key):
            if key == ("AdvHet", "lu"):
                raise RuntimeError("poisoned cell")

    faults.install(KillCell(FaultPlan()))
    code, out = _run_cli(
        capsys, "sweep", "BaseCMOS", "AdvHet",
        "--checkpoint", str(ck), "--max-retries", "0", "--json",
    )
    assert code == 3  # completed with gaps
    doc = json.loads(out)
    assert doc["cells"]["BaseCMOS"]["lu"] is not None
    assert doc["cells"]["AdvHet"]["lu"] is None
    assert doc["failures"][0]["config"] == "AdvHet"

    faults.reset()
    code, out = _run_cli(
        capsys, "sweep", "BaseCMOS", "AdvHet",
        "--checkpoint", str(ck), "--resume", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    telemetry = doc["telemetry"]
    assert telemetry["cache"]["cpu"] == {"hits": 1, "misses": 1}
    assert telemetry["checkpoint"]["entries_loaded"] == 1


def test_cli_sweep_gpu_and_usage_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "DCT")
    code, out = _run_cli(capsys, "sweep", "AdvHet", "--gpu")
    assert code == 0 and "ok" in out

    assert cli.main(["sweep", "NoSuchConfig"]) == 2
    assert cli.main(["sweep", "AdvHet", "--resume"]) == 2


def test_cli_sweep_fail_fast(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "2000")
    monkeypatch.setenv("REPRO_APPS", "lu")
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    code = cli.main(["sweep", "BaseCMOS", "--max-retries", "0", "--fail-fast"])
    assert code == 1
