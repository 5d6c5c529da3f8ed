"""The seeded fault schedules of every domain, pinned to a golden.

``fault_schedules.json`` holds the first 64 decisions per site for the
run, net and disk domains at seeds 0, 1, 3 and 7, recorded from the
three per-domain injectors the unified :class:`FaultInjector` replaced,
together with each schedule's ``injected`` tallies.  CI and the chaos
scripts rely on these schedules (``scripts/store_chaos.py`` needs disk
seed 1 to let two checkpoint temps land before its crash hook fires),
so the draw must stay byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import runner as runner_mod
from repro.fabric.protocol import delivery
from repro.resilience import faults
from repro.resilience.faults import FaultInjector, FaultPlan, InjectedFault

GOLDEN = json.loads(
    (Path(__file__).with_name("fault_schedules.json")).read_text()
)


def _ids(entries):
    return [f"seed{e['seed']}-{e['site']}" for e in entries]


class _Result:
    time_s = 1.0


class _Died(Exception):
    pass


@pytest.mark.parametrize("entry", GOLDEN["run"], ids=_ids(GOLDEN["run"]))
def test_run_schedule_matches_golden(entry, monkeypatch):
    plan = FaultPlan("run", seed=entry["seed"], **GOLDEN["plans"]["run"])
    key = tuple(entry["key"])
    slept = []
    injector = FaultInjector(plan, sleep=slept.append)

    def die(pid, sig):
        raise _Died()

    monkeypatch.setattr(runner_mod.os, "kill", die)
    decisions = []
    for _ in range(GOLDEN["draws"]):
        before = len(slept)
        try:
            result = runner_mod.faulted_attempt(
                injector, entry["site"], key, _Result
            )
        except InjectedFault:
            decisions.append("fail")
        except _Died:
            decisions.append("die")
        else:
            if len(slept) > before:
                assert slept[-1] == plan.hang_s
                decisions.append("hang")
            elif math.isnan(result.time_s):
                decisions.append("corrupt")
            else:
                decisions.append(None)
    assert decisions == entry["decisions"]
    assert injector.injected == entry["injected"]

    # A worker primed with attempt k draws exactly attempt k's decision.
    fresh = FaultInjector(plan)
    for attempt in (1, 2, 17, GOLDEN["draws"]):
        fresh.prime(entry["site"], key, attempt=attempt)
        assert fresh.draw(entry["site"], key) == entry["decisions"][attempt - 1]


@pytest.mark.parametrize("entry", GOLDEN["net"], ids=_ids(GOLDEN["net"]))
def test_net_schedule_matches_golden(entry):
    now = [0.0]

    def clock():
        now[0] += GOLDEN["clock_step_s"]
        return now[0]

    plan = FaultPlan("net", seed=entry["seed"], **GOLDEN["plans"]["net"])
    injector = FaultInjector(plan, clock=clock)
    fates = [delivery(injector, entry["site"]) for _ in range(GOLDEN["draws"])]
    assert fates == entry["fates"]
    assert injector.injected == entry["injected"]


def test_net_golden_exercises_partition_windows():
    assert any(e["injected"]["partition_drop"] for e in GOLDEN["net"])


@pytest.mark.parametrize("entry", GOLDEN["disk"], ids=_ids(GOLDEN["disk"]))
def test_disk_schedule_matches_golden(entry):
    plan = FaultPlan("disk", seed=entry["seed"], **GOLDEN["plans"]["disk"])
    injector = FaultInjector(plan)
    fates = [injector.draw(entry["site"]) for _ in range(GOLDEN["draws"])]
    assert fates == entry["fates"]
    assert injector.injected == entry["injected"]


# ---------------------------------------------------------------------
# the one env parser
# ---------------------------------------------------------------------

@pytest.mark.parametrize("domain,var", [
    ("run", "REPRO_FAULTS_FAIL_P"),
    ("net", "REPRO_NET_FAULTS_DELAY_S"),
    ("disk", "REPRO_DISK_FAULTS_SEED"),
])
def test_malformed_env_value_names_its_variable(domain, var, monkeypatch):
    monkeypatch.setenv(faults.DOMAINS[domain].env, "1")
    monkeypatch.setenv(var, "abc")
    with pytest.raises(ValueError, match=f"{var}='abc' is not a number"):
        faults.active(domain)


@pytest.mark.parametrize("domain,var,value", [
    ("run", "REPRO_FAULTS_FAIL_P", "1.5"),
    ("net", "REPRO_NET_FAULTS_PARTITION_S", "-1"),
    ("disk", "REPRO_DISK_FAULTS_TORN_P", "-0.1"),
])
def test_out_of_range_env_value_names_its_variable(
    domain, var, value, monkeypatch
):
    monkeypatch.setenv(faults.DOMAINS[domain].env, "1")
    monkeypatch.setenv(var, value)
    with pytest.raises(ValueError, match=var):
        faults.active(domain)


def test_env_bands_past_one_name_the_variables(monkeypatch):
    monkeypatch.setenv("REPRO_NET_FAULTS", "1")
    monkeypatch.setenv("REPRO_NET_FAULTS_DROP_P", "0.6")
    monkeypatch.setenv("REPRO_NET_FAULTS_DUP_P", "0.6")
    with pytest.raises(ValueError, match="REPRO_NET_FAULTS_DROP_P.*sum"):
        faults.active("net")


def test_runner_rejects_bad_fault_env_before_any_cell(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "1")
    monkeypatch.setenv("REPRO_FAULTS_FAIL_P", "1.5")
    with pytest.raises(ValueError, match="REPRO_FAULTS_FAIL_P"):
        runner_mod.SweepRunner(runner_mod.SweepSettings(instructions=500))


def test_cli_rejects_bad_fault_env_before_running(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "1")
    monkeypatch.setenv("REPRO_FAULTS_FAIL_P", "1.5")
    assert cli.main(["sweep", "BaseCMOS"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_FAULTS_FAIL_P must be in [0, 1], got 1.5" in err


def test_plan_rejects_unknown_domain_and_parameters():
    with pytest.raises(ValueError, match="domain"):
        FaultPlan("cosmic-rays")
    with pytest.raises(TypeError, match="drop_p"):
        FaultPlan("disk", drop_p=0.1)
