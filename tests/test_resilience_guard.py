"""Guard path: timeouts, retries/backoff, and the failure taxonomy."""

from __future__ import annotations

import math
import time

import pytest

from repro.experiments.runner import (
    SweepRunner,
    SweepSettings,
    reset_shared_runner,
    shared_runner,
)
from repro.resilience import (
    CorruptResult,
    FaultInjector,
    FaultPlan,
    GuardPolicy,
    GuardTimeout,
    SweepError,
    call_with_timeout,
    run_guarded,
    stable_seed,
)
from repro.resilience import faults

#: Tiny-but-valid sizing for tests that really simulate.
SMALL = dict(instructions=2_000, apps=["lu"], kernels=["DCT"])


def small_runner(**kwargs) -> SweepRunner:
    policy = kwargs.pop(
        "policy",
        GuardPolicy(backoff_base_s=0.0, jitter=0.0, sleep=lambda s: None),
    )
    return SweepRunner(SweepSettings(**SMALL), policy=policy, **kwargs)


# ---------------------------------------------------------------------
# run_guarded / call_with_timeout (no simulation involved)
# ---------------------------------------------------------------------

def test_run_guarded_success():
    outcome = run_guarded(
        lambda: 42,
        policy=GuardPolicy(),
        run_kind="cpu",
        config="BaseCMOS",
        workload="lu",
    )
    assert outcome.ok and outcome.result == 42
    assert outcome.attempts == 1 and outcome.retries == 0
    assert outcome.wall_s >= 0.0


def test_run_guarded_retries_then_succeeds():
    calls = []
    sleeps = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise RuntimeError("transient")
        return "done"

    policy = GuardPolicy(max_retries=3, jitter=0.0, sleep=sleeps.append)
    outcome = run_guarded(
        flaky, policy=policy, run_kind="cpu", config="C", workload="w"
    )
    assert outcome.ok and outcome.result == "done"
    assert outcome.attempts == 3 and outcome.retries == 2
    # Exponential, jitter-free backoff schedule.
    assert sleeps == [policy.backoff_base_s, policy.backoff_base_s * 2]


def test_run_guarded_exhausts_budget_as_crash():
    def broken():
        raise ValueError("boom")

    policy = GuardPolicy(max_retries=1, backoff_base_s=0.0, sleep=lambda s: None)
    outcome = run_guarded(
        broken, policy=policy, run_kind="gpu", config="C", workload="k",
        extra=("x",),
    )
    assert not outcome.ok and outcome.result is None
    failure = outcome.failure
    assert failure.kind == "crash"
    assert failure.attempts == 2
    assert "ValueError: boom" in failure.message
    assert "ValueError" in failure.traceback
    assert failure.cell == ("gpu", "C", "k", "x")


def test_run_guarded_timeout():
    policy = GuardPolicy(timeout_s=0.05)
    outcome = run_guarded(
        lambda: time.sleep(0.5),
        policy=policy,
        run_kind="cpu",
        config="C",
        workload="w",
    )
    assert outcome.failure is not None
    assert outcome.failure.kind == "timeout"
    assert "0.05" in outcome.failure.message


def test_run_guarded_corrupt_result_rejected():
    def validate(result):
        raise CorruptResult("nan time")

    outcome = run_guarded(
        lambda: object(),
        policy=GuardPolicy(),
        run_kind="cpu",
        config="C",
        workload="w",
        validate=validate,
    )
    assert outcome.failure is not None and outcome.failure.kind == "corrupt"


def test_call_with_timeout_passthrough_and_errors():
    assert call_with_timeout(lambda: 7, None) == 7
    assert call_with_timeout(lambda: 7, 5.0) == 7
    with pytest.raises(KeyError):
        call_with_timeout(lambda: {}["missing"], 5.0)
    with pytest.raises(GuardTimeout):
        call_with_timeout(lambda: time.sleep(0.5), 0.05)


def test_backoff_deterministic_capped_and_jittered():
    policy = GuardPolicy(backoff_base_s=0.1, backoff_cap_s=0.3, jitter=0.0)
    assert policy.backoff_s(1) == pytest.approx(0.1)
    assert policy.backoff_s(2) == pytest.approx(0.2)
    assert policy.backoff_s(3) == pytest.approx(0.3)  # capped
    assert policy.backoff_s(10) == pytest.approx(0.3)
    jittered = GuardPolicy(backoff_base_s=0.1, jitter=0.5, seed=1)
    a = jittered.backoff_s(1, key=("cpu", "C", "w"))
    b = jittered.backoff_s(1, key=("cpu", "C", "w"))
    assert a == b  # deterministic
    assert 0.1 <= a <= 0.15  # within the jitter band
    assert jittered.backoff_s(1, key=("cpu", "C", "x")) != a


def test_stable_seed_is_process_independent_and_distinct():
    assert stable_seed("a", 1) == stable_seed("a", 1)
    assert stable_seed("a", 1) != stable_seed("a", 2)
    assert 0 <= stable_seed("anything") < (1 << 64)


# ---------------------------------------------------------------------
# Runner integration
# ---------------------------------------------------------------------

def test_runner_records_failure_and_raises_sweep_error():
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    runner = small_runner()
    with pytest.raises(SweepError) as excinfo:
        runner.cpu_run("BaseCMOS", "lu")
    failure = excinfo.value.failure
    assert failure.kind == "crash" and failure.run_kind == "cpu"
    assert failure.cell in runner.failures
    assert runner.telemetry.failure_counts()["cpu"] == 1
    assert runner.telemetry.failure_kind_counts() == {"crash": 1}


def test_sweep_degrades_failures_to_gaps():
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    runner = small_runner()
    results = runner.cpu_sweep(["BaseCMOS", "AdvHet"])
    assert results["BaseCMOS"]["lu"] is None
    assert results["AdvHet"]["lu"] is None
    assert len(runner.failures) == 2


def test_fail_fast_aborts_the_sweep():
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    runner = small_runner(
        policy=GuardPolicy(fail_fast=True, backoff_base_s=0.0, sleep=lambda s: None)
    )
    with pytest.raises(SweepError):
        runner.cpu_sweep(["BaseCMOS"])


def test_retries_are_observable_in_telemetry():
    class FlakyOnce(FaultInjector):
        """First attempt per cell crashes."""

        def __init__(self):
            super().__init__(FaultPlan())
            self.seen = set()

        def draw(self, run_kind, key):
            if (run_kind, key) not in self.seen:
                self.seen.add((run_kind, key))
                raise RuntimeError("transient blip")

    faults.install(FlakyOnce())
    runner = small_runner(
        policy=GuardPolicy(max_retries=2, backoff_base_s=0.0, sleep=lambda s: None)
    )
    result = runner.cpu_run("BaseCMOS", "lu")
    assert result is not None
    assert runner.telemetry.retry_counts()["cpu"] == 1
    assert runner.telemetry.summary()["retries"]["cpu"] == 1
    assert runner.failures == {}  # recovered, no gap recorded


def test_injected_corruption_is_detected():
    faults.install(FaultInjector(FaultPlan(corrupt_p=1.0)))
    runner = small_runner()
    with pytest.raises(SweepError) as excinfo:
        runner.cpu_run("BaseCMOS", "lu")
    assert excinfo.value.failure.kind == "corrupt"
    # The corrupted result must not have been cached.
    assert runner._cpu_cache == {}


def test_injected_hang_trips_the_timeout():
    faults.install(FaultInjector(FaultPlan(hang_p=1.0, hang_s=0.5)))
    runner = small_runner(policy=GuardPolicy(timeout_s=0.05))
    with pytest.raises(SweepError) as excinfo:
        runner.cpu_run("BaseCMOS", "lu")
    assert excinfo.value.failure.kind == "timeout"


def test_successful_rerun_clears_recorded_gap():
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    runner = small_runner()
    assert runner.cpu_cell("BaseCMOS", "lu") is None
    assert len(runner.failures) == 1
    faults.reset()
    assert runner.cpu_cell("BaseCMOS", "lu") is not None
    assert runner.failures == {}


# ---------------------------------------------------------------------
# Early workload/config validation
# ---------------------------------------------------------------------

def test_bad_app_fails_early_with_actionable_key_error():
    runner = small_runner()
    with pytest.raises(KeyError, match="unknown CPU app 'nosuchapp'"):
        runner.cpu_run("AdvHet", "nosuchapp")
    (failure,) = runner.failures.values()
    assert failure.kind == "workload" and failure.attempts == 0
    assert "choose from" in failure.message
    assert runner.telemetry.summary()["runs"] == 0  # nothing executed


def test_bad_config_fails_early_as_config_kind():
    runner = small_runner()
    with pytest.raises(KeyError, match="unknown CPU config 'NoSuch'"):
        runner.cpu_run("NoSuch", "lu")
    (failure,) = runner.failures.values()
    assert failure.kind == "config"
    with pytest.raises(KeyError, match="unknown GPU config"):
        runner.gpu_run("NoSuch", "DCT")
    with pytest.raises(KeyError, match="unknown GPU kernel"):
        runner.gpu_run("AdvHet", "nosuchkernel")


def test_bad_dvfs_workload_fails_early():
    runner = small_runner()
    with pytest.raises(KeyError, match="unknown CPU app"):
        runner.dvfs_run("BaseCMOS", "nosuchapp", 2.0, False)
    (failure,) = runner.failures.values()
    assert failure.run_kind == "dvfs" and failure.kind == "workload"


def test_bad_names_become_gaps_inside_sweeps():
    runner = SweepRunner(
        SweepSettings(instructions=2_000, apps=["lu", "nosuchapp"], kernels=["DCT"])
    )
    results = runner.cpu_sweep(["BaseCMOS"])
    assert results["BaseCMOS"]["lu"] is not None
    assert results["BaseCMOS"]["nosuchapp"] is None
    (failure,) = runner.failures.values()
    assert failure.kind == "workload"


# ---------------------------------------------------------------------
# Progress-callback hardening
# ---------------------------------------------------------------------

def test_raising_progress_callback_does_not_abort_sweep():
    events = []

    def bad_callback(event):
        raise RuntimeError("user callback bug")

    runner = small_runner(progress=bad_callback)
    runner.telemetry.on_progress(events.append)
    results = runner.cpu_sweep(["BaseCMOS"])
    assert results["BaseCMOS"]["lu"] is not None
    assert runner.telemetry.callback_errors >= 1
    assert events  # later callbacks still fired
    assert runner.telemetry.summary()["callback_errors"] >= 1


# ---------------------------------------------------------------------
# shared_runner staleness fix
# ---------------------------------------------------------------------

def test_shared_runner_rekeys_on_env_change(monkeypatch):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "2000")
    monkeypatch.setenv("REPRO_APPS", "lu")
    first = shared_runner()
    assert first.settings.apps == ["lu"]
    assert shared_runner() is first  # stable while env is stable
    monkeypatch.setenv("REPRO_APPS", "fft")
    second = shared_runner()
    assert second is not first
    assert second.settings.apps == ["fft"]


def test_reset_shared_runner_forces_rebuild(monkeypatch):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "2000")
    first = shared_runner()
    reset_shared_runner()
    assert shared_runner() is not first
