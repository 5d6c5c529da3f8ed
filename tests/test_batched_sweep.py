"""Batched sweep execution: "faster, never different" at matrix scale.

The batched drivers (``simulate_cpu_batch`` / ``simulate_gpu_batch``),
the runner's batch path, and the process pool's cell batches must all
produce results byte-identical to the per-cell drivers and the
``REPRO_NO_CYCLE_SKIP=1`` reference walk -- across the full paper
matrix (pinned to committed golden digests), under hypothesis-generated
random batches, and with per-cell fault containment: one poisoned cell
inside a batch degrades to a recorded :class:`RunFailure` gap while its
siblings complete.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.configs import (
    CPU_MAIN_CONFIGS,
    GPU_MAIN_CONFIGS,
    cpu_config,
    gpu_config,
)
from repro.core.simulate import (
    simulate_cpu,
    simulate_cpu_batch,
    simulate_gpu,
    simulate_gpu_batch,
)
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.obs.events import get_event_log
from repro.obs.metrics import get_registry
from repro.obs.top import render_dashboard
from repro.resilience import GuardPolicy, faults
from repro.resilience.errors import FAILURE_KINDS, SweepError
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.guard import zombie_thread_count
from repro.resilience.pool import CellTask, SweepPool
from repro.workloads import CPU_APPS
from repro.workloads.gpu_profiles import GPU_KERNELS

HATCH_SKIP = "REPRO_NO_CYCLE_SKIP"
GOLDEN = pathlib.Path(__file__).with_name("paper_matrix_digests.json")


@pytest.fixture(autouse=True)
def _obs_reset():
    obs.set_enabled(False)
    get_registry().clear()
    get_event_log().clear()
    yield
    obs.set_enabled(False)
    get_registry().clear()
    get_event_log().clear()


def _canon(run) -> str:
    return json.dumps(dataclasses.asdict(run), sort_keys=True, default=str)


# ---------------------------------------------------------------------
# full paper matrix: batched == legacy == golden
# ---------------------------------------------------------------------

def test_full_paper_matrix_identical_across_engine_paths(monkeypatch):
    """Every cell of the paper's CPU and GPU matrices serialises
    byte-identically on the batched drivers and the per-cell
    ``REPRO_NO_CYCLE_SKIP=1`` reference walk (at reduced sizes), and
    hashes to its committed golden digest."""
    golden = json.loads(GOLDEN.read_text())
    instructions, warmup = golden["cpu_instructions"], golden["cpu_warmup"]
    cpu_cells = [(cpu_config(c), a) for c in CPU_MAIN_CONFIGS for a in CPU_APPS]
    gpu_cells = [(gpu_config(c), k) for c in GPU_MAIN_CONFIGS for k in GPU_KERNELS]
    names = [f"cpu/{c}/{a}" for c in CPU_MAIN_CONFIGS for a in CPU_APPS] + [
        f"gpu/{c}/{k}" for c in GPU_MAIN_CONFIGS for k in GPU_KERNELS
    ]
    assert sorted(names) == sorted(golden["cells"])

    monkeypatch.delenv(HATCH_SKIP, raising=False)
    batched = [
        _canon(o.result)
        for o in simulate_cpu_batch(
            cpu_cells, instructions=instructions, warmup=warmup
        )
    ] + [_canon(o.result) for o in simulate_gpu_batch(gpu_cells)]

    monkeypatch.setenv(HATCH_SKIP, "1")
    legacy = [
        _canon(simulate_cpu(d, a, instructions=instructions, warmup=warmup))
        for d, a in cpu_cells
    ] + [_canon(simulate_gpu(d, k)) for d, k in gpu_cells]

    for name, b, l in zip(names, batched, legacy):
        assert b == l, f"engine paths disagree on {name}"
        digest = hashlib.sha256(b.encode("utf-8")).hexdigest()
        assert digest == golden["cells"][name], f"{name} drifted from golden"


# ---------------------------------------------------------------------
# property tests: random small batches equal per-cell runs
# ---------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(CPU_MAIN_CONFIGS),
            st.sampled_from(list(CPU_APPS)[:6]),
        ),
        min_size=1,
        max_size=4,
    ),
    instructions=st.integers(min_value=400, max_value=1200),
    seed=st.integers(min_value=0, max_value=3),
)
def test_property_cpu_batch_equals_serial(cells, instructions, seed):
    built = [(cpu_config(c), a) for c, a in cells]
    warmup = instructions // 4
    batch = simulate_cpu_batch(
        built, instructions=instructions, warmup=warmup, seed=seed
    )
    for (design, app), out in zip(built, batch):
        assert out.error is None
        serial = simulate_cpu(
            design, app, instructions=instructions, warmup=warmup, seed=seed
        )
        assert _canon(out.result) == _canon(serial)


@settings(max_examples=8, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(GPU_MAIN_CONFIGS),
            st.sampled_from(list(GPU_KERNELS)[:8]),
        ),
        min_size=1,
        max_size=6,  # straddles the vectorization threshold
    ),
    seed=st.integers(min_value=0, max_value=3),
)
def test_property_gpu_batch_equals_serial(cells, seed):
    built = [(gpu_config(c), k) for c, k in cells]
    batch = simulate_gpu_batch(built, seed=seed)
    for (design, kernel), out in zip(built, batch):
        assert out.error is None
        serial = simulate_gpu(design, kernel, seed=seed)
        assert _canon(out.result) == _canon(serial)


# ---------------------------------------------------------------------
# runner + pool: batching is invisible in the results
# ---------------------------------------------------------------------

def test_pool_cell_batches_match_single_cell_outcomes():
    """Worker-executed cell batches merge task-ordered and byte-equal the
    direct per-cell simulations."""
    tasks = [
        CellTask("cpu", config, app)
        for config in ("BaseCMOS", "AdvHet")
        for app in ("lu", "fft")
    ]
    events = []
    pool = SweepPool(
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
        instructions=2_000,
        warmup=500,
        workers=2,
        on_event=lambda e, i: events.append((e, i)),
    )
    outcomes = pool.run(tasks)
    for task, outcome in zip(tasks, outcomes):
        assert outcome.failure is None
        direct = simulate_cpu(
            cpu_config(task.config), task.workload, instructions=2_000, warmup=500
        )
        assert dataclasses.asdict(outcome.result) == dataclasses.asdict(direct)
    batches = [info for event, info in events if event == "batch_completed"]
    assert batches and all(info["cells"] == 2 for info in batches)
    assert sum(info["cells"] for info in batches) == len(tasks)


def test_serial_and_pool_sweeps_tally_equal_batch_counts():
    """The in-process runner and the pool workers tally their engine
    batches with one function, so without faults a serial and a
    2-worker process sweep record the same batch totals."""
    settings = SweepSettings(instructions=2_000, apps=["lu", "fft"])
    totals = []
    for workers, isolation in ((1, "thread"), (2, "process")):
        runner = SweepRunner(settings)
        results = runner.cpu_sweep(
            ["BaseCMOS", "AdvHet"], workers=workers, isolation=isolation
        )
        assert all(
            run is not None for row in results.values() for run in row.values()
        )
        counts = runner.telemetry.batch_counts()
        totals.append({
            stat: counts[stat]
            for stat in ("cells", "instructions", "engine_cycles", "skipped_cycles")
        })
    serial, pooled = totals
    assert serial["cells"] == 4
    assert serial["instructions"] > 0 and serial["engine_cycles"] > 0
    assert pooled == serial


# ---------------------------------------------------------------------
# fault containment: a poisoned cell is a gap, not a dead batch
# ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "run_kind, design, good, extra",
    [
        ("cpu", cpu_config("AdvHet"), "lu", ()),
        ("gpu", gpu_config("AdvHet"), "DCT", ()),
        ("dvfs", cpu_config("AdvHet"), "lu", (0.55, True)),
    ],
)
def test_raising_cell_is_an_error_outcome_beside_completed_siblings(
    run_kind, design, good, extra
):
    """A cell that raises inside a batch comes back as an outcome with
    ``error`` set and no result; its siblings complete, equal to runs
    of their own."""
    from repro.experiments.runner import simulate_cells

    cells = [(design, good, extra), (design, "no-such-workload", extra)] * 3
    outcomes = simulate_cells(run_kind, cells, 1_000, 250)
    assert len(outcomes) == len(cells)
    alone = simulate_cells(run_kind, cells[:1], 1_000, 250)[0]
    assert alone.error is None
    for (_, workload, _), out in zip(cells, outcomes):
        if workload == good:
            assert out.error is None
            assert _canon(out.result) == _canon(alone.result)
        else:
            assert out.result is None and isinstance(out.error, KeyError)


def test_gpu_energy_error_keeps_the_engine_telemetry(monkeypatch):
    """A GPU cell failing after the engine (in the energy model) keeps
    the lockstep engine's telemetry on its outcome."""
    import repro.core.simulate as simulate_mod

    real = simulate_mod._gpu_run_result

    def energy(design, profile, result):
        if profile.name == "Histogram":
            raise ValueError("energy model failed")
        return real(design, profile, result)

    monkeypatch.setattr(simulate_mod, "_gpu_run_result", energy)
    kernels = ["DCT", "Histogram", "DCT", "Histogram"]
    outcomes = simulate_gpu_batch([(gpu_config("AdvHet"), k) for k in kernels])
    for kernel, out in zip(kernels, outcomes):
        assert out.vectorized and out.skipped_cycles > 0
        if kernel == "Histogram":
            assert out.result is None and isinstance(out.error, ValueError)
        else:
            assert out.error is None and out.result.kernel == "DCT"


def test_mid_batch_fault_degrades_to_single_cell_gap():
    """One poisoned cell inside the serial batch becomes a RunFailure gap;
    its siblings complete and the batch telemetry still covers them."""

    class KillCell(FaultInjector):
        def draw(self, run_kind, key):
            if key == ("BaseTFET", "lu"):
                raise RuntimeError("poisoned mid-batch cell")

    faults.install(KillCell(FaultPlan()))
    runner = SweepRunner(
        SweepSettings(instructions=2_000, apps=["lu"], kernels=["DCT"]),
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
    )
    results = runner.cpu_sweep(["BaseCMOS", "BaseTFET", "AdvHet"])
    assert results["BaseCMOS"]["lu"] is not None
    assert results["BaseTFET"]["lu"] is None
    assert results["AdvHet"]["lu"] is not None

    [failure] = runner.failures.values()
    assert failure.cell == ("cpu", "BaseTFET", "lu")
    assert failure.kind == "crash" and failure.kind in FAILURE_KINDS
    assert "poisoned" in failure.message
    assert runner.telemetry.batch_counts()["cells"] == 3


def test_seeded_env_faults_mid_batch_map_onto_taxonomy(monkeypatch):
    """A ``REPRO_FAULTS*`` seeded schedule striking mid-batch yields only
    taxonomy-kind gaps; every other cell of the batch completes."""
    monkeypatch.setenv("REPRO_FAULTS", "1")
    monkeypatch.setenv("REPRO_FAULTS_FAIL_P", "0.5")
    monkeypatch.setenv("REPRO_FAULTS_SEED", "11")
    faults.reset()
    runner = SweepRunner(
        SweepSettings(instructions=2_000, apps=["lu", "fft"], kernels=["DCT"]),
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
    )
    results = runner.cpu_sweep(list(CPU_MAIN_CONFIGS))
    cells = [run for row in results.values() for run in row.values()]
    ok = [c for c in cells if c is not None]
    assert ok and runner.failures, "seeded schedule must split the batch"
    assert len(ok) + len(runner.failures) == len(cells)
    for failure in runner.failures.values():
        assert failure.kind in FAILURE_KINDS
        assert failure.run_kind == "cpu"
    assert runner.telemetry.batch_counts()["cells"] == len(cells)


def test_retry_after_corrupt_fault_reruns_the_cell():
    """A ``corrupt`` fault spoils its attempt's result in place, so a
    retry must re-run the cell, not replay the spoiled batch result.
    BaseCMOS/lu draws corrupt, corrupt, clean under this seeded plan."""
    faults.install(FaultInjector(FaultPlan(corrupt_p=0.5, seed=0)))
    runner = SweepRunner(
        SweepSettings(instructions=2_000, apps=["lu"], kernels=["DCT"]),
        policy=GuardPolicy(max_retries=3, backoff_base_s=0.0, jitter=0.0),
    )
    results = runner.cpu_sweep(["BaseCMOS"])
    assert results["BaseCMOS"]["lu"] is not None
    assert runner.failures == {}
    assert runner.telemetry.retry_counts()["cpu"] == 2


def test_timed_out_batch_is_a_timeout_gap(monkeypatch):
    """The policy timeout covers the engine batch of a sweep (scaled to
    the batch), exactly as it covers a strict single-cell run."""
    import repro.experiments.runner as runner_mod

    def slow_batch(*args, **kwargs):
        time.sleep(1.0)
        return simulate_cpu_batch(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "simulate_cpu_batch", slow_batch)
    settings = SweepSettings(instructions=2_000, apps=["lu"], kernels=["DCT"])
    policy = GuardPolicy(
        timeout_s=0.2, max_retries=0, backoff_base_s=0.0, jitter=0.0
    )

    runner = SweepRunner(settings, policy=policy)
    with pytest.warns(RuntimeWarning, match="zombie"):
        results = runner.cpu_sweep(["BaseCMOS"])
    assert results["BaseCMOS"]["lu"] is None
    failure = runner.failures[("cpu", "BaseCMOS", "lu")]
    assert (failure.kind, failure.attempts) == ("timeout", 1)

    with pytest.warns(RuntimeWarning, match="zombie"):
        with pytest.raises(SweepError) as raised:
            SweepRunner(settings, policy=policy).cpu_run("BaseCMOS", "lu")
    assert raised.value.failure.kind == "timeout"
    # Let the abandoned attempts finish so they warn no later test.
    deadline = time.monotonic() + 30.0
    while zombie_thread_count() and time.monotonic() < deadline:
        time.sleep(0.05)


def test_repeated_cell_runs_once_and_counts_one_hit(monkeypatch):
    """A cell named twice in one sweep reaches the engine once; the
    repeat counts as the hit a second lookup would be."""
    import repro.experiments.runner as runner_mod

    batches = []

    def spy_batch(cells, **kwargs):
        batches.append(len(cells))
        return simulate_cpu_batch(cells, **kwargs)

    monkeypatch.setattr(runner_mod, "simulate_cpu_batch", spy_batch)
    runner = SweepRunner(
        SweepSettings(instructions=500, apps=["lu"], kernels=["DCT"])
    )
    results = runner.cpu_sweep(["BaseCMOS", "BaseCMOS"])
    assert batches == [1]
    assert results["BaseCMOS"]["lu"] is not None
    assert runner.telemetry.summary()["cache"]["cpu"] == {"hits": 1, "misses": 1}
    # The pool path plans its tasks from the same de-duplicated list.
    fresh = SweepRunner(SweepSettings(instructions=500, apps=["lu"]))
    cell = ("AdvHet", "lu", ())
    assert [key for key, _ in fresh._missing("cpu", [cell, cell])] == [
        ("AdvHet", "lu")
    ]


# ---------------------------------------------------------------------
# repro top: the engine row
# ---------------------------------------------------------------------

def test_top_engine_row_renders_only_after_batched_sweeps():
    state = {
        "counters": {
            "sweep.batch.cells": 10.0,
            "sweep.batch.vectorized_cells": 8.0,
            "sweep.batch.engine_cycles": 90_000.0,
            "sweep.batch.skipped_cycles": 10_000.0,
        }
    }
    frame = render_dashboard(
        None, {"seq": 1, "state": state}, {"engine instr/s": 25_000.0}
    )
    assert (
        "engine:  instr/s 25.00k  batch occupancy 80%  skip rate 10%" in frame
    )
    # Classic dashboards (no batched sweep yet) stay byte-stable.
    assert "engine:" not in render_dashboard(None, {"seq": 1, "state": {}}, {})
