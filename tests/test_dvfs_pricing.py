"""DVFS pricing: a point at the design's own frequency is its CPU run,
re-priced at the point's voltages.

``HetCoreDvfs.price`` is the one place a run becomes a DVFS or guardband
energy; ``simulate_at`` is ``price(simulate_cpu(...))``, and Figure 14
prices the runner's CPU cells for its 2 GHz points instead of running
the engine a second time.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.configs import cpu_config
from repro.core.dvfs import HetCoreDvfs
from repro.core.simulate import simulate_cpu
from repro.experiments.figures import figure7, figure14
from repro.experiments.runner import SweepRunner, SweepSettings

APPS = ["lu", "fft"]


def _canon(run) -> str:
    return json.dumps(dataclasses.asdict(run), sort_keys=True, default=str)


def _runner(instructions: int = 2000, **kwargs) -> SweepRunner:
    return SweepRunner(
        SweepSettings(instructions=instructions, apps=list(APPS), **kwargs)
    )


@pytest.mark.parametrize("variation", [False, True])
@pytest.mark.parametrize("name", ["BaseCMOS", "AdvHet"])
def test_priced_cpu_run_equals_simulate_at(name, variation):
    dvfs = HetCoreDvfs()
    design = cpu_config(name)
    run = simulate_cpu(design, "lu", instructions=1000, warmup=250)
    assert _canon(dvfs.price(run, design, 2.0, variation)) == _canon(
        dvfs.simulate_at(
            design, "lu", 2.0, variation, instructions=1000, warmup=250
        )
    )


def test_price_leaves_its_input_unchanged():
    design = cpu_config("AdvHet")
    run = simulate_cpu(design, "lu", instructions=1000, warmup=250)
    energy = dataclasses.asdict(run.energy)
    priced = HetCoreDvfs().price(run, design, 2.0, variation=True)
    assert dataclasses.asdict(run.energy) == energy
    assert priced.energy_j > run.energy_j  # the guardbands cost energy
    assert priced.multicore is run.multicore


def test_zero_warmup_dvfs_cell_is_the_priced_cpu_cell():
    """``warmup=0`` is a warm-up of zero, not the 20k default (which
    would exceed a 1000-instruction trace and crash the cell)."""
    runner = _runner(instructions=1000, warmup_fraction=0.0)
    assert runner.settings.warmup == 0
    cpu = runner.cpu_cell("BaseCMOS", "lu")
    dvfs = runner.dvfs_cell("BaseCMOS", "lu", 2.0, False)
    assert cpu is not None and dvfs is not None, runner.failures
    priced = HetCoreDvfs().price(cpu, cpu_config("BaseCMOS"), 2.0, False)
    assert _canon(dvfs) == _canon(priced)


def test_figure14_after_figure7_runs_only_off_frequency_points():
    runner = _runner()
    figure7(runner)
    before = runner.telemetry.cache_counts()
    records = len(runner.telemetry.records)
    figure14(runner)
    after = runner.telemetry.cache_counts()
    new = runner.telemetry.records[records:]
    # 2 configs x (1.5, 2.5 GHz) x apps; every 2 GHz point is a CPU hit.
    assert after["dvfs"][1] - before["dvfs"][1] == 2 * 2 * len(APPS)
    assert after["cpu"][1] == before["cpu"][1]
    assert after["cpu"][0] > before["cpu"][0]
    assert {r.kind for r in new} == {"dvfs"} and len(new) == 2 * 2 * len(APPS)
    assert not runner.failures


def test_figure14_alone_equals_figure14_after_figure7():
    alone = figure14(_runner())
    shared = _runner()
    figure7(shared)
    assert figure14(shared) == alone
