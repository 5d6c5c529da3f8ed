"""The benchmark's own logic: span arithmetic, percentiles, paper error,
seeded inputs and the metric tables.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from perfbench import inputs, ledger, stats
from perfbench.ledger import Span

REPO = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------
# self time and attribution
# ---------------------------------------------------------------------

def test_self_time_is_duration_minus_nested_children():
    rec = ledger.SpanRecorder()

    def leaf():
        return sum(range(2000))

    def middle():
        rec.call("b", leaf, (), {})
        rec.call("b", leaf, (), {})
        return sum(range(500))

    rec.call("a", middle, (), {})
    by_layer = {}
    for s in rec.spans:
        by_layer.setdefault(s.layer, []).append(s)
    (outer,) = by_layer["a"]
    inner = by_layer["b"]
    assert all(s.self_ns == s.duration_ns for s in inner)  # leaves
    assert outer.self_ns == outer.duration_ns - sum(s.duration_ns for s in inner)
    assert all(outer.start_ns <= s.start_ns and s.end_ns <= outer.end_ns for s in inner)


def test_span_is_recorded_when_the_call_raises():
    rec = ledger.SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.call("a", boom, (), {})
    assert [s.layer for s in rec.spans] == ["a"]
    assert rec._stack() == []


def _span(layer, track, start, end, self_ns=None):
    return Span(layer, (track, 0), start, end, end - start if self_ns is None else self_ns)


def test_attribution_on_one_thread_equals_self_time():
    spans = [
        _span("outer", 1, 10, 90, self_ns=50),
        _span("inner", 1, 20, 40),
        _span("inner", 1, 60, 70),
    ]
    parts, other = ledger.attribute(spans, (0, 100))
    assert parts == {"outer": 50, "inner": 30}
    assert other == 20
    assert sum(parts.values()) + other == 100


def test_attribution_splits_overlapping_threads_evenly():
    spans = [_span("a", 1, 0, 100), _span("b", 2, 50, 150)]
    parts, other = ledger.attribute(spans, (0, 200))
    assert parts == {"a": 75.0, "b": 75.0}
    assert other == 50
    assert sum(parts.values()) + other == 200


def test_layer_totals_account_for_every_window():
    spans = [
        _span("x", 1, 10, 30), _span("y", 2, 20, 50),  # pass 1
        _span("x", 1, 110, 120),                      # pass 2
        _span("x", 1, 300, 310),                      # outside any pass
    ]
    totals, other, wall = ledger.layer_totals(spans, [(0, 60), (100, 130)])
    assert wall == 90
    assert totals["x"].calls == 2 and totals["x"].inclusive_ns == 30
    accounted = sum(t.attributed_ns for t in totals.values()) + other
    assert accounted == pytest.approx(wall)


def test_instrumentation_restores_every_site():
    from repro.core import simulate
    from repro.mem.hierarchy import MemoryHierarchy

    before = (simulate.cpu_energy, MemoryHierarchy.__dict__["prewarm_region"])
    inst = ledger.Instrumentation(ledger.SpanRecorder())
    inst.install()
    try:
        assert simulate.cpu_energy is not before[0]
        assert MemoryHierarchy.__dict__["prewarm_region"] is not before[1]
    finally:
        inst.uninstall()
    assert (simulate.cpu_energy, MemoryHierarchy.__dict__["prewarm_region"]) == before


# ---------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------

def test_nearest_rank_percentile():
    samples = list(range(1, 101))  # 1..100
    assert stats.nearest_rank(samples, 50) == (50.0, 50)
    assert stats.nearest_rank(samples, 99) == (99.0, 1)


def test_p99_needs_ten_samples_beyond_it():
    assert stats.min_samples_for(99) == 1000
    assert stats.min_samples_for(90) == 100
    with pytest.raises(ValueError, match="only 9 beyond"):
        stats.tail_percentile(list(range(999)), 99)
    assert stats.tail_percentile(list(range(1000)), 99) == 989.0


# ---------------------------------------------------------------------
# paper error
# ---------------------------------------------------------------------

@dataclass
class _Fig:
    exhibit: str
    paper_means: dict
    measured_means: dict = field(default_factory=dict)


def test_paper_error_is_mean_absolute_log_ratio():
    figs = [
        _Fig("A", {"x": 1.0, "y": 2.0}, {"x": math.e, "y": 2.0}),
        _Fig("B", {"z": -70.0}, {"z": -35.0}),  # same sign: ratio 0.5
        _Fig("T", {}),                           # a table: no means
    ]
    err, count = stats.paper_error(figs)
    assert count == 3
    assert err == pytest.approx((1.0 + 0.0 + math.log(2.0)) / 3)


@pytest.mark.parametrize("measured", [None, float("nan"), -1.0])
def test_paper_error_rejects_missing_or_sign_flipped_values(measured):
    with pytest.raises(ValueError):
        stats.paper_error([_Fig("A", {"x": 1.0}, {"x": measured})])


# ---------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------

def test_sweep_inputs_are_deterministic_and_stratified():
    mem = set(inputs.memory_bound_apps())
    for seed in range(20):
        a = inputs.sweep_inputs("paper-serial", seed)
        assert a == inputs.sweep_inputs("paper-serial", seed)
        assert len(set(a.apps) & mem) == 2 and len(set(a.apps) - mem) == 2
        assert len(a.kernels) == 3
    draws = {inputs.sweep_inputs("paper-serial", s).apps for s in range(20)}
    assert len(draws) > 5  # the seed really chooses


def test_subsets_are_cost_balanced():
    costs = [
        sum(inputs.APP_COST[a] for a in inputs.sweep_inputs("sweep-parallel", s).apps)
        for s in range(30)
    ]
    tol = inputs.COST_TOLERANCE
    assert max(costs) / min(costs) <= (1 + tol) / (1 - tol)


def test_serve_job_mix():
    mix = inputs.serve_inputs(3)
    assert mix == inputs.serve_inputs(3)
    jobs = mix.jobs(0)
    assert jobs == mix.jobs(0) and jobs != mix.jobs(1)  # a new order per pass
    def firsts(js):
        return sorted(j.cell for j in js if j.source != "duplicate")

    assert firsts(jobs) == firsts(mix.jobs(1))  # the same cells every pass
    sources = [j.source for j in jobs]
    assert sources.count("store") == 5 * inputs.SERVE_KERNELS
    assert sources.count("fresh") == 6 * 4
    assert sources.count("duplicate") == inputs.SERVE_DUPLICATES
    assert [j.index for j in jobs] == list(range(len(jobs)))
    for job in jobs:
        if job.source == "duplicate":
            original = jobs[job.original]
            assert original.index < job.index
            assert original.source != "duplicate" and original.cell == job.cell


def test_inputs_do_not_depend_on_the_hash_seed():
    code = (
        "from perfbench import inputs; "
        "print(inputs.sweep_inputs('paper-serial', 7), inputs.serve_inputs(7).jobs(2)[:5])"
    )
    outs = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])}
        outs.add(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout)
    assert len(outs) == 1


# ---------------------------------------------------------------------
# failure accounting and the metric tables
# ---------------------------------------------------------------------

def _run_module():
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return run


@dataclass
class _Pass:
    jobs: int
    failed: int


def test_a_digest_problem_fails_every_job():
    run = _run_module()
    passes = [_Pass(jobs=300, failed=0), _Pass(jobs=300, failed=2)]
    assert run.count_failures(passes, []) == 2
    assert run.count_failures(passes, ["report digest differs"]) == 600


def test_benchmark_json_matches_the_reported_metrics():
    run = _run_module()
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
