"""Spans around each layer's public functions, and the per-layer ledger.

The traced run wraps every name in :data:`SITES` *where it is looked up*
(``repro.core.simulate.cpu_energy`` rather than the definition in
``repro.power.model``), so the program's own code is untouched: a wrapper
records one span per call -- layer, thread or process, start, end, self
time -- in memory, and :meth:`Instrumentation.uninstall` restores the
original.  Untraced runs install nothing and pay nothing.

Self time is a span's duration minus the time its child spans (same
thread, nested) cover.  Spans on different threads or processes overlap,
so the ledger also *attributes* wall time: each instant of a pass is split
evenly among the innermost open span of every thread and process, and an
instant inside no layer goes to ``other``.  Attributed times plus
``other`` sum to the pass's wall time exactly; on a single thread they
equal self times.

Worker processes forked by the sweep pool inherit the wrappers; each
spills its spans to a file when its ``worker_main`` returns, and the
parent absorbs them after the pass (``perf_counter_ns`` is one
system-wide monotonic clock on Linux, so the timelines line up).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    layer: str
    track: tuple  # (pid, thread ident)
    start_ns: int
    end_ns: int
    self_ns: int
    #: Work counted at the same boundary (instructions, store hits...).
    counts: "dict[str, float] | None" = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """In-memory span buffer (one per traced run)."""

    def __init__(self, spill_dir: "str | None" = None):
        self.spill_dir = spill_dir
        self.spans: "list[Span]" = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn, args, kwargs, count=None):
        """Run ``fn`` inside one span of ``layer``."""
        stack = self._stack()
        frame = [0]  # nanoseconds covered by child spans
        stack.append(frame)
        start = time.perf_counter_ns()
        counts = None
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, result)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
            self.spans.append(Span(
                layer, (os.getpid(), threading.get_ident()), start, end,
                end - start - frame[0], counts,
            ))

    # -- worker processes ----------------------------------------------
    def reset_in_child(self) -> None:
        """Forget the parent's spans in a freshly forked worker."""
        self.spans = []
        self._local = threading.local()

    def spill(self) -> None:
        """Write this (worker) process's spans for the parent to absorb."""
        path = os.path.join(self.spill_dir, f"worker-{os.getpid()}.json")
        rows = [
            [s.layer, list(s.track), s.start_ns, s.end_ns, s.self_ns, s.counts]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

    def absorb_spills(self) -> int:
        """Merge and delete every worker spill file; returns files read."""
        if self.spill_dir is None or not os.path.isdir(self.spill_dir):
            return 0
        names = sorted(n for n in os.listdir(self.spill_dir) if n.endswith(".json"))
        for name in names:
            path = os.path.join(self.spill_dir, name)
            with open(path, encoding="utf-8") as fh:
                rows = json.load(fh)
            os.unlink(path)
            for layer, track, start, end, self_ns, counts in rows:
                self.spans.append(Span(layer, tuple(track), start, end, self_ns, counts))
        return len(names)

    def dump(self, path) -> None:
        """Write every recorded span (the traced run's trace file)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([
                {"layer": s.layer, "pid": s.track[0], "thread": s.track[1],
                 "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "self_ns": s.self_ns, "counts": s.counts}
                for s in self.spans
            ], fh)


# ---------------------------------------------------------------------
# Wrap sites
# ---------------------------------------------------------------------

def _instructions(args, result) -> dict:
    return {"instructions": len(args[1])}  # OutOfOrderCore.run(self, trace)


def _one_gpu_cell(args, result) -> dict:
    return {"cells": 1}


def _gpu_batch(args, result) -> dict:
    return {"cells": len(result), "vectorized": sum(bool(o.vectorized) for o in result)}


def _store_hit(args, result) -> dict:
    return {"hits": int(result is not None)}


#: (module, attribute path where the name is looked up, layer, counter).
SITES = [
    ("repro.workloads.trace_cache", "generate_trace", "workloads.trace_generate", None),
    ("repro.workloads.trace_cache", "generate_kernel", "workloads.trace_generate", None),
    ("repro.mem.hierarchy", "MemoryHierarchy.prewarm_region", "mem.prewarm", None),
    ("repro.cpu.core", "OutOfOrderCore.run", "cpu.engine", _instructions),
    ("repro.core.simulate", "run_gpu", "gpu.engine", _one_gpu_cell),
    ("repro.core.simulate", "run_gpu_batch", "gpu.engine", _gpu_batch),
    ("repro.core.simulate", "cpu_energy", "power.evaluate", None),
    ("repro.core.simulate", "gpu_energy", "power.evaluate", None),
    # HetCoreDvfs.simulate_at imports cpu_energy at call time.
    ("repro.power.model", "cpu_energy", "power.evaluate", None),
    ("repro.core.simulate", "simulate_cpu", "core.simulate", None),
    ("repro.core.dvfs", "simulate_cpu", "core.simulate", None),
    ("repro.experiments.runner", "simulate_cpu", "core.simulate", None),
    ("repro.experiments.runner", "simulate_gpu", "core.simulate", None),
    ("repro.experiments.runner", "simulate_cpu_batch", "core.simulate", None),
    ("repro.experiments.runner", "simulate_gpu_batch", "core.simulate", None),
    ("repro.core.dvfs", "HetCoreDvfs.simulate_at", "core.dvfs", None),
    ("repro.experiments.runner", "SweepRunner.cpu_sweep", "experiments.cpu_sweep", None),
    ("repro.experiments.runner", "SweepRunner.gpu_sweep", "experiments.gpu_sweep", None),
    ("repro.experiments.runner", "SweepRunner.dvfs_cell", "experiments.dvfs_sweep", None),
    ("repro.experiments.runner", "SweepRunner.dvfs_sweep", "experiments.dvfs_sweep", None),
    ("repro.experiments.report", "full_report", "experiments.report_render", None),
    ("repro.resilience.pool", "SweepPool.run", "resilience.pool_run", None),
    ("repro.resilience.shm", "export_traces", "resilience.shm_export", None),
    ("repro.resilience.checkpoint", "SweepCheckpoint.save", "resilience.checkpoint_flush", None),
    ("repro.store.cas", "ResultStore.put", "store.put", None),
    ("repro.store.cas", "ResultStore.get", "store.get", _store_hit),
    ("repro.serve.client", "ServeClient.submit", "serve.submit", None),
    ("repro.serve.client", "ServeClient.poll", "serve.poll", None),
    ("repro.serve.service", "SimService._run_cell", "serve.run_cell", None),
]

#: Worker processes: the pool forks ``repro.resilience.pool.worker_main``;
#: its wrapper records the worker's spans and spills them at exit.
WORKER_SITE = ("repro.resilience.pool", "worker_main", "resilience.worker")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


class Instrumentation:
    """Installs span wrappers on every site; :meth:`uninstall` undoes it."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: "list[tuple[object, str, object]]" = []

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        rec = self.recorder
        for module_name, path, layer, count in SITES:
            owner, name = _resolve(module_name, path)
            original = owner.__dict__[name]

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _layer=layer, _count=count, **kwargs):
                return rec.call(_layer, _fn, args, kwargs, _count)

            self._patch(owner, name, wrapper)

        module_name, path, layer = WORKER_SITE
        owner, name = _resolve(module_name, path)
        worker_main = owner.__dict__[name]

        @functools.wraps(worker_main)
        def traced_worker_main(*args, **kwargs):
            rec.reset_in_child()
            try:
                return rec.call(layer, worker_main, args, kwargs)
            finally:
                rec.spill()

        self._patch(owner, name, traced_worker_main)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------

def attribute(spans, window: "tuple[int, int]") -> "tuple[dict[str, float], float]":
    """Split ``window``'s wall time among layers; returns (per layer, other).

    Each instant goes in equal parts to the innermost open span of every
    track (thread or process); an instant inside no span is ``other``.
    The parts plus ``other`` sum to the window length.
    """
    w0, w1 = window
    events = []
    for i, s in enumerate(spans):
        start, end = max(s.start_ns, w0), min(s.end_ns, w1)
        if end > start:
            events.append((start, 1, i))
            events.append((end, 0, i))
    events.sort()  # ends (0) before starts (1) at equal times
    open_spans: "dict[tuple, dict[int, Span]]" = defaultdict(dict)
    attributed: "dict[str, float]" = defaultdict(float)
    other = 0.0
    prev = w0
    for t, kind, i in events:
        if t > prev:
            leaves = [
                max(spans_.values(), key=lambda s: (s.start_ns, -s.end_ns))
                for spans_ in open_spans.values() if spans_
            ]
            if leaves:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    attributed[leaf.layer] += share
            else:
                other += t - prev
            prev = t
        span = spans[i]
        if kind == 1:
            open_spans[span.track][i] = span
        else:
            del open_spans[span.track][i]
    other += w1 - prev
    return dict(attributed), other


@dataclass
class LayerTotals:
    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0
    attributed_ns: float = 0.0
    counts: "dict[str, float]" = field(default_factory=dict)


def layer_totals(spans, windows) -> "tuple[dict[str, LayerTotals], float, float]":
    """Per-layer totals over the pass ``windows``; returns
    (totals, other_ns, wall_ns)."""
    totals: "dict[str, LayerTotals]" = defaultdict(LayerTotals)
    other = 0.0
    wall = 0
    for w0, w1 in windows:
        inside = [s for s in spans if s.start_ns >= w0 and s.end_ns <= w1]
        for s in inside:
            t = totals[s.layer]
            t.calls += 1
            t.inclusive_ns += s.duration_ns
            t.self_ns += s.self_ns
            for name, value in (s.counts or {}).items():
                t.counts[name] = t.counts.get(name, 0) + value
        parts, rest = attribute(inside, (w0, w1))
        for layer, ns in parts.items():
            totals[layer].attributed_ns += ns
        other += rest
        wall += w1 - w0
    return dict(totals), other, wall


def format_ledger(workload: str, totals, other_ns: float, wall_ns: float,
                  passes: int) -> str:
    """Human-readable per-layer table (seconds per traced pass)."""
    per = 1e9 * passes
    lines = [
        f"ledger {workload}: {passes} traced pass(es), "
        f"{wall_ns / per:.4f} s wall per pass",
        f"  {'layer':<28}{'calls':>9}{'wall_s':>11}{'self_s':>11}"
        f"{'attrib_s':>11}{'share':>8}",
    ]
    rows = sorted(totals.items(), key=lambda kv: -kv[1].attributed_ns)
    for layer, t in rows:
        lines.append(
            f"  {layer:<28}{t.calls / passes:>9.1f}{t.inclusive_ns / per:>11.4f}"
            f"{t.self_ns / per:>11.4f}{t.attributed_ns / per:>11.4f}"
            f"{t.attributed_ns / wall_ns:>8.1%}"
        )
    lines.append(
        f"  {'other (unattributed)':<28}{'':>9}{'':>11}{'':>11}"
        f"{other_ns / per:>11.4f}{other_ns / wall_ns:>8.1%}"
    )
    accounted = sum(t.attributed_ns for t in totals.values()) + other_ns
    lines.append(
        f"  attributed + other = {accounted / per:.4f} s "
        f"({accounted / wall_ns:.4%} of wall)"
    )
    return "\n".join(lines)
