"""Structured counter dumps for single runs (the ``repro stats`` command).

Turns a finished :class:`~repro.core.simulate.CpuRunResult` /
:class:`~repro.core.simulate.GpuRunResult` into a nested, JSON-ready dict
of counters and rates -- the per-unit views the paper's analysis leans on
(DL1 fast-way hit rate, slow/fast ALU dispatch split, stall breakdown,
register-file-cache hit rate) -- plus whatever the global metrics registry
currently exposes when observability is enabled.

This module is deliberately *not* imported from :mod:`repro.obs`'s
``__init__`` -- it depends on the simulation layer, which itself imports
the observability primitives.
"""

from __future__ import annotations

from repro import obs
from repro.obs.metrics import get_registry


def _round(value: float, digits: int = 4) -> float:
    return round(float(value), digits)


def collect_cpu_stats(run) -> dict:
    """Nested counter dump for one CPU run (``CpuRunResult``)."""
    core = run.core
    act = core.activity
    total_alu = act.alu_fast_ops + act.alu_slow_ops
    stats = {
        "kind": "cpu",
        "config": run.config,
        "workload": run.app,
        "summary": {
            "cycles": core.cycles,
            "committed": core.committed,
            "ipc": _round(core.ipc),
            "time_s": run.time_s,
            "energy_j": run.energy_j,
            "power_w": _round(run.power_w),
            "ed": run.ed,
            "ed2": run.ed2,
        },
        "frontend": {
            "fetched": act.fetched,
            "il1_accesses": act.il1_accesses,
            "bpred_lookups": act.bpred_lookups,
            "bpred_miss_rate": _round(core.branch_mispredict_rate),
        },
        "alu": {
            "fast_dispatches": act.alu_fast_ops,
            "slow_dispatches": act.alu_slow_ops,
            "fast_fraction": _round(core.alu_fast_fraction),
            "muldiv_ops": act.muldiv_ops,
            "fpu_ops": act.fpu_ops,
            "lsu_ops": act.lsu_ops,
        },
        "dl1": {
            "accesses": act.dl1_accesses,
            "hit_rate": _round(core.dl1_hit_rate),
            "fast_way_hits": act.dl1_fast_hits,
            "fast_way_hit_rate": _round(core.dl1_fast_hit_rate),
            "slow_accesses": act.dl1_slow_accesses,
            "line_moves": act.dl1_line_moves,
        },
        "l2": {"accesses": act.l2_accesses, "hit_rate": _round(core.l2_hit_rate)},
        "l3": {"accesses": act.l3_accesses, "hit_rate": _round(core.l3_hit_rate)},
        "dram": {"accesses": act.dram_accesses},
        "stalls": {
            "frontend_cycles": act.stall_frontend_cycles,
            "dep_cycles": act.stall_dep_cycles,
            "mem_cycles": act.stall_mem_cycles,
            "structural_cycles": act.stall_structural_cycles,
            **{
                f"{k}_fraction": _round(v)
                for k, v in act.stall_breakdown(core.cycles).items()
            },
        },
        "occupancy": {"rob_peak": core.rob_peak, "iq_peak": core.iq_peak},
    }
    _attach_registry(stats)
    return stats


def collect_gpu_stats(run) -> dict:
    """Nested counter dump for one GPU run (``GpuRunResult``)."""
    cu = run.gpu.cu_result
    stats = {
        "kind": "gpu",
        "config": run.config,
        "workload": run.kernel,
        "summary": {
            "cycles": cu.cycles,
            "instructions": cu.instructions,
            "ipc": _round(cu.ipc),
            "time_s": run.time_s,
            "energy_j": run.energy_j,
            "power_w": _round(run.power_w),
            "ed": run.ed,
            "ed2": run.ed2,
        },
        "cu": {
            "n_cus": run.gpu.n_cus,
            "fma_ops": cu.fma_ops,
            "mem_ops": cu.mem_ops,
        },
        "rf": {"reads": cu.rf_reads, "writes": cu.rf_writes},
        "rfc": {
            "hits": cu.rf_cache_read_hits,
            "misses": cu.rf_cache_read_misses,
            "writes": cu.rf_cache_writes,
            "hit_rate": _round(cu.rf_cache_hit_rate),
        },
    }
    _attach_registry(stats)
    return stats


def _attach_registry(stats: dict) -> None:
    """Add the global registry snapshot when observability is on."""
    if obs.enabled():
        snapshot = get_registry().snapshot()
        if snapshot:
            stats["registry"] = {k: snapshot[k] for k in sorted(snapshot)}
    stats["runtime"] = collect_runtime_stats()


def collect_runtime_stats() -> dict:
    """Process-wide runtime counters: trace cache and shm transport.

    These used to be pull-model probes only (visible solely through a
    SweepTelemetry-owned registry), so single-run ``repro stats`` never
    showed them; they are cheap plain-int reads, so they are attached
    unconditionally.
    """
    from repro.resilience.shm import transport_stats
    from repro.workloads.trace_cache import shared_cache

    return {
        "trace_cache": shared_cache().stats(),
        "shm_transport": transport_stats(),
    }


def flatten_stats(stats: dict, prefix: str = "") -> "dict[str, object]":
    """``{"dl1": {"hit_rate": x}}`` -> ``{"dl1.hit_rate": x}``."""
    out: "dict[str, object]" = {}
    for key, value in stats.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten_stats(value, name))
        else:
            out[name] = value
    return out


def format_stats(stats: dict) -> str:
    """Aligned ``name  value`` text dump of a nested stats dict."""
    flat = flatten_stats(stats)
    width = max(len(name) for name in flat)
    lines = []
    for name, value in flat.items():
        if isinstance(value, float):
            rendered = f"{value:.6g}"
        else:
            rendered = str(value)
        lines.append(f"{name:<{width}}  {rendered}")
    return "\n".join(lines)
