"""One entry point per paper exhibit.

Each function returns a :class:`FigureResult` carrying the structured data,
a formatted text table (the same rows/series the paper plots), and the
paper's reported mean values so callers can print paper-vs-measured
comparisons.  Perf/energy exhibits take a :class:`SweepRunner` so multiple
figures share one sweep.

Sweeps are gap-tolerant: a cell whose run failed (recorded in the
runner's failure taxonomy, see :mod:`repro.resilience`) arrives as
``None``, renders as ``--`` in the tables, and is excluded from the
means -- a partial sweep still yields a figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.configs import (
    CPU_MAIN_CONFIGS,
    CPU_SENSITIVITY_CONFIGS,
    GPU_MAIN_CONFIGS,
    design_modifications,
    machine_params,
    CPU_CONFIGS,
    GPU_CONFIGS,
    cpu_config,
)
from repro.core.dvfs import HetCoreDvfs
from repro.devices.activity import alu_power_curves
from repro.devices.iv import figure1_series
from repro.devices.technology import table1_rows
from repro.devices.vf import DvfsSolver
from repro.experiments.runner import SweepRunner, shared_runner
from repro.power.metrics import arithmetic_mean


@dataclass
class FigureResult:
    """A regenerated paper exhibit."""

    exhibit: str
    title: str
    rows: dict
    table: str
    paper_means: dict = field(default_factory=dict)
    measured_means: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.exhibit}: {self.title} ==\n{self.table}"


def _ratio(run, base, metric: Callable) -> float:
    """metric(run)/metric(base), or NaN when either cell is a gap."""
    if run is None or base is None:
        return float("nan")
    return metric(run) / metric(base)


def _finite_mean(values: list) -> float:
    """Arithmetic mean over the non-gap values (NaN when all are gaps)."""
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return arithmetic_mean(finite) if finite else float("nan")


def _fmt_matrix(
    row_names: list[str], col_names: list[str], cells: dict, width: int = 9
) -> str:
    """Format {row: {col: float}} as an aligned text table.

    Failed sweep cells (NaN) render as ``--`` so a partial sweep still
    produces a readable exhibit.
    """
    name_w = max(len(r) for r in row_names) + 2
    header = " " * name_w + "".join(f"{c:>{max(width, len(c) + 1)}}" for c in col_names)
    lines = [header]
    for r in row_names:
        cols = ""
        for c in col_names:
            w = max(width, len(c) + 1)
            value = cells[r][c]
            if value is None or not math.isfinite(value):
                cols += f"{'--':>{w}}"
            else:
                cols += f"{value:>{w}.3f}"
        lines.append(f"{r:<{name_w}}" + cols)
    return "\n".join(lines)


# ---------------------------------------------------------------------
# Device exhibits (Tables I, Figures 1-3)
# ---------------------------------------------------------------------

def table1() -> FigureResult:
    """Table I: device characteristics at 15 nm."""
    rows = table1_rows()
    cols = ["Si-CMOS", "HetJTFET", "InAs-CMOS", "HomJTFET"]
    lines = [f"{'Parameter':<48}" + "".join(f"{c:>11}" for c in cols)]
    for row in rows:
        vals = "".join(f"{row[c]:>11.2f}" for c in cols)
        lines.append(f"{row['Parameter']:<48}" + vals)
    return FigureResult(
        exhibit="Table I",
        title="Characteristics of CMOS and TFET technologies at 15nm",
        rows={"rows": rows},
        table="\n".join(lines),
    )


def figure1() -> FigureResult:
    """Figure 1: I_D-V_G characteristics of N-HetJTFET and N-MOSFET."""
    series = figure1_series()
    lines = [f"{'Vg (V)':>8}{'MOSFET (A)':>14}{'HetJTFET (A)':>14}"]
    for vg, m, t in zip(series["vg_v"], series["mosfet_a"], series["hetjtfet_a"]):
        lines.append(f"{vg:>8.3f}{m:>14.3e}{t:>14.3e}")
    # The qualitative anchors the paper's Figure 1 shows.
    cross = next(
        (
            vg
            for vg, m, t in zip(
                series["vg_v"], series["mosfet_a"], series["hetjtfet_a"]
            )
            if m > t and vg > 0.3
        ),
        None,
    )
    return FigureResult(
        exhibit="Figure 1",
        title="I-V characteristics (TFET steep slope, saturates ~0.6V)",
        rows=series,
        table="\n".join(lines),
        paper_means={"crossover_v": 0.6},
        measured_means={"crossover_v": cross},
    )


def figure2() -> FigureResult:
    """Figure 2: total ALU power vs activity factor."""
    curves = alu_power_curves()
    lines = [f"{'activity':>9}{'CMOS (uW)':>12}{'TFET (uW)':>12}{'ratio':>9}"]
    for af, c, t, r in zip(
        curves["activity_factor"], curves["cmos_uw"], curves["tfet_uw"], curves["ratio"]
    ):
        lines.append(f"{af:>9.2f}{c:>12.2f}{t:>12.2f}{r:>9.1f}")
    return FigureResult(
        exhibit="Figure 2",
        title="ALU power vs activity factor (CMOS dual-Vt vs HetJTFET)",
        rows=curves,
        table="\n".join(lines),
        paper_means={"ratio_at_zero_activity": 125.0, "ratio_at_full_activity": 4.0},
        measured_means={
            "ratio_at_zero_activity": curves["ratio"][0],
            "ratio_at_full_activity": curves["ratio"][-1],
        },
    )


def figure3() -> FigureResult:
    """Figure 3: Vdd-frequency curves and the DVFS voltage deltas."""
    solver = DvfsSolver()
    series = solver.figure3_series()
    boost = solver.pair_for(2.5)
    slow = solver.pair_for(1.5)
    lines = [f"{'V (V)':>8}{'CMOS (GHz)':>12}   |{'V (V)':>8}{'TFET (GHz)':>12}"]
    for cv, cf, tv, tf in zip(
        series["cmos_v"], series["cmos_ghz"], series["tfet_v"], series["tfet_ghz"]
    ):
        lines.append(f"{cv:>8.3f}{cf:>12.3f}   |{tv:>8.3f}{tf:>12.3f}")
    return FigureResult(
        exhibit="Figure 3",
        title="Vdd-frequency curves for Si-CMOS and HetJTFET",
        rows=series,
        table="\n".join(lines),
        paper_means={
            "boost_dv_cmos_mv": 75.0,
            "boost_dv_tfet_mv": 90.0,
            "slow_dv_cmos_mv": -70.0,
            "slow_dv_tfet_mv": -80.0,
        },
        measured_means={
            "boost_dv_cmos_mv": boost.delta_v_cmos_mv,
            "boost_dv_tfet_mv": boost.delta_v_tfet_mv,
            "slow_dv_cmos_mv": slow.delta_v_cmos_mv,
            "slow_dv_tfet_mv": slow.delta_v_tfet_mv,
        },
    )


# ---------------------------------------------------------------------
# Configuration tables (Tables II-IV)
# ---------------------------------------------------------------------

def table2() -> FigureResult:
    """Table II: design modifications for HetCore."""
    mods = design_modifications()
    lines = [f"{'Design':<10}{'CPU Structures':<55}GPU Structures"]
    for name, row in mods.items():
        lines.append(f"{name:<10}{row['CPU']:<55}{row['GPU']}")
    return FigureResult(
        exhibit="Table II", title="Design modifications for HetCore",
        rows=mods, table="\n".join(lines),
    )


def table3() -> FigureResult:
    """Table III: parameters of the simulated architecture."""
    params = machine_params()
    width = max(len(k) for k in params) + 2
    lines = [f"{k:<{width}}{v}" for k, v in params.items()]
    return FigureResult(
        exhibit="Table III", title="Parameters of the simulated architecture",
        rows=params, table="\n".join(lines),
    )


def table4() -> FigureResult:
    """Table IV: configurations evaluated."""
    lines = ["CPU configurations:"]
    for name, d in CPU_CONFIGS.items():
        lines.append(f"  {name:<17}{d.notes}")
    lines.append("GPU configurations:")
    for name, d in GPU_CONFIGS.items():
        lines.append(f"  {name:<17}{d.notes}")
    return FigureResult(
        exhibit="Table IV", title="CPU and GPU configurations evaluated",
        rows={"cpu": dict(CPU_CONFIGS), "gpu": dict(GPU_CONFIGS)},
        table="\n".join(lines),
    )


# ---------------------------------------------------------------------
# CPU evaluation (Figures 7-9, 13, 14)
# ---------------------------------------------------------------------

def _cpu_metric_matrix(
    runner: SweepRunner, configs: list[str], metric: Callable
) -> tuple[dict, dict]:
    """Per-app normalised metric plus per-config means."""
    sweep = runner.cpu_sweep(configs)
    apps = runner.settings.apps
    cells: dict[str, dict[str, float]] = {app: {} for app in apps}
    for config in configs:
        for app in apps:
            cells[app][config] = _ratio(sweep[config][app], sweep["BaseCMOS"][app], metric)
    means = {
        config: _finite_mean([cells[app][config] for app in apps])
        for config in configs
    }
    cells["MEAN"] = means
    return cells, means


def figure7(runner: SweepRunner | None = None) -> FigureResult:
    """Figure 7: CPU execution time, normalised to BaseCMOS."""
    runner = runner or shared_runner()
    cells, means = _cpu_metric_matrix(
        runner, CPU_MAIN_CONFIGS, lambda r: r.time_s
    )
    return FigureResult(
        exhibit="Figure 7",
        title="Execution time of CPU designs (normalised to BaseCMOS)",
        rows=cells,
        table=_fmt_matrix(list(cells), CPU_MAIN_CONFIGS, cells),
        paper_means={
            "BaseCMOS": 1.0, "BaseCMOS-Enh": 1.0, "BaseTFET": 1.96,
            "BaseHet": 1.40, "AdvHet": 1.10, "AdvHet-2X": 0.68,
        },
        measured_means=means,
    )


def figure8(runner: SweepRunner | None = None) -> FigureResult:
    """Figure 8: CPU energy, normalised, with core/L2/L3 x dyn/leak split."""
    runner = runner or shared_runner()
    sweep = runner.cpu_sweep(CPU_MAIN_CONFIGS)
    apps = runner.settings.apps
    cells: dict[str, dict[str, float]] = {app: {} for app in apps}
    breakdown: dict[str, dict[str, float]] = {}
    for config in CPU_MAIN_CONFIGS:
        parts = {k: 0.0 for k in (
            "core-dyn", "core-leak", "l2-dyn", "l2-leak", "l3-dyn", "l3-leak")}
        for app in apps:
            run, base_run = sweep[config][app], sweep["BaseCMOS"][app]
            if run is None or base_run is None:
                cells[app][config] = float("nan")
                continue
            base = base_run.energy_j
            e = run.energy
            cells[app][config] = e.total / base
            for group in ("core", "l2", "l3"):
                parts[f"{group}-dyn"] += e.dynamic_j.get(group, 0.0) / base / len(apps)
                parts[f"{group}-leak"] += e.leakage_j.get(group, 0.0) / base / len(apps)
        breakdown[config] = parts
    means = {
        config: _finite_mean([cells[app][config] for app in apps])
        for config in CPU_MAIN_CONFIGS
    }
    cells["MEAN"] = means
    table = _fmt_matrix(list(cells), CPU_MAIN_CONFIGS, cells)
    bd_lines = ["", "Mean breakdown (fractions of BaseCMOS total):"]
    for config, parts in breakdown.items():
        detail = "  ".join(f"{k}={v:.3f}" for k, v in parts.items())
        bd_lines.append(f"  {config:<13}{detail}")
    return FigureResult(
        exhibit="Figure 8",
        title="Energy of CPU designs (normalised to BaseCMOS)",
        rows={"cells": cells, "breakdown": breakdown},
        table=table + "\n" + "\n".join(bd_lines),
        paper_means={
            "BaseCMOS": 1.0, "BaseCMOS-Enh": 1.0, "BaseTFET": 0.24,
            "BaseHet": 0.65, "AdvHet": 0.61, "AdvHet-2X": 0.66,
        },
        measured_means=means,
    )


def figure9(runner: SweepRunner | None = None) -> FigureResult:
    """Figure 9: CPU ED^2, normalised to BaseCMOS."""
    runner = runner or shared_runner()
    cells, means = _cpu_metric_matrix(runner, CPU_MAIN_CONFIGS, lambda r: r.ed2)
    return FigureResult(
        exhibit="Figure 9",
        title="ED^2 of CPU designs (normalised to BaseCMOS)",
        rows=cells,
        table=_fmt_matrix(list(cells), CPU_MAIN_CONFIGS, cells),
        paper_means={
            "BaseCMOS": 1.0, "BaseTFET": 0.93, "BaseHet": 1.15,
            "AdvHet": 0.74, "AdvHet-2X": 0.32,
        },
        measured_means=means,
    )


def figure13(runner: SweepRunner | None = None) -> FigureResult:
    """Figure 13: sensitivity analysis (time/energy/ED/ED^2 means)."""
    runner = runner or shared_runner()
    sweep = runner.cpu_sweep(CPU_SENSITIVITY_CONFIGS)
    apps = runner.settings.apps
    metrics = {
        "time": lambda r: r.time_s,
        "energy": lambda r: r.energy_j,
        "ED": lambda r: r.ed,
        "ED^2": lambda r: r.ed2,
    }
    cells: dict[str, dict[str, float]] = {}
    for config in CPU_SENSITIVITY_CONFIGS:
        cells[config] = {}
        for mname, metric in metrics.items():
            vals = [
                _ratio(sweep[config][app], sweep["BaseCMOS"][app], metric)
                for app in apps
            ]
            cells[config][mname] = _finite_mean(vals)
    return FigureResult(
        exhibit="Figure 13",
        title="Sensitivity analysis of HetCore CPU designs (means)",
        rows=cells,
        table=_fmt_matrix(CPU_SENSITIVITY_CONFIGS, list(metrics), cells),
        paper_means={
            "BaseL3-energy": 0.90,
            "BaseHighVt-energy": 1.02,
            "BaseHet-vs-FastALU-time": 1.02,
            "BaseHet-vs-FastALU-energy": 0.90,
            "AdvHet-time": 1.10,
            "AdvHet-energy": 0.61,
        },
        measured_means={
            "BaseL3-energy": cells["BaseL3"]["energy"],
            "BaseHighVt-energy": cells["BaseHighVt"]["energy"],
            "BaseHet-vs-FastALU-time": (
                cells["BaseHet"]["time"] / cells["BaseHet-FastALU"]["time"]
            ),
            "BaseHet-vs-FastALU-energy": (
                cells["BaseHet"]["energy"] / cells["BaseHet-FastALU"]["energy"]
            ),
            "AdvHet-time": cells["AdvHet"]["time"],
            "AdvHet-energy": cells["AdvHet"]["energy"],
        },
    )


def figure14(
    runner: SweepRunner | None = None, apps: list[str] | None = None
) -> FigureResult:
    """Figure 14: DVFS (1.5/2/2.5 GHz) and process-variation energy.

    A point at the design's own frequency runs exactly the design's CPU
    cell -- DVFS and guardbands change only voltages there -- so it is
    that cell (shared with Figures 7-9) re-priced at the point's
    voltages, not a second engine run.  Other frequencies change the
    DRAM round trip in cycles and run as DVFS cells.
    """
    runner = runner or shared_runner()
    apps = apps or runner.settings.apps
    points = [
        ("BaseFreq-2GHz", 2.0, False),
        ("BoostFreq-2.5GHz", 2.5, False),
        ("SlowFreq-1.5GHz", 1.5, False),
        ("ProcessVar", 2.0, True),
    ]
    dvfs = HetCoreDvfs()

    def energy(config_name: str, app: str, freq: float, variation: bool) -> float:
        design = cpu_config(config_name)
        if freq == design.freq_ghz:
            run = runner.cpu_cell(config_name, app)
            if run is not None:
                run = dvfs.price(run, design, freq, variation)
        else:
            run = runner.dvfs_cell(config_name, app, freq, variation)
        return run.energy_j if run is not None else float("nan")

    base_energy = {app: energy("BaseCMOS", app, 2.0, False) for app in apps}
    cells: dict[str, dict[str, float]] = {}
    for label, freq, variation in points:
        cells[label] = {
            config_name: _finite_mean([
                energy(config_name, app, freq, variation) / base_energy[app]
                for app in apps
            ])
            for config_name in ("BaseCMOS", "AdvHet")
        }
    means = {
        f"{label}-savings": 1.0 - cells[label]["AdvHet"] / cells[label]["BaseCMOS"]
        for label, _, _ in points
    }
    return FigureResult(
        exhibit="Figure 14",
        title="DVFS and process variation impact on energy",
        rows=cells,
        table=_fmt_matrix(list(cells), ["BaseCMOS", "AdvHet"], cells),
        paper_means={
            "BaseFreq-2GHz-savings": 0.39,
            "BoostFreq-2.5GHz-savings": 0.36,
            "SlowFreq-1.5GHz-savings": 0.43,
            "ProcessVar-savings": 0.37,
        },
        measured_means=means,
    )


# ---------------------------------------------------------------------
# GPU evaluation (Figures 10-12)
# ---------------------------------------------------------------------

def _gpu_metric_matrix(
    runner: SweepRunner, metric: Callable
) -> tuple[dict, dict]:
    sweep = runner.gpu_sweep(GPU_MAIN_CONFIGS)
    kernels = runner.settings.kernels
    cells: dict[str, dict[str, float]] = {k: {} for k in kernels}
    for config in GPU_MAIN_CONFIGS:
        for k in kernels:
            cells[k][config] = _ratio(sweep[config][k], sweep["BaseCMOS"][k], metric)
    means = {
        config: _finite_mean([cells[k][config] for k in kernels])
        for config in GPU_MAIN_CONFIGS
    }
    cells["MEAN"] = means
    return cells, means


def figure10(runner: SweepRunner | None = None) -> FigureResult:
    """Figure 10: GPU execution time, normalised to BaseCMOS."""
    runner = runner or shared_runner()
    cells, means = _gpu_metric_matrix(runner, lambda r: r.time_s)
    return FigureResult(
        exhibit="Figure 10",
        title="Execution time of GPU designs (normalised to BaseCMOS)",
        rows=cells,
        table=_fmt_matrix(list(cells), GPU_MAIN_CONFIGS, cells),
        paper_means={
            "BaseCMOS": 1.0, "BaseTFET": 2.0, "BaseHet": 1.28,
            "AdvHet": 1.20, "AdvHet-2X": 0.70,
        },
        measured_means=means,
    )


def figure11(runner: SweepRunner | None = None) -> FigureResult:
    """Figure 11: GPU energy, normalised to BaseCMOS."""
    runner = runner or shared_runner()
    cells, means = _gpu_metric_matrix(runner, lambda r: r.energy_j)
    return FigureResult(
        exhibit="Figure 11",
        title="Energy of GPU designs (normalised to BaseCMOS)",
        rows=cells,
        table=_fmt_matrix(list(cells), GPU_MAIN_CONFIGS, cells),
        paper_means={
            "BaseCMOS": 1.0, "BaseTFET": 0.25, "BaseHet": 0.65,
            "AdvHet": 0.60, "AdvHet-2X": 0.66,
        },
        measured_means=means,
    )


def figure12(runner: SweepRunner | None = None) -> FigureResult:
    """Figure 12: GPU ED^2, normalised to BaseCMOS."""
    runner = runner or shared_runner()
    cells, means = _gpu_metric_matrix(runner, lambda r: r.ed2)
    return FigureResult(
        exhibit="Figure 12",
        title="ED^2 of GPU designs (normalised to BaseCMOS)",
        rows=cells,
        table=_fmt_matrix(list(cells), GPU_MAIN_CONFIGS, cells),
        paper_means={
            "BaseCMOS": 1.0, "BaseHet": 1.07, "AdvHet": 0.91, "AdvHet-2X": 0.40,
        },
        measured_means=means,
    )


#: Every exhibit, keyed the way DESIGN.md's experiment index names them.
ALL_EXHIBITS: dict[str, Callable[..., FigureResult]] = {
    "table1": table1,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
}
