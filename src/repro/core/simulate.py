"""Top-level simulation API: run a configuration on a workload.

``simulate_cpu(design, app)`` assembles the core (latency tables, DL1
organisation, resources, steering), runs the app's synthetic trace through
the cycle-level engine within the multicore wrapper, feeds the measured
activity into the power model, and returns time / energy / ED / ED^2.
``simulate_gpu`` does the same for a GPU design and a kernel.

Determinism: the same (design, workload, instructions, seed) always
produces identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from repro.core.hetcore import CpuDesign, GpuDesign
from repro.cpu.core import CoreConfig, CoreResult, OutOfOrderCore
from repro.cpu.multicore import MulticoreResult, run_multicore
from repro.gpu.cu import CUConfig
from repro.gpu.cu_batch import CellOutcome, contain
from repro.gpu.gpu import GpuConfig, GpuResult, run_gpu, run_gpu_batch
from repro.power.metrics import ed2_product, ed_product
from repro.power.model import EnergyBreakdown, cpu_energy, gpu_energy
from repro.workloads.gpu_profiles import KernelProfile, gpu_kernel
from repro.workloads.profiles import AppProfile, cpu_app
from repro.workloads.trace_cache import cached_kernel, cached_trace, shared_cache

#: Default measured window per core (instructions) and cache/predictor
#: warm-up, sized so a full sweep stays tractable in pure Python while
#: keeping cache/predictor statistics converged.
DEFAULT_INSTRUCTIONS = 60_000
DEFAULT_WARMUP = 20_000


@dataclass
class CpuRunResult:
    """One (CPU configuration, application) measurement."""

    config: str
    app: str
    time_s: float
    energy: EnergyBreakdown
    multicore: MulticoreResult

    @property
    def energy_j(self) -> float:
        return self.energy.total

    @property
    def ed(self) -> float:
        return ed_product(self.energy_j, self.time_s)

    @property
    def ed2(self) -> float:
        return ed2_product(self.energy_j, self.time_s)

    @property
    def core(self) -> CoreResult:
        return self.multicore.representative

    @property
    def power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s else 0.0


@dataclass
class GpuRunResult:
    """One (GPU configuration, kernel) measurement."""

    config: str
    kernel: str
    time_s: float
    energy: EnergyBreakdown
    gpu: GpuResult

    @property
    def energy_j(self) -> float:
        return self.energy.total

    @property
    def ed(self) -> float:
        return ed_product(self.energy_j, self.time_s)

    @property
    def ed2(self) -> float:
        return ed2_product(self.energy_j, self.time_s)

    @property
    def power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s else 0.0


def _prewarm(hierarchy, profile: AppProfile, memo: "dict | None" = None) -> None:
    """Functionally warm the resident regions (largest first, so recency
    ends up hottest-innermost).  Region bases mirror the trace generator's
    layout.  ``memo`` is :meth:`MemoryHierarchy.prewarm`'s warm-state
    memo."""
    from repro.workloads import generator as g

    hierarchy.prewarm(
        (
            (g._BIG_BASE, profile.big_mb * 1024 * 1024, False),
            (g._WARM_BASE, profile.warm_kb * 1024, False),
            (g._HOT_BASE, profile.hot_kb * 1024, True),
            (g._STACK_BASE, profile.stack_kb * 1024, True),
        ),
        memo,
    )


def warm_memo(trace) -> "dict | None":
    """The prewarmed-cache memo carried by ``trace``, or None when the
    trace cache is off.

    Every cell of an app runs the same cached trace, and the warm state
    depends only on the app's regions and the cache geometry, so the
    memo rides on the trace the way its SoA decode does
    (:mod:`repro.cpu.soa`): it lives exactly as long as the trace cache
    keeps the trace, and ``shared_cache().clear()`` drops it.
    """
    if shared_cache().capacity == 0:
        return None
    # setdefault: threads racing on one trace still share one memo.
    return trace.__dict__.setdefault("_warm", {})


def build_cpu_core(
    design: CpuDesign,
    profile: AppProfile,
    name: str = "cpu.core0",
    tracer=None,
    warm: "dict | None" = None,
) -> OutOfOrderCore:
    """A fresh detailed core for ``design``, its caches prewarmed for
    ``profile`` -- the core every :func:`simulate_cpu` cell runs on.
    ``warm`` is the warm-state memo to restore from (:func:`warm_memo`)."""
    hierarchy = design.build_hierarchy(mem_intensity=profile.mem_intensity)
    _prewarm(hierarchy, profile, warm)
    config = CoreConfig(
        freq_ghz=design.freq_ghz,
        resources=design.resources(),
        steering_enabled=design.dual_speed_alu,
    )
    return OutOfOrderCore(
        config, hierarchy, design.build_units(), name=name, tracer=tracer
    )


def simulate_cpu(
    design: CpuDesign,
    app: "str | AppProfile",
    instructions: int = DEFAULT_INSTRUCTIONS,
    warmup: int = DEFAULT_WARMUP,
    detailed_cores: int = 1,
    seed: int = 0,
    tracer=None,
) -> CpuRunResult:
    """Run one CPU configuration on one application.

    ``instructions`` is the per-core trace length (including ``warmup``
    instructions of cache/predictor warm-up that are excluded from the
    measurement).  Energy is chip-level: dynamic for the fixed total work,
    leakage for all ``design.n_cores`` cores over the parallel runtime.
    ``tracer`` (a :class:`repro.obs.trace.PipelineTracer`) records the
    first detailed core's pipeline events when given.
    """
    profile = cpu_app(app) if isinstance(app, str) else app

    @cache
    def trace_factory(core_idx: int):
        # Cached: the N configurations of a sweep share one trace per
        # (profile, length, seed) -- generation is deterministic and the
        # engines treat trace arrays as read-only.  Memoised per cell so
        # the core factory's warm-state lookup is not a second fetch.
        return cached_trace(profile, instructions, seed=seed + core_idx)

    def core_factory(core_idx: int, n_cores: int) -> OutOfOrderCore:
        return build_cpu_core(
            design,
            profile,
            name=f"cpu.core{core_idx}",
            tracer=tracer if core_idx == 0 else None,
            warm=warm_memo(trace_factory(core_idx)),
        )

    multicore = run_multicore(
        core_factory,
        trace_factory,
        profile,
        n_cores=design.n_cores,
        warmup=warmup,
        detailed_cores=detailed_cores,
    )
    rep = multicore.representative
    knobs = design.energy_knobs()
    knobs.work_scale = multicore.total_work / rep.committed
    energy = cpu_energy(
        rep.activity,
        multicore.time_s,
        device_map=design.device_map(),
        asym_dl1=design.asym_dl1,
        knobs=knobs,
    )
    return CpuRunResult(
        config=design.name,
        app=profile.name,
        time_s=multicore.time_s,
        energy=energy,
        multicore=multicore,
    )


def simulate_cpu_batch(
    cells: "list[tuple[CpuDesign, str | AppProfile]]",
    instructions: int = DEFAULT_INSTRUCTIONS,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
) -> "list[CellOutcome]":
    """Run many (design, app) cells with per-cell failure containment.

    The CPU engine's per-uop control flow cannot run multiple cells in
    SIMT lockstep the way the GPU scoreboard can, so cells execute
    sequentially -- but the batch still amortises what is shareable:
    the trace cache hands every cell of an app the same trace objects
    and what is memoised on them -- the SoA decode with its frontend
    and dispatch columns (branch outcomes, BTB bubbles, steering
    decisions and the counters' prefix sums; :mod:`repro.cpu.soa`) and
    the warm cache state (:func:`warm_memo`), which a cell restores
    copy-on-write -- so unboxing, branch prediction, steering and cache
    prewarm are paid once per app, not once per (config, core).
    Results are byte-identical to calling :func:`simulate_cpu` per cell;
    each cell is one :func:`~repro.gpu.cu_batch.contain`-ed
    :class:`~repro.gpu.cu_batch.CellOutcome` whose ``result`` is its
    :class:`CpuRunResult`, so a raising cell yields ``error`` while its
    siblings complete.
    """
    return [
        contain(
            partial(
                simulate_cpu, design, app, instructions=instructions,
                warmup=warmup, seed=seed,
            )
        )
        for design, app in cells
    ]


def _gpu_config(design: GpuDesign) -> GpuConfig:
    """The whole-GPU config a design resolves to (shared by the serial
    and batched paths so they cannot drift)."""
    return GpuConfig(
        cu=CUConfig(
            freq_ghz=design.freq_ghz,
            fma_depth=design.fma_depth(),
            rf_cycles=design.rf_cycles(),
            rf_cache_enabled=design.rf_cache,
        ),
        n_cus=design.n_cus,
    )


def _gpu_run_result(
    design: GpuDesign, profile: KernelProfile, result: GpuResult
) -> GpuRunResult:
    """Energy/ED bookkeeping shared by the serial and batched paths."""
    knobs = design.energy_knobs()
    # The detailed CU executed one CU's share of the reference machine's
    # work; the whole job is 8 such shares regardless of this design's CU
    # count (fixed total work).
    knobs.work_scale = 8.0
    energy = gpu_energy(
        result.cu_result,
        result.time_s,
        device_map=design.device_map(),
        rf_cache_enabled=design.rf_cache,
        knobs=knobs,
    )
    return GpuRunResult(
        config=design.name,
        kernel=profile.name,
        time_s=result.time_s,
        energy=energy,
        gpu=result,
    )


def simulate_gpu_batch(
    cells: "list[tuple[GpuDesign, str | KernelProfile]]",
    seed: int = 0,
) -> "list[CellOutcome]":
    """Run many (design, kernel) cells through the batched GPU engine.

    One :func:`run_gpu_batch` call runs every cell whose kernel and
    config resolve; each of its outcomes then has its ``result``
    swapped from the :class:`GpuResult` to the cell's
    :class:`GpuRunResult`, keeping the engine's telemetry.  Results are
    byte-identical to :func:`simulate_gpu`.  A cell that raises --
    during setup, inside the engine, or in the energy model -- yields
    an outcome with ``error`` set; the other cells complete normally.
    """

    def setup(design: GpuDesign, kernel) -> tuple:
        profile = gpu_kernel(kernel) if isinstance(kernel, str) else kernel
        return profile, _gpu_config(design), cached_kernel(profile, seed=seed)

    outcomes = [contain(partial(setup, d, k)) for d, k in cells]
    ready = [i for i, out in enumerate(outcomes) if out.error is None]
    engine = run_gpu_batch([outcomes[i].result[1:] for i in ready])
    for i, out in zip(ready, engine):
        profile = outcomes[i].result[0]
        if out.error is None:
            contain(
                partial(_gpu_run_result, cells[i][0], profile, out.result),
                out,
            )
        outcomes[i] = out
    return outcomes


def simulate_gpu(
    design: GpuDesign,
    kernel: "str | KernelProfile",
    seed: int = 0,
    tracer=None,
) -> GpuRunResult:
    """Run one GPU configuration on one kernel.

    Energy is chip-level: dynamic for the fixed total work (the reference
    8-CU machine's), leakage for all ``design.n_cus`` compute units over
    the parallel runtime.
    """
    profile = gpu_kernel(kernel) if isinstance(kernel, str) else kernel
    trace = cached_kernel(profile, seed=seed)
    result = run_gpu(_gpu_config(design), trace, tracer=tracer)
    return _gpu_run_result(design, profile, result)
