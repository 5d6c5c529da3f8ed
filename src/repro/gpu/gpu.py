"""Whole-GPU runs and compute-unit-count scaling.

The modelled GPU has ``n_cus`` identical compute units executing identical
(statistically) wavefront populations, so one detailed CU run gives the
machine's per-CU throughput.  Total execution time for a fixed amount of
work is then

``T(n) = serial + (work / n) * per-unit-time(contention(n))``

where contention raises the effective memory latency as more CUs share the
memory system -- the paper's AdvHet-2X GPU (16 CUs in the 8-CU power
budget) gains 30% rather than the ideal ~42% for exactly this reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.gpu.cu import ComputeUnit, CUConfig, CUResult
from repro.gpu.cu_batch import CellOutcome, run_cu_batch
from repro.workloads.gpu_generator import KernelTrace

#: Per-sharer memory-latency uplift coefficient for CU scaling (relative to
#: the 8-CU reference machine).
GPU_CONTENTION_ALPHA = 0.50

#: The paper's reference machine: 8 compute units.
REFERENCE_CUS = 8


@dataclass(frozen=True)
class GpuConfig:
    """A whole-GPU configuration: per-CU device choices plus CU count."""

    cu: CUConfig
    n_cus: int = REFERENCE_CUS

    def __post_init__(self) -> None:
        if self.n_cus <= 0:
            raise ValueError("need at least one compute unit")


@dataclass
class GpuResult:
    """Aggregate of one whole-GPU run at fixed total work."""

    n_cus: int
    cu_result: CUResult
    #: Effective execution cycles for the reference total work.
    effective_cycles: float
    freq_ghz: float

    @property
    def time_s(self) -> float:
        return self.effective_cycles / (self.freq_ghz * 1e9)


def memory_contention_scale(n_cus: int, mem_intensity: float) -> float:
    """Memory-latency multiplier relative to the 8-CU reference."""
    if n_cus <= REFERENCE_CUS:
        return 1.0
    extra = (n_cus - REFERENCE_CUS) / REFERENCE_CUS
    return 1.0 + GPU_CONTENTION_ALPHA * extra * mem_intensity


def _contended_cu(config: GpuConfig, trace: KernelTrace) -> CUConfig:
    """The per-CU config a cell runs on: ``config.cu`` with its memory
    latency raised by the contention of ``config.n_cus`` sharers."""
    scale = memory_contention_scale(config.n_cus, trace.profile.mem_intensity)
    return replace(
        config.cu, mem_latency_scale=config.cu.mem_latency_scale * scale
    )


def _scaled(
    config: GpuConfig, trace: KernelTrace, cu_result: CUResult
) -> GpuResult:
    """The whole-GPU result at fixed total work from one CU's run: the
    serial fraction runs at one CU's pace, the rest splits ``n_cus``
    ways relative to the 8-CU reference."""
    serial = trace.profile.serial_fraction
    parallel_cycles = cu_result.cycles * (REFERENCE_CUS / config.n_cus)
    return GpuResult(
        n_cus=config.n_cus,
        cu_result=cu_result,
        effective_cycles=(
            cu_result.cycles * serial + parallel_cycles * (1.0 - serial)
        ),
        freq_ghz=config.cu.freq_ghz,
    )


def run_gpu_batch(
    cells: "list[tuple[GpuConfig, KernelTrace]]",
) -> "list[CellOutcome]":
    """Run many GPU cells through one batched engine invocation.

    Returns :func:`~repro.gpu.cu_batch.run_cu_batch`'s outcomes, in cell
    order, with each completed cell's ``result`` swapped from the CU's
    :class:`CUResult` to its :class:`GpuResult`; failed cells keep their
    ``error``.  Results are byte-identical to :func:`run_gpu`: both
    build the per-CU config with :func:`_contended_cu` and scale with
    :func:`_scaled`, and the batched engine is exact by construction.
    """
    outcomes = run_cu_batch(
        [(_contended_cu(config, trace), trace) for config, trace in cells]
    )
    for (config, trace), out in zip(cells, outcomes):
        if out.error is None:
            out.result = _scaled(config, trace, out.result)
    return outcomes


def run_gpu(config: GpuConfig, trace: KernelTrace, tracer=None) -> GpuResult:
    """Run ``trace``'s kernel on the configured GPU at fixed total work.

    The kernel trace describes the work one CU receives on the reference
    8-CU machine; machines with more CUs split the same total work more
    ways but see higher memory contention.
    """
    cu_result = ComputeUnit(_contended_cu(config, trace), tracer=tracer).run(
        trace
    )
    return _scaled(config, trace, cu_result)
