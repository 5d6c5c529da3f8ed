"""Wavefront-level cycle simulator of a Southern-Islands-like GPU.

This package stands in for Multi2Sim's Southern Islands timing model.  Each
compute unit (CU) holds a set of resident wavefronts executing in-order
instruction streams; a scheduler issues one vector instruction per cycle to
the SIMD FMA pipeline and one memory operation per cycle to the memory
unit.  Operand reads go through the vector register file (1 cycle CMOS,
2 cycles TFET) or the AdvHet register-file cache (1 cycle); the FMA
pipeline is 3 stages in CMOS and 6 in TFET, pipelined either way.  Latency
hiding across wavefronts -- the mechanism that makes the HetCore GPU viable
-- is therefore mechanistic, not assumed.

* :mod:`repro.gpu.regfile` -- vector RF and the 6-entry register-file cache.
* :mod:`repro.gpu.cu` -- the compute-unit cycle model.
* :mod:`repro.gpu.cu_batch` -- many cells in lockstep, and the
  ``CellOutcome`` every sweep cell returns up to the runner.
* :mod:`repro.gpu.gpu` -- whole-GPU runs and CU-count scaling.
"""

from repro.gpu.regfile import RegisterFileCache, VectorRegisterFile
from repro.gpu.cu import ComputeUnit, CUConfig, CUResult
from repro.gpu.gpu import GpuConfig, GpuResult, run_gpu
from repro.gpu.compiler import mean_dependency_distance, reschedule_kernel
from repro.gpu.partitioned_rf import (
    PartitionedRegisterFile,
    partitioned_operand_model,
    profile_hot_registers,
)

__all__ = [
    "RegisterFileCache",
    "VectorRegisterFile",
    "ComputeUnit",
    "CUConfig",
    "CUResult",
    "GpuConfig",
    "GpuResult",
    "run_gpu",
    "reschedule_kernel",
    "mean_dependency_distance",
    "PartitionedRegisterFile",
    "partitioned_operand_model",
    "profile_hot_registers",
]
