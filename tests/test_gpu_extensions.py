"""Tests for the GPU extensions: compiler rescheduling and partitioned RF."""

import pytest

from repro.gpu import (
    ComputeUnit,
    CUConfig,
    mean_dependency_distance,
    partitioned_operand_model,
    profile_hot_registers,
    reschedule_kernel,
)
from repro.gpu.gpu import GpuConfig, run_gpu, run_gpu_batch
from repro.gpu.partitioned_rf import PartitionedRegisterFile
from repro.workloads import generate_kernel, gpu_kernel


@pytest.fixture(scope="module")
def kernel():
    return generate_kernel(gpu_kernel("BlackScholes"))


class TestCompilerRescheduling:
    def test_preserves_instruction_multiset(self, kernel):
        out = reschedule_kernel(kernel)
        assert sorted(out.op.ravel().tolist()) == sorted(kernel.op.ravel().tolist())
        assert sorted(out.dst_reg.ravel().tolist()) == sorted(
            kernel.dst_reg.ravel().tolist()
        )

    def test_output_validates(self, kernel):
        reschedule_kernel(kernel).validate()

    def test_increases_dependency_distances(self, kernel):
        before = mean_dependency_distance(kernel)
        after = mean_dependency_distance(reschedule_kernel(kernel, target_gap=6))
        assert after > before

    def test_speeds_up_tfet_configuration(self, kernel):
        cfg = CUConfig(fma_depth=6, rf_cycles=2, rf_cache_enabled=True)
        before = ComputeUnit(cfg).run(kernel)
        after = ComputeUnit(cfg).run(reschedule_kernel(kernel, target_gap=6))
        assert after.cycles < before.cycles

    def test_helps_cmos_less_than_tfet(self, kernel):
        """The optimisation matters more where latencies are longer --
        the paper's rationale for mentioning it as HetCore-specific."""
        scheduled = reschedule_kernel(kernel, target_gap=6)
        cmos = CUConfig(fma_depth=3, rf_cycles=1, rf_cache_enabled=True)
        tfet = CUConfig(fma_depth=6, rf_cycles=2, rf_cache_enabled=True)
        gain_cmos = (
            ComputeUnit(cmos).run(kernel).cycles
            / ComputeUnit(cmos).run(scheduled).cycles
        )
        gain_tfet = (
            ComputeUnit(tfet).run(kernel).cycles
            / ComputeUnit(tfet).run(scheduled).cycles
        )
        assert gain_tfet > gain_cmos

    def test_invalid_parameters(self, kernel):
        with pytest.raises(ValueError):
            reschedule_kernel(kernel, target_gap=0)
        with pytest.raises(ValueError):
            reschedule_kernel(kernel, window=0)

    def test_gap_of_one_is_near_identity_in_length(self, kernel):
        out = reschedule_kernel(kernel, target_gap=1)
        assert out.op.shape == kernel.op.shape


class TestPartitionedRF:
    def test_profile_picks_hottest(self, kernel):
        hot = profile_hot_registers(kernel, 8)
        assert len(hot) <= 8
        # The hottest registers must cover a disproportionate share of reads.
        import numpy as np

        reads = np.concatenate([kernel.src1_reg.ravel(), kernel.src2_reg.ravel()])
        share = np.isin(reads, list(hot)).mean()
        assert share > 8 / kernel.profile.n_regs

    def test_zero_fast_registers(self, kernel):
        assert profile_hot_registers(kernel, 0) == frozenset()
        with pytest.raises(ValueError):
            profile_hot_registers(kernel, -1)

    def test_read_latencies(self):
        p = PartitionedRegisterFile(frozenset({1, 2}), fast_cycles=1, slow_cycles=2)
        assert p.read(1) == 1
        assert p.read(9) == 2
        assert p.fast_reads == 1 and p.slow_reads == 1

    def test_write_accounting(self):
        p = PartitionedRegisterFile(frozenset({1}))
        p.write(1)
        p.write(2)
        assert p.fast_writes == 1 and p.slow_writes == 1

    def test_slow_cannot_be_faster(self):
        with pytest.raises(ValueError):
            PartitionedRegisterFile(frozenset(), fast_cycles=2, slow_cycles=1)

    def test_partition_beats_plain_tfet_rf(self, kernel):
        plain = ComputeUnit(CUConfig(fma_depth=6, rf_cycles=2)).run(kernel)
        part = ComputeUnit(
            CUConfig(
                fma_depth=6, rf_cycles=2,
                partitioned_fast_regs=profile_hot_registers(kernel, 8),
            )
        ).run(kernel)
        assert part.cycles < plain.cycles

    def test_whole_gpu_runs_keep_the_partition(self, kernel):
        """``run_gpu`` and ``run_gpu_batch`` run the CU config they are
        given, partition included (at 8 CUs nothing is rescaled)."""
        cfg = CUConfig(
            fma_depth=6, rf_cycles=2,
            partitioned_fast_regs=profile_hot_registers(kernel, 8),
        )
        alone = ComputeUnit(cfg).run(kernel)
        whole = GpuConfig(cu=cfg)
        assert run_gpu(whole, kernel).cu_result == alone
        [out] = run_gpu_batch([(whole, kernel)])
        assert out.result.cu_result == alone

    def test_mutually_exclusive_with_rf_cache(self):
        with pytest.raises(ValueError):
            CUConfig(
                rf_cache_enabled=True,
                partitioned_fast_regs=frozenset({1}),
            )

    def test_operand_model_helper(self, kernel):
        p = partitioned_operand_model(kernel, fast_count=8)
        assert isinstance(p, PartitionedRegisterFile)
        assert p.fast_registers
