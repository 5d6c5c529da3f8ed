"""ROB, issue-queue, and load-store-queue occupancy bookkeeping.

Table III sizes: 128 INT / 80 FP physical registers, 160-entry ROB, 64-entry
issue queue, 48-entry load-store queue.  AdvHet grows the ROB to 192 and the
FP register file to 128 to keep the deeper TFET FPU pipelines fed
(Section IV-C4).  The simulator only needs occupancy semantics -- an entry is
held from dispatch to commit (ROB/LSQ) or dispatch to issue (IQ) -- plus
in-flight register-file pressure for the FP side.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceConfig:
    """Capacity of each back-end structure."""

    rob_entries: int = 160
    iq_entries: int = 64
    lsq_entries: int = 48
    int_regs: int = 128
    fp_regs: int = 80

    def __post_init__(self) -> None:
        for field_name in ("rob_entries", "iq_entries", "lsq_entries", "int_regs", "fp_regs"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    def enlarged(self, rob_entries: int = 192, fp_regs: int = 128) -> "ResourceConfig":
        """The AdvHet-style larger ROB / FP RF variant (Table IV)."""
        return ResourceConfig(
            rob_entries=rob_entries,
            iq_entries=self.iq_entries,
            lsq_entries=self.lsq_entries,
            int_regs=self.int_regs,
            fp_regs=fp_regs,
        )


#: Architectural registers pre-allocated out of each physical file; only the
#: remainder is available to rename in-flight producers.
ARCH_INT_REGS = 32
ARCH_FP_REGS = 32


class CoreResources:
    """Occupancy counters with allocate/release discipline."""

    def __init__(self, config: ResourceConfig):
        self.config = config
        self.rob_used = 0
        self.iq_used = 0
        self.lsq_used = 0
        self.int_regs_used = 0
        self.fp_regs_used = 0
        self.int_rename_budget = max(1, config.int_regs - ARCH_INT_REGS)
        self.fp_rename_budget = max(1, config.fp_regs - ARCH_FP_REGS)
        # High-water marks, reported for occupancy analysis.
        self.rob_peak = 0
        self.iq_peak = 0
        self.lsq_peak = 0

    def can_dispatch(self, needs_lsq: bool, writes_int: bool, writes_fp: bool) -> bool:
        """True if one more micro-op fits in every structure it needs."""
        if self.rob_used >= self.config.rob_entries:
            return False
        if self.iq_used >= self.config.iq_entries:
            return False
        if needs_lsq and self.lsq_used >= self.config.lsq_entries:
            return False
        if writes_int and self.int_regs_used >= self.int_rename_budget:
            return False
        if writes_fp and self.fp_regs_used >= self.fp_rename_budget:
            return False
        return True

    def dispatch(self, needs_lsq: bool, writes_int: bool, writes_fp: bool) -> None:
        self.rob_used += 1
        self.iq_used += 1
        if needs_lsq:
            self.lsq_used += 1
        if writes_int:
            self.int_regs_used += 1
        if writes_fp:
            self.fp_regs_used += 1
        if self.rob_used > self.rob_peak:
            self.rob_peak = self.rob_used
        if self.iq_used > self.iq_peak:
            self.iq_peak = self.iq_used
        if self.lsq_used > self.lsq_peak:
            self.lsq_peak = self.lsq_used

    def issue(self) -> None:
        """An op left the issue queue."""
        if self.iq_used <= 0:
            raise RuntimeError("issue-queue underflow")
        self.iq_used -= 1

    def commit(self, needs_lsq: bool, writes_int: bool, writes_fp: bool) -> None:
        """An op retired; free its ROB/LSQ slots and its physical register."""
        if self.rob_used <= 0:
            raise RuntimeError("ROB underflow")
        self.rob_used -= 1
        if needs_lsq:
            if self.lsq_used <= 0:
                raise RuntimeError("LSQ underflow")
            self.lsq_used -= 1
        if writes_int and self.int_regs_used > 0:
            self.int_regs_used -= 1
        if writes_fp and self.fp_regs_used > 0:
            self.fp_regs_used -= 1
