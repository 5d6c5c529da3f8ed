"""Dispatch-stage steering for the dual-speed ALU cluster (Section IV-C2).

AdvHet keeps one of the four ALUs in CMOS (1-cycle) and the other three in
TFET (2-cycle).  To preserve back-to-back issue of dependent pairs, a
simplified Generation-Time-Gap check runs at dispatch: an ALU op is steered
to the CMOS ALU if any of the next ``window`` trace entries (window = the
core's issue width) consumes its result.  Mis-steers only cost one cycle,
so the scheme stays simple; it also balances utilisation because all
unpreferred ops try the TFET ALUs first (see
:meth:`repro.cpu.units.FunctionalUnitPool.issue_alu`).
"""

from __future__ import annotations

from repro.cpu.trace import Trace
from repro.cpu.uops import UopType

#: Farthest consumer a fast ALU can help (see :meth:`DualSpeedSteering.prefer_fast`).
MAX_CONSUMER_DISTANCE = 2

#: Ops eligible for steering (they execute on the ALU cluster).
STEERED_OPS = frozenset(
    {int(UopType.IALU), int(UopType.BRANCH), int(UopType.CALL), int(UopType.RET)}
)


class DualSpeedSteering:
    """Per-dispatch consumer-in-window test over a trace."""

    def __init__(
        self,
        trace: Trace,
        window: int = 4,
        enabled: bool = True,
        max_consumer_distance: int = MAX_CONSUMER_DISTANCE,
    ):
        if window <= 0:
            raise ValueError("steering window must be positive")
        self.window = min(window, max_consumer_distance)
        self.enabled = enabled
        # Unboxed once: prefer_fast runs per dispatched uop, and numpy
        # scalar indexing would box on every window probe.
        self._op = trace.op.tolist()
        self._src1 = trace.src1_dist.tolist()
        self._src2 = trace.src2_dist.tolist()
        self._n = len(trace)
        self.preferred = 0
        self.examined = 0

    def prefer_fast(self, idx: int) -> bool:
        """Should trace entry ``idx`` be steered to the CMOS ALU?

        True iff some entry in ``(idx, idx + window]`` names ``idx`` as a
        source, where the window is capped at the distance a fast ALU can
        actually help (a consumer 3+ instructions away is insensitive to
        one extra cycle).  The cap also keeps the majority of ALU traffic
        on the power-efficient TFET ALUs, one of the scheme's stated
        objectives.  Only meaningful for ALU-class ops.
        """
        if not self.enabled or int(self._op[idx]) not in STEERED_OPS:
            return False
        self.examined += 1
        src1 = self._src1
        src2 = self._src2
        end = min(idx + self.window, self._n - 1)
        for j in range(idx + 1, end + 1):
            gap = j - idx
            if src1[j] == gap or src2[j] == gap:
                self.preferred += 1
                return True
        return False

    @property
    def preference_rate(self) -> float:
        """Fraction of examined ALU ops steered to the fast ALU."""
        return self.preferred / self.examined if self.examined else 0.0
