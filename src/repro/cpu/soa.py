"""Cached structure-of-arrays decode of the CPU trace hot fields.

The core's fast path (:meth:`repro.cpu.core.OutOfOrderCore._run_fast`)
touches a handful of trace arrays per micro-op plus derived values it used
to recompute on every access: the producer index behind each dependency
distance, the per-:class:`~repro.cpu.uops.UopType` class flags, and the
"does this fetch cross a cache-line boundary" test.  All of those are
pure functions of the trace, so they are decoded **once per trace** here
-- vectorized in numpy, then unboxed to plain Python lists in one
``tolist()`` pass -- and memoised on the trace object itself.  Traces
are shared (the process-wide trace LRU hands the same object to every
configuration of a sweep and every core of a multicore run), so one
decode serves the whole sweep instead of every ``run()`` paying the
``tolist()`` passes plus per-access arithmetic.

The decode also carries the **frontend and dispatch columns**: results
that depend only on the trace because fetch and dispatch consume it
strictly in program order on a freshly built core.  Fetch drives the
tournament predictor, BTB and RAS once per entry, in trace order, so
each entry's misprediction and BTB-miss bubble are fixed per trace
(:attr:`TraceSoA.front`); the dual-speed steering decision reads only
dependence distances (:func:`steer_columns`, one per steering window).
The counters those stages feed (branch lookups and mispredictions,
steering decisions, the dispatch-side activity counts) are therefore
prefix sums over the fetch or dispatch pointer, stored as small numpy
tables the engine reads twice per run (at the warm-up boundary and at
the end) instead of incrementing per micro-op.

Unboxing matters as much as caching: indexing a numpy array yields a
boxed numpy scalar whose arithmetic is several times slower than a plain
``int``, which is why the hot loop consumes lists, not arrays (the
``tests/test_perf_fastpath.py`` audit enforces this).  The prefix tables
stay numpy -- they are off the per-uop path, and their ``tolist()``
reads hand back plain ints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.branch import BranchTargetBuffer, ReturnAddressStack, TournamentPredictor
from repro.cpu.steering import STEERED_OPS
from repro.cpu.trace import Trace
from repro.cpu.uops import FP_OPS, FP_PRODUCERS, INT_PRODUCERS, UopType

_LOAD = int(UopType.LOAD)
_STORE = int(UopType.STORE)
_BRANCH = int(UopType.BRANCH)
_CALL = int(UopType.CALL)
_RET = int(UopType.RET)

#: Byte shift selecting the instruction-cache line of a pc.
_LINE_SHIFT = 6

#: :attr:`TraceSoA.front` flag: a taken branch that misses the BTB (the
#: frontend pays the BTB-miss bubble).
FRONT_BUBBLE = 1
#: :attr:`TraceSoA.front` flag: a mispredicted branch or return (fetch
#: stops until it resolves).
FRONT_MISPREDICT = 2

#: Rows of :attr:`TraceSoA.fetch_counts`, by fetch pointer.
FETCH_COUNTERS = ("bpred_lookups", "bpred_mispredictions")
#: Rows of :attr:`TraceSoA.dispatch_counts`, by dispatch pointer (the
#: dispatch-side :class:`~repro.cpu.core.ActivityCounts` fields).
DISPATCH_COUNTERS = (
    "loads", "stores", "int_reg_reads", "fp_reg_reads",
    "int_reg_writes", "fp_reg_writes",
)


@dataclass
class TraceSoA:
    """Per-uop hot state, decoded once per trace.

    The per-entry fields are plain Python lists indexed by trace position;
    see the module docstring for why lists rather than arrays.
    """

    #: UopType value per entry.
    op: "list[int]"
    #: Byte address per entry (0 for non-memory ops).
    addr: "list[int]"
    #: Instruction address per entry.
    pc: "list[int]"
    #: Producer trace index per source (-1 = no dependency).  The
    #: validator guarantees distances never point before entry 0, so -1
    #: is unambiguous.
    prod1: "list[int]"
    prod2: "list[int]"
    #: True where this entry's fetch touches a new instruction-cache
    #: line.  Valid because fetch consumes the trace strictly in order:
    #: the line comparison against the previously fetched entry is a
    #: pure function of adjacent pcs.
    new_line: "list[bool]"
    #: Per entry, ``FRONT_BUBBLE | FRONT_MISPREDICT`` flags from a fresh
    #: predictor, BTB and RAS driven in program order (0 for most ops).
    front: "list[int]"
    #: ``int32 [len(FETCH_COUNTERS), n + 1]``: column ``f`` holds each
    #: counter's total over entries ``[0, f)``.
    fetch_counts: np.ndarray
    #: ``int32 [len(DISPATCH_COUNTERS), n + 1]``, likewise by dispatch
    #: pointer.
    dispatch_counts: np.ndarray


@dataclass
class SteerColumns:
    """The dual-speed steering decision for one trace and window."""

    #: Per entry: steer this ALU op to the fast (CMOS) ALU.
    prefer_fast: "list[bool]"
    #: ``int32 [2, n + 1]``: ops examined and ops preferred over entries
    #: ``[0, d)`` for dispatch pointer ``d``.
    counts: np.ndarray


def _prefix(rows) -> np.ndarray:
    """``[len(rows), n + 1]`` running totals of per-entry counts."""
    table = np.zeros((len(rows), len(rows[0]) + 1), dtype=np.int32)
    np.cumsum(np.array(rows), axis=1, out=table[:, 1:])
    return table


def _frontend(trace: Trace, op, pc, addr) -> "list[int]":
    """Drive a fresh predictor, BTB and RAS over the control ops in
    program order, exactly as the fetch stage would; per entry, the
    resulting :data:`FRONT_BUBBLE`/:data:`FRONT_MISPREDICT` flags."""
    predictor_update = TournamentPredictor().update
    btb_update = BranchTargetBuffer().lookup_and_update
    ras = ReturnAddressStack()
    front = [0] * len(op)
    controls = np.flatnonzero(np.isin(trace.op, (_BRANCH, _CALL, _RET)))
    taken = trace.taken[controls].tolist()
    for idx, outcome in zip(controls.tolist(), taken):
        o = op[idx]
        p = pc[idx]
        if o == _BRANCH:
            flags = FRONT_MISPREDICT if predictor_update(p, outcome) else 0
            if outcome and not btb_update(p):
                flags |= FRONT_BUBBLE
            front[idx] = flags
        elif o == _CALL:
            ras.push(p + 4)
            btb_update(p)
        elif ras.pop(addr[idx]):
            # The trace encodes the architected return target in addr;
            # RAS mispredicts on overflow-induced mismatch.
            front[idx] = FRONT_MISPREDICT
    return front


def decode_trace(trace: Trace) -> TraceSoA:
    """The memoised SoA decode of ``trace`` (see module docstring)."""
    cached = getattr(trace, "_soa", None)
    if cached is not None:
        return cached
    n = len(trace)
    idx = np.arange(n, dtype=np.int64)
    d1 = trace.src1_dist.astype(np.int64)
    d2 = trace.src2_dist.astype(np.int64)
    prod1 = np.where(d1 > 0, idx - d1, -1)
    prod2 = np.where(d2 > 0, idx - d2, -1)
    lines = trace.pc >> _LINE_SHIFT
    new_line = np.empty(n, dtype=bool)
    if n:
        new_line[0] = True
        np.not_equal(lines[1:], lines[:-1], out=new_line[1:])
    op = trace.op
    op_l = op.tolist()
    pc_l = trace.pc.tolist()
    addr_l = trace.addr.tolist()
    front = _frontend(trace, op_l, pc_l, addr_l)

    is_branch = op == _BRANCH
    mispredicted = np.array(front, dtype=np.int8) & FRONT_MISPREDICT
    reads = (d1 > 0).astype(np.int32) + (d2 > 0)
    is_fp = np.isin(op, [int(t) for t in FP_OPS])
    soa = TraceSoA(
        op=op_l,
        addr=addr_l,
        pc=pc_l,
        prod1=prod1.tolist(),
        prod2=prod2.tolist(),
        new_line=new_line.tolist(),
        front=front,
        fetch_counts=_prefix((is_branch, is_branch & (mispredicted > 0))),
        dispatch_counts=_prefix((
            op == _LOAD,
            op == _STORE,
            np.where(is_fp, 0, reads),
            np.where(is_fp, reads, 0),
            np.isin(op, [int(t) for t in INT_PRODUCERS]),
            np.isin(op, [int(t) for t in FP_PRODUCERS]),
        )),
    )
    try:
        trace._soa = soa
    except AttributeError:  # exotic trace type without __dict__
        pass
    return soa


def steer_columns(trace: Trace, window: int) -> SteerColumns:
    """The memoised steering decision of ``trace`` for an effective
    ``window`` (:attr:`repro.cpu.steering.DualSpeedSteering.window`).

    An ALU-cluster op prefers the fast ALU iff an entry at distance
    ``1..window`` names it as a source -- the rule
    :meth:`~repro.cpu.steering.DualSpeedSteering.prefer_fast` applies
    per dispatch, evaluated here for every entry at once.
    """
    memo = trace.__dict__.setdefault("_steer", {})
    cached = memo.get(window)
    if cached is not None:
        return cached
    n = len(trace)
    op = trace.op
    prefer = np.zeros(n, dtype=bool)
    for gap in range(1, min(window, n - 1) + 1):
        prefer[: n - gap] |= (
            (trace.src1_dist[gap:] == gap) | (trace.src2_dist[gap:] == gap)
        )
    examined = np.isin(op, list(STEERED_OPS))
    prefer &= examined
    return memo.setdefault(
        window, SteerColumns(prefer.tolist(), _prefix((examined, prefer)))
    )
