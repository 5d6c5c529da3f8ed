"""Cached structure-of-arrays decode of the CPU trace hot fields.

The core's fast path (:meth:`repro.cpu.core.OutOfOrderCore._run_fast`)
touches six trace arrays per micro-op plus derived values it used to
recompute on every access: the producer index behind each dependency
distance, the per-:class:`~repro.cpu.uops.UopType` class flags, and the
"does this fetch cross a cache-line boundary" test.  All of those are
pure functions of the trace, so they are decoded **once per trace** here
-- vectorized in numpy, then unboxed to plain Python lists in one
``tolist()`` pass -- and memoised on the trace object itself.  Traces
are shared (the process-wide trace LRU hands the same object to every
configuration of a sweep and every core of a multicore run), so one
decode serves the whole sweep instead of every ``run()`` paying six
``tolist()`` passes plus per-access arithmetic.

Unboxing matters as much as caching: indexing a numpy array yields a
boxed numpy scalar whose arithmetic is several times slower than a plain
``int``, which is why the hot loop consumes lists, not arrays (the
``tests/test_perf_fastpath.py`` audit enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.trace import Trace
from repro.cpu.uops import N_UOP_TYPES, UopType

_LOAD = int(UopType.LOAD)
_STORE = int(UopType.STORE)

#: Byte shift selecting the instruction-cache line of a pc.
_LINE_SHIFT = 6


@dataclass
class TraceSoA:
    """Per-uop hot state, decoded once per trace.

    Every field is a plain Python list (or equivalent) indexed by trace
    position; see the module docstring for why lists rather than arrays.
    """

    #: UopType value per entry.
    op: "list[int]"
    #: Byte address per entry (0 for non-memory ops).
    addr: "list[int]"
    #: Instruction address per entry.
    pc: "list[int]"
    #: Branch outcome per entry.
    taken: "list[bool]"
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
    soa = TraceSoA(
        op=trace.op.tolist(),
        addr=trace.addr.tolist(),
        pc=trace.pc.tolist(),
        taken=trace.taken.tolist(),
        prod1=prod1.tolist(),
        prod2=prod2.tolist(),
        new_line=new_line.tolist(),
    )
    try:
        trace._soa = soa
    except AttributeError:  # exotic trace type without __dict__
        pass
    return soa
