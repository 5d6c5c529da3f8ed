"""Batched compute-unit engine: many (config, kernel) cells in lockstep.

One sweep figure runs the *same* scoreboard loop tens of times with
different latency parameters; interpreted per-cell execution pays the
Python dispatch cost for every cycle of every cell.  This engine stacks
the cells along a leading axis and advances all of them through one
vectorized step function -- SIMT-style: each numpy operation touches
every live cell, finished or failed cells are masked out, and per-cell
``cycle`` counters advance independently (the event-driven idle skip
jumps different cells by different amounts, so lockstep is over *steps*,
not cycles).

Exactness is the contract: every cell's :class:`~repro.gpu.cu.CUResult`
is byte-identical to what :meth:`repro.gpu.cu.ComputeUnit.run` produces
for that (config, trace) alone.  Three structural facts make an exact
vectorization affordable:

* **Register-file-cache behaviour is timing-independent.**  The cache is
  per-wavefront and every wavefront executes its stream strictly in
  order, so the sequence of cache operations -- read src1, read src2,
  write dst on FMAs -- is a pure function of the instruction stream.
  Per-instruction operand latencies, hit/miss totals, and eviction
  counts are precomputed once per (trace, cache geometry)
  (:func:`rf_cache_stats`, memoised on the shared trace object) and
  shared by every cell and every batch that runs the trace.  The hot
  loop then never touches cache state at all: issue latency is one
  gather from a precomputed table.
* **Round-robin arbitration is an argmin.**  The scalar engine's scan
  "first issuable wavefront starting at ``rr``" picks the candidate
  minimising ``(k - rr) mod pool_len``; ranks are distinct within a
  pool, so a masked argmin over a ``(cells, K, 4)`` view of the
  wavefront axis reproduces the scan exactly.  The memory-port scan is
  the same argmin over the whole wavefront axis -- run *after* FMA
  issues (the scalar loop lets one wavefront issue an FMA and a memory
  op in the same cycle), with issued wavefronts' head state patched
  in between.
* **Dependencies never cross wavefronts**, so each issue only
  invalidates the issuing wavefront's own head -- head state
  (op class, readiness time) lives in persistent per-wavefront arrays
  refreshed for the few issued rows instead of re-gathered full-width.

A cell that trips the progress guard fails *alone*: it is masked out,
its outcome records the same ``RuntimeError`` the scalar engine raises,
and the rest of the batch completes (the sweep tier maps the error onto
its usual failure taxonomy).

Because lockstep cost is per *step* while scalar cost is per *cell*,
the vector loop hands the last few straggler cells (the batch's longest
kernels) to a scalar continuation (:func:`_finish_scalar`) that resumes
each cell from its lockstep state -- same loop semantics, same results,
without burning a full-width step per straggler cycle.  Small batches
(a single cell, say) fall back to the scalar engine entirely, as do
cells the vector path does not model (partitioned register files) and
every cell when ``REPRO_NO_CYCLE_SKIP=1`` is set.  Fallbacks are pure
performance decisions; results are identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.gpu.cu import SIMDS_PER_CU, ComputeUnit, CUConfig, CUResult
from repro.obs import cycle_skip_disabled
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.workloads.gpu_generator import OP_FMA, OP_MEM, KernelTrace

_INF = 1 << 60

#: Below this many vector-eligible cells the scalar engine wins (the
#: per-step numpy dispatch overhead is ~constant; the vector width is
#: what amortises it).
MIN_VECTOR_CELLS = 4

#: When at most this fraction of the batch is still live, the lockstep
#: loop hands the stragglers to the scalar continuation (a full-width
#: vector step has near-constant cost, so the last few long cells are
#: cheaper one at a time).
TAIL_FRACTION = 0.4


@dataclass
class RFCacheStats:
    """Timing-independent register-file-cache behaviour of one trace.

    ``hits`` holds the per-instruction count of source operands served
    by the cache (0..2); totals are whole-trace sums.  Valid for any
    cell running this trace with this cache geometry -- see the module
    docstring for why timing cannot change any of it.
    """

    entries: int
    hits: np.ndarray  # (n_wavefronts, stream_len) uint8
    total_hits: int
    total_evictions: int


def rf_cache_stats(trace: KernelTrace, entries: int) -> RFCacheStats:
    """Per-instruction cache hits for ``trace`` (memoised on the trace).

    Replays each wavefront's in-order stream through the exact
    :class:`repro.gpu.regfile.RegisterFileCache` discipline: probe src1,
    probe src2 (read hits refresh recency), write-allocate dst on FMA
    ops.  The memo rides the shared trace-cache entry, so one replay
    serves every batch, sweep, and process-pool worker sharing the
    trace buffers.
    """
    memo = getattr(trace, "_rf_cache_stats", None)
    if memo is None:
        memo = {}
        try:
            trace._rf_cache_stats = memo
        except AttributeError:  # exotic trace object; recompute per call
            pass
    stats = memo.get(entries)
    if stats is not None:
        return stats
    n_wf, n_ins = trace.n_wavefronts, trace.stream_len
    hits = np.zeros((n_wf, n_ins), dtype=np.uint8)
    total_hits = 0
    evictions = 0
    op_rows = [row.tolist() for row in trace.op]
    s1_rows = [row.tolist() for row in trace.src1_reg]
    s2_rows = [row.tolist() for row in trace.src2_reg]
    d_rows = [row.tolist() for row in trace.dst_reg]
    for wf in range(n_wf):
        lru: "list[int]" = []
        ops, s1s, s2s, ds = op_rows[wf], s1_rows[wf], s2_rows[wf], d_rows[wf]
        row = hits[wf]
        for i in range(n_ins):
            h = 0
            for reg in (s1s[i], s2s[i]):
                if reg in lru:
                    h += 1
                    if lru[0] != reg:
                        lru.remove(reg)
                        lru.insert(0, reg)
            if h:
                row[i] = h
                total_hits += h
            if ops[i] == OP_FMA:
                reg = ds[i]
                if reg in lru:
                    lru.remove(reg)
                elif len(lru) >= entries:
                    lru.pop()
                    evictions += 1
                lru.insert(0, reg)
    stats = RFCacheStats(
        entries=entries,
        hits=hits,
        total_hits=total_hits,
        total_evictions=evictions,
    )
    memo[entries] = stats
    return stats


def _fma_count(trace: KernelTrace) -> int:
    count = getattr(trace, "_fma_count", None)
    if count is None:
        count = int((trace.op == OP_FMA).sum())
        try:
            trace._fma_count = count
        except AttributeError:
            pass
    return count


@dataclass
class CellOutcome:
    """One sweep cell's outcome, from the engine up to the runner.

    Exactly one of ``result``/``error`` is set.  Each layer replaces
    ``result`` in place as it builds on it -- a
    :class:`~repro.gpu.cu.CUResult` here, the whole-GPU
    :class:`~repro.gpu.gpu.GpuResult` after CU-count scaling, the
    :class:`~repro.core.simulate.GpuRunResult` (or ``CpuRunResult``)
    after the energy model -- so the engine telemetry below rides along
    unchanged.  ``skipped_cycles`` and ``skip_events`` mirror the
    :class:`~repro.gpu.cu.ComputeUnit` attributes of the same names;
    ``metrics`` is the per-run registry the scalar engine would have
    built (None for failed cells).
    """

    result: object = None
    error: "Exception | None" = None
    skipped_cycles: int = 0
    skip_events: int = 0
    metrics: "MetricsRegistry | None" = None
    #: Whether the lockstep path produced this cell (observability
    #: only -- results are identical either way).
    vectorized: bool = False

    def unwrap(self):
        """The cell's result, or its error raised."""
        if self.error is not None:
            raise self.error
        return self.result


def contain(
    fn: "Callable[[], object]", outcome: "CellOutcome | None" = None
) -> CellOutcome:
    """Run ``fn`` and return ``outcome`` (a fresh one by default) with
    ``result`` set to what it returned, or ``error`` to what it raised.

    The one place a cell's exception becomes an outcome: a failing cell
    never takes its batch siblings down with it.  Passing the outcome a
    lower layer produced keeps that layer's telemetry.
    """
    out = CellOutcome() if outcome is None else outcome
    try:
        out.result = fn()
    except Exception as exc:  # progress guard, bad geometry, energy model...
        out.result, out.error = None, exc
    return out


def _vector_eligible(config: CUConfig, trace: KernelTrace) -> bool:
    """Can the vectorized scoreboard model this cell?"""
    return (
        config.partitioned_fast_regs is None
        and trace.n_wavefronts > 0
        and trace.stream_len > 0
    )


def run_cu_batch(
    cells: "list[tuple[CUConfig, KernelTrace]]",
) -> "list[CellOutcome]":
    """Run many (config, trace) cells; one :class:`CellOutcome` each,
    in input order, whose ``result`` is the cell's :class:`CUResult`.

    Byte-identical to running :meth:`ComputeUnit.run` per cell.  Cells
    the vector engine cannot model (or entire batches too small to win)
    run through the scalar engine.  A failing cell yields an outcome
    with ``error`` set (through :func:`contain`) while the rest of the
    batch completes.  ``vectorized`` marks every cell the lockstep
    engine ran; the skip counters and ``metrics`` are set for every cell
    that completed.
    """
    outcomes: "list[CellOutcome | None]" = [None] * len(cells)
    vector_idx = [
        i for i, (cfg, tr) in enumerate(cells) if _vector_eligible(cfg, tr)
    ]
    use_vector = (
        len(vector_idx) >= MIN_VECTOR_CELLS and not cycle_skip_disabled()
    )
    if use_vector:
        vec_outcomes = _run_vectorized([cells[i] for i in vector_idx])
        for i, outcome in zip(vector_idx, vec_outcomes):
            outcomes[i] = outcome
    for i, (cfg, tr) in enumerate(cells):
        if outcomes[i] is None:
            cu = ComputeUnit(cfg)
            out = outcomes[i] = contain(lambda: cu.run(tr))
            if out.error is None:
                out.skipped_cycles = cu.skipped_cycles
                out.skip_events = cu.skip_events
                out.metrics = cu.metrics
    # Scalar runs mount their per-run registry as they go; vectorized
    # cells mount here, in cell order, so the final mounted state
    # matches a serial sweep (last cell wins in both).
    if obs.enabled():
        for outcome in outcomes:
            if outcome.vectorized and outcome.metrics is not None:
                get_registry().mount("gpu.cu", outcome.metrics)
    return outcomes


def _finish_scalar(
    cfg: CUConfig,
    trace: KernelTrace,
    op_lat_rows: "list[list[int]]",
    mem_latency: int,
    worst: int,
    ip: "list[int]",
    done: "list[list[int]]",
    rr: "list[int]",
    mem_rr: int,
    cycle: int,
    remaining: int,
    skipped: int,
    skip_events: int,
) -> "tuple[int, int, int, int]":
    """Scalar continuation of one cell from mid-lockstep state.

    Semantically the tail of :meth:`ComputeUnit.run`'s loop with operand
    latencies read from the precomputed table.  Returns
    ``(final_cycle, max_done, skipped, skip_events)`` or raises the
    progress-guard ``RuntimeError``.
    """
    n_wf = trace.n_wavefronts
    n_ins = trace.stream_len
    op_list = [row.tolist() for row in trace.op]
    dep_list = [row.tolist() for row in trace.dep_dist]
    groups = [
        [wf for wf in range(n_wf) if wf % SIMDS_PER_CU == s]
        for s in range(SIMDS_PER_CU)
    ]
    fma_depth = cfg.fma_depth
    while remaining > 0:
        progress = False
        for s in range(SIMDS_PER_CU):
            pool = groups[s]
            if not pool:
                continue
            for k in range(len(pool)):
                wf = pool[(rr[s] + k) % len(pool)]
                i = ip[wf]
                if i >= n_ins or op_list[wf][i] != OP_FMA:
                    continue
                d = dep_list[wf][i]
                if d and done[wf][i - d] > cycle:
                    continue
                done[wf][i] = cycle + op_lat_rows[wf][i] + fma_depth
                progress = True
                ip[wf] = i + 1
                if ip[wf] == n_ins:
                    remaining -= 1
                break
            rr[s] = (rr[s] + 1) % len(pool)
        for k in range(n_wf):
            wf = (mem_rr + k) % n_wf
            i = ip[wf]
            if i >= n_ins or op_list[wf][i] == OP_FMA:
                continue
            d = dep_list[wf][i]
            if d and done[wf][i - d] > cycle:
                continue
            done[wf][i] = cycle + op_lat_rows[wf][i] + mem_latency
            progress = True
            ip[wf] = i + 1
            if ip[wf] == n_ins:
                remaining -= 1
            break
        mem_rr = (mem_rr + 1) % n_wf
        if not progress:
            wake = _INF
            for wf in range(n_wf):
                i = ip[wf]
                if i >= n_ins:
                    continue
                d = dep_list[wf][i]
                w = done[wf][i - d] if d else cycle + 1
                if w < wake:
                    wake = w
            extra = wake - cycle - 1
            if extra > 0 and wake < _INF:
                skipped += extra
                skip_events += 1
                for s in range(SIMDS_PER_CU):
                    pool_len = len(groups[s])
                    if pool_len:
                        rr[s] = (rr[s] + extra) % pool_len
                mem_rr = (mem_rr + extra) % n_wf
                cycle = wake - 1
        cycle += 1
        if cycle > worst:
            raise RuntimeError("CU simulation failed to make progress")
    return cycle, max(max(row) for row in done), skipped, skip_events


def _run_vectorized(
    cells: "list[tuple[CUConfig, KernelTrace]]",
) -> "list[CellOutcome]":
    """The lockstep engine proper; every cell here is vector-eligible."""
    C = len(cells)
    configs = [cfg for cfg, _tr in cells]
    traces = [tr for _cfg, tr in cells]

    n_wf = np.array([t.n_wavefronts for t in traces], dtype=np.int64)
    n_ins = np.array([t.stream_len for t in traces], dtype=np.int64)
    W = int(n_wf.max())
    I = int(n_ins.max())
    # Pad the wavefront axis to a SIMD multiple so it reshapes to
    # (C, K, 4) with wavefront ``w = 4k + s`` -- exactly the scalar
    # engine's pool layout (pool ``s`` holds wavefronts ``s, s+4, ...``).
    Wp = max(
        ((W + SIMDS_PER_CU - 1) // SIMDS_PER_CU) * SIMDS_PER_CU,
        SIMDS_PER_CU,
    )
    K = Wp // SIMDS_PER_CU

    rf_cycles = np.array([cfg.rf_cycles for cfg in configs], dtype=np.int64)
    fma_depth = np.array([cfg.fma_depth for cfg in configs], dtype=np.int64)
    cache_on = [cfg.rf_cache_enabled for cfg in configs]
    mem_latency = np.array(
        [
            max(1, round(t.profile.mem_latency * cfg.mem_latency_scale))
            for cfg, t in cells
        ],
        dtype=np.int64,
    )
    worst = (rf_cycles + fma_depth + mem_latency) * n_wf * n_ins + 64

    # One sentinel column past the longest stream: a drained wavefront's
    # issue pointer lands on it, where ``op`` is -1 and ``dep``/``done``
    # are 0, so head-state refreshes need no end-of-stream clamp.
    Ip = I + 1
    op = np.full((C, Wp, Ip), -1, dtype=np.int64)
    dep = np.zeros((C, Wp, Ip), dtype=np.int64)
    done = np.zeros((C, Wp, Ip), dtype=np.int64)
    # Precomputed per-instruction operand latency: 2 source reads, each
    # 1 cycle on a cache hit else the RF access time (see module
    # docstring -- hit patterns are timing-independent).
    op_lat = np.zeros((C, Wp, Ip), dtype=np.int64)
    stats: "list[RFCacheStats | None]" = [None] * C
    for c, (cfg, t) in enumerate(cells):
        w, i = t.n_wavefronts, t.stream_len
        op[c, :w, :i] = t.op
        dep[c, :w, :i] = t.dep_dist
        rc = cfg.rf_cycles
        if cfg.rf_cache_enabled:
            st = rf_cache_stats(t, cfg.rf_cache_entries)
            stats[c] = st
            op_lat[c, :w, :i] = 2 * rc - (rc - 1) * st.hits.astype(np.int64)
        else:
            op_lat[c, :w, :i] = 2 * rc

    wcols = np.arange(Wp, dtype=np.int64)[None, :]
    # Padded wavefronts start "already finished" so no mask ever admits
    # them; real wavefronts start at instruction 0.
    ip = np.where(wcols < n_wf[:, None], 0, n_ins[:, None])

    simds = np.arange(SIMDS_PER_CU, dtype=np.int64)
    pool_len = np.maximum(
        (n_wf[:, None] - simds[None, :] + SIMDS_PER_CU - 1) // SIMDS_PER_CU,
        0,
    )
    pool_len_safe = np.maximum(pool_len, 1)
    n_wf_safe = np.maximum(n_wf, 1)
    rr = np.zeros((C, SIMDS_PER_CU), dtype=np.int64)
    mem_rr = np.zeros(C, dtype=np.int64)
    cycle = np.zeros(C, dtype=np.int64)
    skipped = np.zeros(C, dtype=np.int64)
    skip_events = np.zeros(C, dtype=np.int64)
    # The scalar engine's ``remaining`` counter: wavefronts whose issue
    # pointer has not yet reached the end of the stream.
    remaining = n_wf.copy()
    live = remaining > 0
    failed = np.zeros(C, dtype=bool)
    tail: "dict[int, tuple]" = {}  # cell -> scalar continuation state

    op_r = op.reshape(-1)
    dep_r = dep.reshape(-1)
    done_r = done.reshape(-1)
    op_lat_r = op_lat.reshape(-1)
    rowbase = (
        np.arange(C, dtype=np.int64)[:, None] * Wp + wcols
    ) * Ip  # flat index of (c, w, 0)

    # Persistent head state, refreshed only for issued rows: class of
    # the head instruction (the sentinel's -1 classifies drained rows as
    # neither) and the cycle its dependency clears.  ``done`` is written
    # exactly once, at issue, so an unissued head's dep-free gather
    # (``dep == 0`` -> its own slot) reads 0 = "no dependency".
    f0 = rowbase + ip
    ho = op_r[f0]
    head_fma = ho == OP_FMA
    head_mem = ho == OP_MEM
    wait_at = done_r[f0 - dep_r[f0]]

    kidx = np.arange(K, dtype=np.int64)[None, :, None]
    pl3_safe = pool_len_safe[:, None, :]
    nwf2_safe = n_wf_safe[:, None]
    BIG_RANK = np.int64(1 << 30)
    no_cells = np.zeros(C, dtype=bool)

    def refresh(cc, wf, rb, i_new):
        """Re-derive head state for just-issued rows.

        The issue scatter into ``done`` runs first, so a new head
        depending on its just-issued predecessor gathers the fresh
        completion time; drained rows land on the sentinel column and
        classify as neither FMA nor MEM.
        """
        fb = rb + i_new
        ho_n = op_r[fb]
        head_fma[cc, wf] = ho_n == OP_FMA
        head_mem[cc, wf] = ho_n == OP_MEM
        wait_at[cc, wf] = done_r[fb - dep_r[fb]]

    step = 0
    n_live = int(live.sum())
    while True:
        if n_live == 0:
            break
        if n_live <= max(8, int(C * TAIL_FRACTION)):
            # Hand stragglers to the scalar continuation: one full-width
            # vector step costs ~16 scalar cell-cycles, so the batch's
            # longest kernels finish faster one at a time.
            for c in np.nonzero(live)[0]:
                c = int(c)
                w = int(n_wf[c])
                tail[c] = (
                    ip[c, :w].tolist(),
                    [done[c, wf, : int(n_ins[c])].tolist() for wf in range(w)],
                    (rr[c] % pool_len_safe[c]).tolist(),
                    int(mem_rr[c] % n_wf_safe[c]),
                    int(cycle[c]),
                    int(remaining[c]),
                    int(skipped[c]),
                    int(skip_events[c]),
                )
            break

        cyc2 = cycle[:, None]
        # ---- vector issue: one per SIMD, masked argmin over RR rank ----
        cand4 = (head_fma & (wait_at <= cyc2)).reshape(C, K, SIMDS_PER_CU)
        # Real wavefronts always have k < pool_len, so a single modulo
        # equals the old conditional wrap on every unmasked lane.
        rank = np.where(cand4, (kidx - rr[:, None, :]) % pl3_safe, BIG_RANK)
        k_sel = rank.argmin(axis=1)
        has_fma = cand4.any(axis=1)
        cc, ss = np.nonzero(has_fma)
        if cc.size:
            wf = k_sel[cc, ss] * SIMDS_PER_CU + ss
            i = ip[cc, wf]
            rb = rowbase[cc, wf]
            fb = rb + i
            dval = cycle[cc] + op_lat_r[fb] + fma_depth[cc]
            done_r[fb] = dval
            i1 = i + 1
            ip[cc, wf] = i1
            fin = i1 == n_ins[cc]
            finished = bool(fin.any())
            if finished:
                remaining -= np.bincount(cc[fin], minlength=C)
            refresh(cc, wf, rb, i1)
            any_fma = has_fma.any(axis=1)
        else:
            finished = False
            any_fma = no_cells
        # Round-robin counters advance unreduced; the rank modulo above
        # and the export reduction below keep them exact.
        rr += 1

        # ---- memory issue: one per CU, after FMA head updates ----
        mem_cand = head_mem & (wait_at <= cyc2)
        rank_m = np.where(
            mem_cand, (wcols - mem_rr[:, None]) % nwf2_safe, BIG_RANK
        )
        wf_all = rank_m.argmin(axis=1)
        has_mem = mem_cand.any(axis=1)
        ccm = np.nonzero(has_mem)[0]
        if ccm.size:
            wfm = wf_all[ccm]
            im = ip[ccm, wfm]
            rbm = rowbase[ccm, wfm]
            fbm = rbm + im
            dvalm = cycle[ccm] + op_lat_r[fbm] + mem_latency[ccm]
            done_r[fbm] = dvalm
            im1 = im + 1
            ip[ccm, wfm] = im1
            finm = im1 == n_ins[ccm]
            if finm.any():
                finished = True
                remaining -= np.bincount(ccm[finm], minlength=C)
            refresh(ccm, wfm, rbm, im1)
        mem_rr += 1

        # ---- event-driven idle-cycle skip, per cell ----
        progress = any_fma | has_mem
        stuck = live & ~progress
        if stuck.any():
            # Under zero progress every unfinished head is
            # dependency-blocked (a ready head would have issued on its
            # port), matching the scalar engine's wake scan.
            alive_head = head_fma | head_mem
            w_cand = np.where(wait_at > 0, wait_at, cyc2 + 1)
            w_cand = np.where(alive_head, w_cand, _INF)
            wake = w_cand.min(axis=1)
            extra = wake - cycle - 1
            do_skip = stuck & (extra > 0) & (wake < _INF)
            bump = np.where(do_skip, extra, 0)
            skipped += bump
            skip_events += do_skip
            # Unreduced RR counters make the skip advance a plain add.
            rr += bump[:, None]
            mem_rr += bump
            cycle += bump

        cycle += live
        step += 1
        # The progress guard is a safety net for pathological cells, so
        # amortise it: checking every 64th step delays a trip by at most
        # 63 cycles and changes nothing for cells that never trip.
        if (step & 63) == 0:
            trip = live & (cycle > worst)
            if trip.any():
                failed |= trip
                # Dead rows must never look issuable again.
                head_fma[trip] = False
                head_mem[trip] = False
                live &= ~failed
                finished = True
        # ``live`` can only shrink when a wavefront drained or a cell
        # tripped; skip the recount on the (hot) steps where neither
        # happened.
        if finished:
            live &= remaining > 0
            n_live = int(live.sum())

    outcomes: "list[CellOutcome]" = []
    for c in range(C):
        cfg = configs[c]
        trace = traces[c]
        out = CellOutcome(vectorized=True)
        outcomes.append(out)
        sk = int(skipped[c])
        se = int(skip_events[c])
        if c in tail and not failed[c]:
            t_ip, t_done, t_rr, t_mrr, t_cyc, t_rem, sk, se = tail[c]
            w = int(n_wf[c])
            lat_rows = [
                op_lat[c, wf, : int(n_ins[c])].tolist() for wf in range(w)
            ]
            contain(
                lambda: _finish_scalar(
                    cfg,
                    trace,
                    lat_rows,
                    int(mem_latency[c]),
                    int(worst[c]),
                    t_ip,
                    t_done,
                    t_rr,
                    t_mrr,
                    t_cyc,
                    t_rem,
                    sk,
                    se,
                ),
                out,
            )
            if out.error is not None:
                continue
            end_cycle, end_done, sk, se = out.result
            total = max(end_cycle, end_done)
        elif failed[c]:
            out.error = RuntimeError("CU simulation failed to make progress")
            continue
        else:
            total = int(max(cycle[c], done[c].max()))
        instructions = int(n_wf[c] * n_ins[c])
        fma = _fma_count(trace)
        st = stats[c]
        hits = st.total_hits if cache_on[c] else 0
        result = CUResult(
            cycles=int(total),
            instructions=instructions,
            fma_ops=fma,
            mem_ops=instructions - fma,
            rf_reads=2 * instructions - hits,
            rf_writes=fma,
            rf_cache_read_hits=hits,
            rf_cache_read_misses=(2 * instructions - hits) if cache_on[c] else 0,
            rf_cache_writes=fma if cache_on[c] else 0,
            freq_ghz=cfg.freq_ghz,
        )
        reg = MetricsRegistry("cu", enabled=True)
        reg.probe("rf.reads", lambda v=result.rf_reads: v)
        reg.probe("rf.writes", lambda v=result.rf_writes: v)
        if cache_on[c]:
            reg.probe("rfc.hits", lambda v=result.rf_cache_read_hits: v)
            reg.probe("rfc.misses", lambda v=result.rf_cache_read_misses: v)
            reg.probe("rfc.writes", lambda v=result.rf_cache_writes: v)
            reg.probe(
                "rfc.evictions", lambda v=st.total_evictions: v
            )
        reg.gauge("cycles").set(result.cycles)
        reg.gauge("fma_ops").set(result.fma_ops)
        reg.gauge("mem_ops").set(result.mem_ops)
        reg.gauge("wavefronts").set(int(n_wf[c]))
        reg.gauge("engine.skipped_cycles").set(sk)
        reg.gauge("engine.skip_events").set(se)
        out.result = result
        out.skipped_cycles, out.skip_events, out.metrics = sk, se, reg
    return outcomes
