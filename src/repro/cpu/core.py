"""The cycle-level out-of-order core engine.

Per cycle the engine performs, in order: commit (up to commit width, in
program order, completed entries only), issue (oldest-first scan of the
issue queue; an op issues when its sources are ready and a functional unit
port is free), dispatch (frontend queue into ROB/IQ/LSQ, resources
permitting, with dual-speed ALU steering decided here), and fetch (IL1
access per line, branch prediction, BTB, RAS, and misprediction redirect
stalls).  Loads access the memory hierarchy at issue and complete after the
level-appropriate round trip; mispredicted branches block fetch until they
resolve plus a redirect penalty.

The design goal is that every effect HetCore's evaluation depends on is
mechanistic here:

* TFET ALUs (2-cycle) break back-to-back dependent issue -- visible as a
  dependent chain's ops issuing every other cycle;
* TFET FPU pipelines are longer but still single-cycle issue, so FP-dense
  code with ILP keeps them full while latency-bound chains suffer;
* the TFET DL1 (4-cycle) stretches every load-use chain, while the
  asymmetric DL1 serves MRU-resident lines in 1 cycle;
* a bigger ROB/FP-RF admits more in-flight FP ops to cover the deeper
  pipelines;
* branch mispredictions hurt more when the resolving ALU is slower.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush

from repro import obs
from repro.obs import cycle_skip_disabled
from repro.cpu.branch import BranchTargetBuffer, ReturnAddressStack, TournamentPredictor
from repro.cpu.resources import CoreResources, ResourceConfig
from repro.cpu.soa import decode_trace
from repro.cpu.steering import DualSpeedSteering
from repro.cpu.trace import Trace
from repro.cpu.units import FunctionalUnitPool
from repro.cpu.uops import N_UOP_TYPES, UopType
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import (
    STAGE_COMMIT,
    STAGE_FETCH,
    STAGE_ISSUE,
    STAGE_MEM,
    STAGE_STALL,
    STAGE_STEER,
    PipelineTracer,
)

_INF = 1 << 60

_LOAD = int(UopType.LOAD)
_STORE = int(UopType.STORE)
_BRANCH = int(UopType.BRANCH)
_CALL = int(UopType.CALL)
_RET = int(UopType.RET)
_IALU = int(UopType.IALU)
_IMUL = int(UopType.IMUL)
_IDIV = int(UopType.IDIV)
_FADD = int(UopType.FADD)
_FMUL = int(UopType.FMUL)
_FDIV = int(UopType.FDIV)
_NOP = int(UopType.NOP)

#: Trace-event name per op (tracing-only lookup, off the default path).
_TRACE_NAMES = {int(t): t.name.lower() for t in UopType}

#: Stall-bucket code (see ``_run_fast``) -> tracer reason string.
_STALL_REASONS = ("idle", "frontend", "dep", "mem", "structural")

_ALU_CLASS = frozenset({_IALU, _BRANCH, _CALL, _RET, _NOP})
_MULDIV_CLASS = frozenset({_IMUL, _IDIV})
_FP_CLASS = frozenset({_FADD, _FMUL, _FDIV})
_MEM_CLASS = frozenset({_LOAD, _STORE})
_INT_WRITERS = frozenset({_IALU, _IMUL, _IDIV, _LOAD})
_FP_WRITERS = frozenset({_FADD, _FMUL, _FDIV})


def _class_table(members: frozenset) -> tuple[bool, ...]:
    """Dense bool table indexed by UopType value (hot-loop class tests)."""
    return tuple(v in members for v in range(N_UOP_TYPES))


_IS_ALU = _class_table(_ALU_CLASS)
_IS_FP = _class_table(_FP_CLASS)
_IS_MEM = _class_table(_MEM_CLASS)
_IS_INT_WRITER = _class_table(_INT_WRITERS)
_IS_FP_WRITER = _class_table(_FP_WRITERS)


def _zero() -> int:
    return 0


@dataclass
class CoreConfig:
    """Static core parameters (Table III defaults)."""

    freq_ghz: float = 2.0
    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    #: Frontend refill after a mispredicted branch resolves.
    redirect_penalty: int = 10
    #: Bubble when a taken branch misses the BTB.
    btb_miss_penalty: int = 2
    #: Decoded-uop buffer between fetch and dispatch.
    fetch_buffer: int = 16
    resources: ResourceConfig = field(default_factory=ResourceConfig)
    steering_enabled: bool = False
    max_cycles: int = 1 << 40


@dataclass
class ActivityCounts:
    """Per-unit activity over the measured window (feeds the power model)."""

    fetched: int = 0
    dispatched: int = 0
    issued: int = 0
    committed: int = 0
    int_reg_reads: int = 0
    int_reg_writes: int = 0
    fp_reg_reads: int = 0
    fp_reg_writes: int = 0
    bpred_lookups: int = 0
    alu_fast_ops: int = 0
    alu_slow_ops: int = 0
    muldiv_ops: int = 0
    fpu_ops: int = 0
    lsu_ops: int = 0
    loads: int = 0
    stores: int = 0
    il1_accesses: int = 0
    dl1_accesses: int = 0
    dl1_fast_hits: int = 0
    dl1_slow_accesses: int = 0
    dl1_line_moves: int = 0
    l2_accesses: int = 0
    l3_accesses: int = 0
    dram_accesses: int = 0
    #: Stall breakdown: cycles in which no op issued, by first cause.
    stall_frontend_cycles: int = 0
    stall_dep_cycles: int = 0
    stall_mem_cycles: int = 0
    stall_structural_cycles: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)

    def stall_breakdown(self, cycles: int) -> dict[str, float]:
        """Stall-cycle fractions of ``cycles`` (plus the busy remainder)."""
        if cycles <= 0:
            return {k: 0.0 for k in
                    ("frontend", "dep", "mem", "structural", "busy")}
        stalls = {
            "frontend": self.stall_frontend_cycles / cycles,
            "dep": self.stall_dep_cycles / cycles,
            "mem": self.stall_mem_cycles / cycles,
            "structural": self.stall_structural_cycles / cycles,
        }
        stalls["busy"] = max(0.0, 1.0 - sum(stalls.values()))
        return stalls


@dataclass
class CoreResult:
    """Outcome of one measured simulation window."""

    cycles: int
    committed: int
    freq_ghz: float
    activity: ActivityCounts
    branch_mispredict_rate: float
    dl1_hit_rate: float
    dl1_fast_hit_rate: float
    l2_hit_rate: float
    l3_hit_rate: float
    rob_peak: int
    iq_peak: int
    alu_fast_fraction: float
    #: Entries left in the ROB / issue queue / LSQ / rename register files
    #: when the run finished.  A correct run always drains to 0; anything
    #: else is caught by the end-of-run self-check
    #: (:mod:`repro.resilience.selfcheck`) as a corrupt result.
    undrained: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def time_s(self) -> float:
        return self.cycles / (self.freq_ghz * 1e9)


class OutOfOrderCore:
    """One out-of-order core bound to a memory hierarchy and unit pool."""

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        units: FunctionalUnitPool,
        name: str = "cpu.core0",
        tracer: "PipelineTracer | None" = None,
    ):
        self.config = config
        self.hierarchy = hierarchy
        self.units = units
        self.name = name
        self.tracer = tracer
        self.predictor = TournamentPredictor()
        self.btb = BranchTargetBuffer()
        self.ras = ReturnAddressStack()
        self.resources = CoreResources(config.resources)
        #: Per-run metrics registry (rebuilt by :meth:`run`).
        self.metrics: "MetricsRegistry | None" = None
        #: Idle cycles the event-driven fast path jumped over in the last
        #: run (and how many distinct jumps) -- observability only, never
        #: part of :class:`CoreResult`.
        self.skipped_cycles = 0
        self.skip_events = 0

    def _build_metrics(
        self, act: ActivityCounts, steering: "DualSpeedSteering | None"
    ) -> MetricsRegistry:
        """A probe-only registry over every counter this core touches.

        Probes read the live objects lazily, so registration costs nothing
        on the per-cycle path; ``snapshot()``/``delta()`` at the warm-up
        boundary replace the old hand-rolled snapshot dict.
        """
        reg = MetricsRegistry(self.name, enabled=True)
        for fname in act.as_dict():
            reg.probe(f"activity.{fname}", partial(getattr, act, fname))
        h = self.hierarchy
        h.il1.publish(reg, "il1")
        h.l2.publish(reg, "l2")
        h.l3.publish(reg, "l3")
        h.dl1.publish(reg, "dl1")
        reg.probe("dram.accesses", lambda: h.dram_accesses)
        predictor = self.predictor
        reg.probe("bpred.lookups", lambda: predictor.lookups)
        reg.probe("bpred.mispredictions", lambda: predictor.mispredictions)
        units = self.units
        reg.probe("alu.fast_ops", lambda: units.alu_fast_ops)
        reg.probe("alu.slow_ops", lambda: units.alu_slow_ops)
        reg.probe("muldiv.ops", lambda: units.muldiv_ops)
        reg.probe("fpu.ops", lambda: units.fpu_ops)
        reg.probe("lsu.ops", lambda: units.lsu_ops)
        if steering is not None:
            steering.publish(reg, "steer")
        else:
            # Steering disabled: the counters would read 0 anyway; constant
            # probes keep the metric namespace stable across configs.
            reg.probe("steer.examined", _zero)
            reg.probe("steer.fast_alu_dispatches", _zero)
            reg.probe("steer.slow_alu_dispatches", _zero)
        reg.probe("engine.skipped_cycles", partial(getattr, self, "skipped_cycles"))
        reg.probe("engine.skip_events", partial(getattr, self, "skip_events"))
        return reg

    def run(self, trace: Trace, warmup: int = 0) -> CoreResult:
        """Execute ``trace`` and return statistics for the post-warmup part.

        ``warmup`` commits are executed first to warm caches and predictor
        state; every counter is then snapshotted and the reported result
        covers only the remaining instructions.

        Two loop bodies implement identical semantics (held together by
        the seed-pinned equivalence suite): the event-driven fast path and
        the per-cycle walk.  Tracer-attached runs take the fast path too
        -- skipped idle stretches surface as synthetic ``skip`` events
        carrying the jumped cycle count and stall reason, so the trace
        stays a faithful (if compressed) account of the same cycles.
        Only the ``REPRO_NO_CYCLE_SKIP`` hatch pins the seed engine.
        """
        if warmup >= len(trace):
            raise ValueError("warmup must be smaller than the trace")
        if not cycle_skip_disabled():
            return self._run_fast(trace, warmup)
        return self._run_legacy(trace, warmup)

    def _run_fast(self, trace: Trace, warmup: int) -> CoreResult:
        """Event-driven fast path: wakeup events instead of per-cycle scans.

        Three structural changes over :meth:`_run_legacy`, none visible in
        the results (DESIGN.md "Cycle-skip invariants" has the proofs):

        * blocked issue-queue entries park on a completion-time heap (or on
          a per-producer waiter list while their producer has not itself
          issued) and are re-examined only when the blocking event arrives,
          instead of being rescanned every cycle;
        * after a scan in which nothing issued, the issue stage sleeps
          until the earliest parked wake or functional-unit release,
          replaying the cached stall classification;
        * a cycle in which commit, issue, dispatch, and fetch all made zero
          progress jumps straight to the next wakeup event, charging the
          jumped cycles to the same stall bucket.

        An attached :class:`PipelineTracer` observes this path directly:
        per-event sites match the legacy walk's, and each idle-cycle jump
        adds one synthetic ``skip`` event (``dur`` = cycles jumped, with
        the replayed stall reason) in place of that many per-cycle stall
        events.  Results remain cycle-exact either way -- the equivalence
        suite diffs trace-on fast runs against the pinned seed engine.
        """
        n = len(trace)
        cfg = self.config
        # Tracing is opt-in per run; a None local keeps the guard to a
        # single truth test per event site (zero-overhead-when-off).
        tracer = self.tracer
        # The SoA decode (hot trace fields unboxed to plain lists, plus
        # precomputed producer indices and fetch-line flags) is memoised
        # on the trace and shared by every run/config/core touching it.
        soa = decode_trace(trace)
        op_l = soa.op
        prod1_l = soa.prod1
        prod2_l = soa.prod2
        addr_l = soa.addr
        pc_l = soa.pc
        taken_l = soa.taken
        new_line_l = soa.new_line

        steer_on = cfg.steering_enabled
        steering = (
            DualSpeedSteering(trace, window=cfg.issue_width, enabled=True)
            if steer_on
            else None
        )

        act = ActivityCounts()
        self.skipped_cycles = 0
        self.skip_events = 0
        metrics = self._build_metrics(act, steering)
        self.metrics = metrics
        if obs.enabled():
            get_registry().mount(self.name, metrics)

        ready = [_INF] * n  # completion cycle per trace entry
        rob: deque[int] = deque()
        prefer_fast = [False] * n if steer_on else ()

        # Issue-queue wakeup structures.  ``eligible`` (age-sorted) holds
        # entries not known to be source-blocked; ``parked`` is a min-heap
        # of (wake cycle, idx) for entries whose blocking producer has a
        # known completion time; ``waiters`` maps a not-yet-issued producer
        # to the entries blocked on it (they move to ``parked`` the moment
        # it issues).  ``iq_order`` preserves dispatch order for the stall
        # classifier and is compacted lazily against ``left_iq``.
        eligible: list[int] = []
        parked: list[tuple[int, int]] = []
        waiters: dict[int, list[int]] = {}
        iq_order: deque[int] = deque()
        left_iq = bytearray(n)
        iq_len = 0

        fetch_q: deque[int] = deque()  # decoded uops awaiting dispatch
        next_fetch = 0
        fetch_blocked_until = 0
        pending_redirect = -1  # trace idx of an unresolved mispredicted branch
        #: Last trace index whose IL1 line access already happened --
        #: fetch is strictly in-order, so the precomputed ``new_line``
        #: flag plus this revisit guard (an IL1 miss breaks *after* the
        #: access) replaces the per-uop line comparison.
        line_done = -1

        cycle = 0
        committed = 0
        resources = self.resources
        units = self.units
        hierarchy = self.hierarchy
        predictor = self.predictor
        btb = self.btb
        ras = self.ras

        measure_start_cycle = 0
        snapshot: dict[str, float] | None = None
        if warmup == 0:
            snapshot = metrics.snapshot()

        issue_width = cfg.issue_width
        dispatch_width = cfg.dispatch_width
        commit_width = cfg.commit_width
        fetch_width = cfg.fetch_width
        fetch_buffer = cfg.fetch_buffer
        redirect_penalty = cfg.redirect_penalty
        btb_miss_penalty = cfg.btb_miss_penalty
        max_cycles = cfg.max_cycles
        is_alu_t = _IS_ALU
        is_fp_t = _IS_FP
        is_mem_t = _IS_MEM
        is_intw_t = _IS_INT_WRITER
        is_fpw_t = _IS_FP_WRITER
        can_dispatch = resources.can_dispatch
        do_dispatch = resources.dispatch
        do_issue = resources.issue
        do_commit = resources.commit
        issue_alu = units.issue_alu
        issue_lsu = units.issue_lsu
        issue_fpu = units.issue_fpu
        issue_muldiv = units.issue_muldiv
        data_access = hierarchy.data_access
        il1_rt = hierarchy.latencies.il1_rt
        fetch_access = hierarchy.fetch
        predictor_update = predictor.update
        btb_update = btb.lookup_and_update
        ras_push = ras.push
        ras_pop = ras.pop
        heappush_ = heappush
        heappop_ = heappop
        insort_ = insort

        iq_sleep_until = 0
        sleep_kind = 0

        while committed < n:
            # ---- commit ----
            ncommit = 0
            while rob and ncommit < commit_width:
                head = rob[0]
                if ready[head] >= cycle:
                    break
                rob.popleft()
                hop = op_l[head]
                do_commit(is_mem_t[hop], is_intw_t[hop], is_fpw_t[hop])
                committed += 1
                ncommit += 1
                if tracer is not None:
                    tracer.emit(cycle, "commit", STAGE_COMMIT, idx=head, op=hop)
                if committed == warmup:
                    act.committed = committed  # flushed from the local
                    measure_start_cycle = cycle
                    snapshot = metrics.snapshot()

            # ---- issue ----
            nissued = 0
            #: Stall bucket charged this cycle (0 none, 1 frontend, 2 dep,
            #: 3 mem, 4 structural); the cycle-skip path below replays it
            #: for every jumped cycle, keeping the breakdown cycle-exact.
            stall_kind = 0
            if iq_len:
                if cycle < iq_sleep_until:
                    # Asleep: the previous no-issue scan proved nothing can
                    # issue before iq_sleep_until; replay its stall bucket.
                    stall_kind = sleep_kind
                    if stall_kind == 3:
                        act.stall_mem_cycles += 1
                    elif stall_kind == 2:
                        act.stall_dep_cycles += 1
                    else:
                        act.stall_structural_cycles += 1
                    if tracer is not None:
                        tracer.emit(
                            cycle, "stall", STAGE_STALL,
                            reason=_STALL_REASONS[stall_kind],
                        )
                else:
                    while parked and parked[0][0] <= cycle:
                        insort_(eligible, heappop_(parked)[1])
                    # Lazily materialised survivor list, as in the legacy
                    # scan: cycles in which nothing moves keep ``eligible``
                    # untouched.
                    survivors: "list[int] | None" = None
                    for pos, idx in enumerate(eligible):
                        if nissued >= issue_width:
                            if survivors is None:
                                survivors = eligible[:pos]
                            survivors.extend(eligible[pos:])
                            break
                        p = prod1_l[idx]
                        if p >= 0:
                            w = ready[p]
                            if w > cycle:
                                if survivors is None:
                                    survivors = eligible[:pos]
                                if w < _INF:
                                    heappush_(parked, (w, idx))
                                else:
                                    wl = waiters.get(p)
                                    if wl is None:
                                        waiters[p] = [idx]
                                    else:
                                        wl.append(idx)
                                continue
                        p = prod2_l[idx]
                        if p >= 0:
                            w = ready[p]
                            if w > cycle:
                                if survivors is None:
                                    survivors = eligible[:pos]
                                if w < _INF:
                                    heappush_(parked, (w, idx))
                                else:
                                    wl = waiters.get(p)
                                    if wl is None:
                                        waiters[p] = [idx]
                                    else:
                                        wl.append(idx)
                                continue
                        o = op_l[idx]
                        if is_alu_t[o]:
                            res = issue_alu(
                                cycle, o, prefer_fast[idx] if steer_on else False
                            )
                            if res is None:
                                if survivors is not None:
                                    survivors.append(idx)
                                continue
                            latency = res[0]
                        elif is_mem_t[o]:
                            agu = issue_lsu(cycle)
                            if agu is None:
                                if survivors is not None:
                                    survivors.append(idx)
                                continue
                            if o == _LOAD:
                                access = data_access(addr_l[idx], False)
                                latency = agu + access.latency
                                if tracer is not None and access.level not in (
                                    "dl1", "dl1-fast"
                                ):
                                    tracer.emit(
                                        cycle, "dl1_miss", STAGE_MEM,
                                        idx=idx, level=access.level,
                                    )
                            else:
                                # Stores drain through the store buffer;
                                # they do not stall commit beyond address
                                # generation.
                                data_access(addr_l[idx], True)
                                latency = agu
                        elif is_fp_t[o]:
                            fl = issue_fpu(cycle, o)
                            if fl is None:
                                if survivors is not None:
                                    survivors.append(idx)
                                continue
                            latency = fl
                        else:  # _MULDIV_CLASS
                            ml = issue_muldiv(cycle, o)
                            if ml is None:
                                if survivors is not None:
                                    survivors.append(idx)
                                continue
                            latency = ml
                        completion = cycle + latency
                        ready[idx] = completion
                        do_issue()
                        nissued += 1
                        if tracer is not None:
                            tracer.emit(
                                cycle, _TRACE_NAMES[o], STAGE_ISSUE,
                                dur=latency, idx=idx,
                            )
                        iq_len -= 1
                        left_iq[idx] = 1
                        if survivors is None:
                            survivors = eligible[:pos]
                        wl = waiters.pop(idx, None)
                        if wl is not None:
                            for widx in wl:
                                heappush_(parked, (completion, widx))
                        if idx == pending_redirect:
                            blocked = completion + redirect_penalty
                            if blocked > fetch_blocked_until:
                                fetch_blocked_until = blocked
                            pending_redirect = -1
                    if survivors is not None:
                        eligible = survivors
                    act.issued += nissued
                    if nissued == 0:
                        # Classify by first cause exactly as the legacy
                        # walk does: the oldest still-queued op wins.
                        while left_iq[iq_order[0]]:
                            iq_order.popleft()
                        oldest = iq_order[0]
                        p1 = prod1_l[oldest]
                        p2 = prod2_l[oldest]
                        if p1 >= 0 and ready[p1] > cycle:
                            producer = p1
                        elif p2 >= 0 and ready[p2] > cycle:
                            producer = p2
                        else:
                            producer = -1
                        if producer >= 0:
                            if op_l[producer] == _LOAD:
                                act.stall_mem_cycles += 1
                                stall_kind = 3
                            else:
                                act.stall_dep_cycles += 1
                                stall_kind = 2
                        else:
                            act.stall_structural_cycles += 1
                            stall_kind = 4
                        if tracer is not None:
                            tracer.emit(
                                cycle, "stall", STAGE_STALL,
                                reason=_STALL_REASONS[stall_kind],
                            )
                        # After a no-issue scan every source-blocked entry
                        # sits in ``parked`` (or transitively behind one
                        # that does), so the earliest possible issue is the
                        # heap top; surviving ``eligible`` entries are
                        # port-blocked and wake at the next unit release.
                        wake_i = parked[0][0] if parked else _INF
                        if eligible:
                            w = units.next_release(cycle)
                            if w and w < wake_i:
                                wake_i = w
                        if wake_i < _INF:
                            iq_sleep_until = wake_i
                            sleep_kind = stall_kind
            elif rob or fetch_q or next_fetch < n:
                act.stall_frontend_cycles += 1
                stall_kind = 1
                if tracer is not None:
                    tracer.emit(cycle, "stall", STAGE_STALL, reason="frontend")

            # ---- dispatch ----
            ndisp = 0
            while fetch_q and ndisp < dispatch_width:
                idx = fetch_q[0]
                o = op_l[idx]
                is_mem = is_mem_t[o]
                w_int = is_intw_t[o]
                w_fp = is_fpw_t[o]
                if not can_dispatch(is_mem, w_int, w_fp):
                    break
                fetch_q.popleft()
                do_dispatch(is_mem, w_int, w_fp)
                if steer_on:
                    prefer_fast[idx] = steering.prefer_fast(idx)
                if tracer is not None and is_alu_t[o]:
                    tracer.emit(
                        cycle,
                        "steer_fast"
                        if (steer_on and prefer_fast[idx])
                        else "steer_slow",
                        STAGE_STEER,
                        idx=idx,
                    )
                rob.append(idx)
                eligible.append(idx)
                iq_order.append(idx)
                iq_len += 1
                ndisp += 1
                if o == _LOAD:
                    act.loads += 1
                elif o == _STORE:
                    act.stores += 1
                if prod1_l[idx] >= 0:
                    if is_fp_t[o]:
                        act.fp_reg_reads += 1
                    else:
                        act.int_reg_reads += 1
                if prod2_l[idx] >= 0:
                    if is_fp_t[o]:
                        act.fp_reg_reads += 1
                    else:
                        act.int_reg_reads += 1
                if w_int:
                    act.int_reg_writes += 1
                elif w_fp:
                    act.fp_reg_writes += 1
            act.dispatched += ndisp
            if ndisp:
                iq_sleep_until = 0  # fresh entries may issue next cycle

            # ---- fetch ----
            nfetch = 0
            il1_blocked = False
            if (
                next_fetch < n
                and pending_redirect < 0
                and cycle >= fetch_blocked_until
            ):
                while (
                    nfetch < fetch_width
                    and len(fetch_q) < fetch_buffer
                    and next_fetch < n
                ):
                    idx = next_fetch
                    pc = pc_l[idx]
                    if new_line_l[idx] and idx != line_done:
                        line_done = idx
                        access = fetch_access(pc)
                        act.il1_accesses += 1
                        if access.latency > il1_rt:
                            fetch_blocked_until = cycle + access.latency
                            il1_blocked = True
                            if tracer is not None:
                                tracer.emit(
                                    cycle, "il1_miss", STAGE_FETCH,
                                    dur=access.latency, level=access.level,
                                )
                            break
                    o = op_l[idx]
                    mispredicted = False
                    if o == _BRANCH:
                        act.bpred_lookups += 1
                        outcome = taken_l[idx]
                        mispredicted = predictor_update(pc, outcome)
                        if outcome and not btb_update(pc):
                            blocked = cycle + btb_miss_penalty
                            if blocked > fetch_blocked_until:
                                fetch_blocked_until = blocked
                    elif o == _CALL:
                        ras_push(pc + 4)
                        btb_update(pc)
                    elif o == _RET:
                        # The trace encodes the architected return target in
                        # addr; RAS mispredicts on overflow-induced mismatch.
                        mispredicted = ras_pop(addr_l[idx])
                    fetch_q.append(idx)
                    next_fetch += 1
                    nfetch += 1
                    if mispredicted:
                        pending_redirect = idx
                        if tracer is not None:
                            tracer.emit(cycle, "mispredict", STAGE_FETCH, idx=idx)
                        break
                act.fetched += nfetch

            # ---- event-driven idle-cycle skip ----
            # A cycle in which commit, issue, dispatch, and fetch all made
            # zero progress mutates nothing but one stall counter, so every
            # following cycle is identical until the next wakeup event.
            # Jump straight there and charge the same stall bucket for the
            # cycles jumped over; the wake set covers every comparison the
            # stages test (see DESIGN.md "Cycle-skip invariants").
            if (
                ncommit == 0
                and nissued == 0
                and ndisp == 0
                and nfetch == 0
                and not il1_blocked
                and (not iq_len or iq_sleep_until > cycle)
            ):
                wake = _INF
                if rob:
                    w = ready[rob[0]] + 1
                    if w < wake:
                        wake = w
                # The no-issue scan above already reduced the issue queue's
                # wake set to iq_sleep_until (producer completions and unit
                # port releases).
                if iq_len and iq_sleep_until < wake:
                    wake = iq_sleep_until
                if (
                    next_fetch < n
                    and cycle < fetch_blocked_until < wake
                ):
                    wake = fetch_blocked_until
                extra = wake - cycle - 1
                if extra > 0 and wake < _INF:
                    self.skipped_cycles += extra
                    self.skip_events += 1
                    if tracer is not None:
                        # One synthetic event stands in for the per-cycle
                        # stall events the legacy walk would have emitted
                        # across the jumped stretch.
                        tracer.emit(
                            cycle, "skip", STAGE_STALL,
                            dur=extra, reason=_STALL_REASONS[stall_kind],
                        )
                    if stall_kind == 3:
                        act.stall_mem_cycles += extra
                    elif stall_kind == 2:
                        act.stall_dep_cycles += extra
                    elif stall_kind == 1:
                        act.stall_frontend_cycles += extra
                    elif stall_kind == 4:
                        act.stall_structural_cycles += extra
                    cycle = wake - 1  # the increment below lands on wake

            cycle += 1
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"simulation exceeded max_cycles={max_cycles} "
                    f"(committed {committed}/{n})"
                )

        if snapshot is None:
            raise RuntimeError("warmup never completed")
        act.committed = committed  # flushed from the local (see commit loop)
        undrained = (
            len(rob)
            + iq_len
            + len(fetch_q)
            + resources.rob_used
            + resources.iq_used
            + resources.lsq_used
            + resources.int_regs_used
            + resources.fp_regs_used
        )
        return self._finalize(
            metrics.delta(snapshot),
            cycle - measure_start_cycle,
            n - warmup,
            act,
            undrained,
        )

    def _run_legacy(self, trace: Trace, warmup: int) -> CoreResult:
        """The reference per-cycle walk: all four stages, every cycle.

        Serves the ``REPRO_NO_CYCLE_SKIP`` escape hatch (tracer-attached
        runs ride the fast path since the skip stretches became synthetic
        ``skip`` events).  Under the hatch the seed engine is pinned
        wholesale -- full per-cycle walk *and* boxed numpy scalar indexing
        -- so the benchmark harness measures an honest before/after
        ratio; tracer runs still unbox because trace events must carry
        plain ints.
        """
        n = len(trace)
        cfg = self.config
        # Tracing is opt-in per run; a None local keeps the guard to a
        # single truth test per event site (zero-overhead-when-off).
        tracer = self.tracer
        if tracer is None:
            op_l = trace.op
            src1_l = trace.src1_dist
            src2_l = trace.src2_dist
            addr_l = trace.addr
            pc_l = trace.pc
            taken_l = trace.taken
        else:
            op_l = trace.op.tolist()
            src1_l = trace.src1_dist.tolist()
            src2_l = trace.src2_dist.tolist()
            addr_l = trace.addr.tolist()
            pc_l = trace.pc.tolist()
            taken_l = trace.taken.tolist()

        steering = DualSpeedSteering(
            trace, window=cfg.issue_width, enabled=cfg.steering_enabled
        )

        act = ActivityCounts()
        self.skipped_cycles = 0
        self.skip_events = 0
        metrics = self._build_metrics(act, steering)
        self.metrics = metrics
        if obs.enabled():
            get_registry().mount(self.name, metrics)

        ready = [_INF] * n  # completion cycle per trace entry
        rob: deque[int] = deque()
        iq: list[int] = []
        prefer_fast = [False] * n

        fetch_q: deque[int] = deque()  # decoded uops awaiting dispatch
        next_fetch = 0
        fetch_blocked_until = 0
        pending_redirect = -1  # trace idx of an unresolved mispredicted branch
        last_fetch_line = -1

        cycle = 0
        committed = 0
        resources = self.resources
        units = self.units
        hierarchy = self.hierarchy
        predictor = self.predictor
        btb = self.btb
        ras = self.ras

        measure_start_cycle = 0
        snapshot: dict[str, float] | None = None
        if warmup == 0:
            snapshot = metrics.snapshot()

        issue_width = cfg.issue_width
        dispatch_width = cfg.dispatch_width
        commit_width = cfg.commit_width
        fetch_width = cfg.fetch_width
        fetch_buffer = cfg.fetch_buffer
        max_cycles = cfg.max_cycles

        while committed < n:
            # ---- commit ----
            ncommit = 0
            while rob and ncommit < commit_width:
                head = rob[0]
                if ready[head] >= cycle:
                    break
                rob.popleft()
                hop = int(op_l[head])
                resources.commit(
                    hop in _MEM_CLASS, hop in _INT_WRITERS, hop in _FP_WRITERS
                )
                committed += 1
                ncommit += 1
                act.committed += 1
                if tracer is not None:
                    tracer.emit(cycle, "commit", STAGE_COMMIT, idx=head, op=hop)
                if committed == warmup:
                    measure_start_cycle = cycle
                    snapshot = metrics.snapshot()

            # ---- issue ----
            if iq:
                nissued = 0
                still_waiting: list[int] = []
                for idx in iq:
                    if nissued >= issue_width:
                        still_waiting.append(idx)
                        continue
                    d1 = src1_l[idx]
                    if d1 and ready[idx - d1] > cycle:
                        still_waiting.append(idx)
                        continue
                    d2 = src2_l[idx]
                    if d2 and ready[idx - d2] > cycle:
                        still_waiting.append(idx)
                        continue
                    o = int(op_l[idx])
                    if o in _ALU_CLASS:
                        res = units.issue_alu(cycle, o, prefer_fast[idx])
                        if res is None:
                            still_waiting.append(idx)
                            continue
                        latency = res[0]
                    elif o in _MEM_CLASS:
                        agu = units.issue_lsu(cycle)
                        if agu is None:
                            still_waiting.append(idx)
                            continue
                        access = hierarchy.data_access(int(addr_l[idx]), o == _STORE)
                        if o == _LOAD:
                            latency = agu + access.latency
                        else:
                            # Stores drain through the store buffer; they do
                            # not stall commit beyond address generation.
                            latency = agu
                        if tracer is not None and access.level not in (
                            "dl1", "dl1-fast"
                        ):
                            tracer.emit(
                                cycle, "dl1_miss", STAGE_MEM,
                                idx=idx, level=access.level,
                            )
                    elif o in _FP_CLASS:
                        fl = units.issue_fpu(cycle, o)
                        if fl is None:
                            still_waiting.append(idx)
                            continue
                        latency = fl
                    else:  # _MULDIV_CLASS
                        ml = units.issue_muldiv(cycle, o)
                        if ml is None:
                            still_waiting.append(idx)
                            continue
                        latency = ml
                    completion = cycle + latency
                    ready[idx] = completion
                    resources.issue()
                    nissued += 1
                    if tracer is not None:
                        tracer.emit(
                            cycle, _TRACE_NAMES[o], STAGE_ISSUE,
                            dur=latency, idx=idx,
                        )
                    if idx == pending_redirect:
                        blocked = completion + cfg.redirect_penalty
                        if blocked > fetch_blocked_until:
                            fetch_blocked_until = blocked
                        pending_redirect = -1
                iq = still_waiting
                act.issued += nissued
                if nissued == 0:
                    # Nothing issued: classify the cycle by its first cause.
                    # The oldest blocked op wins; re-examining it here keeps
                    # the per-op issue path above free of any bookkeeping.
                    # An in-flight-load producer counts as a memory stall,
                    # any other producer as a dependency stall; an op held
                    # only by a busy functional unit is structural.
                    oldest = iq[0]
                    d1 = src1_l[oldest]
                    d2 = src2_l[oldest]
                    if d1 and ready[oldest - d1] > cycle:
                        producer = oldest - d1
                    elif d2 and ready[oldest - d2] > cycle:
                        producer = oldest - d2
                    else:
                        producer = -1
                    if producer >= 0:
                        if int(op_l[producer]) == _LOAD:
                            act.stall_mem_cycles += 1
                            reason = "mem"
                        else:
                            act.stall_dep_cycles += 1
                            reason = "dep"
                    else:
                        act.stall_structural_cycles += 1
                        reason = "structural"
                    if tracer is not None:
                        tracer.emit(cycle, "stall", STAGE_STALL, reason=reason)
            elif rob or fetch_q or next_fetch < n:
                act.stall_frontend_cycles += 1
                if tracer is not None:
                    tracer.emit(cycle, "stall", STAGE_STALL, reason="frontend")

            # ---- dispatch ----
            ndisp = 0
            while fetch_q and ndisp < dispatch_width:
                idx = fetch_q[0]
                o = int(op_l[idx])
                is_mem = o in _MEM_CLASS
                w_int = o in _INT_WRITERS
                w_fp = o in _FP_WRITERS
                if not resources.can_dispatch(is_mem, w_int, w_fp):
                    break
                fetch_q.popleft()
                resources.dispatch(is_mem, w_int, w_fp)
                prefer_fast[idx] = steering.prefer_fast(idx)
                if tracer is not None and o in _ALU_CLASS:
                    tracer.emit(
                        cycle,
                        "steer_fast" if prefer_fast[idx] else "steer_slow",
                        STAGE_STEER,
                        idx=idx,
                    )
                rob.append(idx)
                iq.append(idx)
                ndisp += 1
                if o == _LOAD:
                    act.loads += 1
                elif o == _STORE:
                    act.stores += 1
                if src1_l[idx]:
                    if o in _FP_CLASS:
                        act.fp_reg_reads += 1
                    else:
                        act.int_reg_reads += 1
                if src2_l[idx]:
                    if o in _FP_CLASS:
                        act.fp_reg_reads += 1
                    else:
                        act.int_reg_reads += 1
                if w_int:
                    act.int_reg_writes += 1
                elif w_fp:
                    act.fp_reg_writes += 1
            act.dispatched += ndisp

            # ---- fetch ----
            if (
                next_fetch < n
                and pending_redirect < 0
                and cycle >= fetch_blocked_until
            ):
                nfetch = 0
                while (
                    nfetch < fetch_width
                    and len(fetch_q) < fetch_buffer
                    and next_fetch < n
                ):
                    idx = next_fetch
                    pc = int(pc_l[idx])
                    line = pc >> 6
                    if line != last_fetch_line:
                        last_fetch_line = line
                        access = hierarchy.fetch(pc)
                        act.il1_accesses += 1
                        if access.latency > hierarchy.latencies.il1_rt:
                            fetch_blocked_until = cycle + access.latency
                            if tracer is not None:
                                tracer.emit(
                                    cycle, "il1_miss", STAGE_FETCH,
                                    dur=access.latency, level=access.level,
                                )
                            break
                    o = int(op_l[idx])
                    mispredicted = False
                    if o == _BRANCH:
                        act.bpred_lookups += 1
                        outcome = bool(taken_l[idx])
                        mispredicted = predictor.update(pc, outcome)
                        if outcome and not btb.lookup_and_update(pc):
                            fetch_blocked_until = max(
                                fetch_blocked_until, cycle + cfg.btb_miss_penalty
                            )
                    elif o == _CALL:
                        ras.push(pc + 4)
                        btb.lookup_and_update(pc)
                    elif o == _RET:
                        # The trace encodes the architected return target in
                        # addr; RAS mispredicts on overflow-induced mismatch.
                        mispredicted = ras.pop(int(addr_l[idx]))
                    fetch_q.append(idx)
                    next_fetch += 1
                    nfetch += 1
                    act.fetched += 1
                    if mispredicted:
                        pending_redirect = idx
                        if tracer is not None:
                            tracer.emit(cycle, "mispredict", STAGE_FETCH, idx=idx)
                        break

            cycle += 1
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"simulation exceeded max_cycles={max_cycles} "
                    f"(committed {committed}/{n})"
                )

        if snapshot is None:
            raise RuntimeError("warmup never completed")
        undrained = (
            len(rob)
            + len(iq)
            + len(fetch_q)
            + resources.rob_used
            + resources.iq_used
            + resources.lsq_used
            + resources.int_regs_used
            + resources.fp_regs_used
        )
        return self._finalize(
            metrics.delta(snapshot),
            cycle - measure_start_cycle,
            n - warmup,
            act,
            undrained,
        )

    # ------------------------------------------------------------------
    def _finalize(
        self,
        delta: dict[str, float],
        cycles: int,
        committed: int,
        act: ActivityCounts,
        undrained: int = 0,
    ) -> CoreResult:
        """Turn a registry delta (measured window) into a CoreResult."""
        d = delta.get

        # Rebase cumulative activity counters to the measurement window.
        for name in act.as_dict():
            setattr(act, name, int(d(f"activity.{name}", 0)))

        bp_lookups = d("bpred.lookups", 0)
        bp_misses = d("bpred.mispredictions", 0)
        act.bpred_lookups = int(bp_lookups)
        act.alu_fast_ops = int(d("alu.fast_ops", 0))
        act.alu_slow_ops = int(d("alu.slow_ops", 0))
        act.muldiv_ops = int(d("muldiv.ops", 0))
        act.fpu_ops = int(d("fpu.ops", 0))
        act.lsu_ops = int(d("lsu.ops", 0))
        act.l2_accesses = int(d("l2.accesses", 0))
        act.l3_accesses = int(d("l3.accesses", 0))
        act.dram_accesses = int(d("dram.accesses", 0))
        l2_acc = d("l2.accesses", 0)
        l2_hit = d("l2.hits", 0)
        l3_acc = d("l3.accesses", 0)
        l3_hit = d("l3.hits", 0)

        if self.hierarchy.has_asymmetric_dl1:
            fast_hits = d("dl1.fast_way_hits", 0)
            slow_hits = d("dl1.slow_way_hits", 0)
            misses = d("dl1.misses", 0)
            accesses = fast_hits + slow_hits + misses
            act.dl1_accesses = int(accesses)
            act.dl1_fast_hits = int(fast_hits)
            act.dl1_slow_accesses = int(slow_hits + misses)
            act.dl1_line_moves = int(d("dl1.line_moves", 0))
            dl1_hit_rate = (
                (fast_hits + slow_hits) / accesses if accesses else 1.0
            )
            fast_rate = fast_hits / accesses if accesses else 0.0
        else:
            accesses = d("dl1.accesses", 0)
            hits = d("dl1.hits", 0)
            act.dl1_accesses = int(accesses)
            dl1_hit_rate = hits / accesses if accesses else 1.0
            fast_rate = 0.0

        total_alu = act.alu_fast_ops + act.alu_slow_ops
        return CoreResult(
            cycles=cycles,
            committed=committed,
            freq_ghz=self.config.freq_ghz,
            activity=act,
            branch_mispredict_rate=(bp_misses / bp_lookups) if bp_lookups else 0.0,
            dl1_hit_rate=dl1_hit_rate,
            dl1_fast_hit_rate=fast_rate,
            l2_hit_rate=(l2_hit / l2_acc) if l2_acc else 1.0,
            l3_hit_rate=(l3_hit / l3_acc) if l3_acc else 1.0,
            rob_peak=self.resources.rob_peak,
            iq_peak=self.resources.iq_peak,
            alu_fast_fraction=(act.alu_fast_ops / total_alu) if total_alu else 0.0,
            undrained=undrained,
        )
