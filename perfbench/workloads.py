"""The three benchmark workloads.

Each workload has one untimed :meth:`~Workload.prepare` (reference results
for the correctness check), and then repeats passes; a pass is
:meth:`~Workload.setup` (timed into ``setup_s``), :meth:`~Workload.run_pass`
(the timed phase, ``wall_s``) and :meth:`~Workload.teardown` (untimed).

* ``paper-serial``: every exhibit of ``ALL_EXHIBITS`` on a fresh serial
  in-process ``SweepRunner`` with a cold trace cache, rendered by
  ``full_report``.  Checked against committed report digests.
* ``sweep-parallel``: the Figure 7/13 CPU sweeps and the Figure 10 GPU
  sweep with ``workers=2`` process isolation, a checkpoint and a
  ``ResultStore`` in a fresh directory.  Checked against the serial
  in-process result mapping.
* ``serve-http``: a closed loop of 2 ``ServeClient`` threads against an
  in-process ``HttpFrontDoor`` over a 2-dispatcher ``SimService`` (thread
  isolation) whose store setup pre-populates.  Checked job by job against
  direct ``runner.run_cell`` results.

``paper_err`` is measured once per run, untimed, on the fixed
:data:`~perfbench.inputs.PAPER_ERR_INPUTS` (:func:`reference_paper_error`).
"""

from __future__ import annotations

import asyncio
import hashlib
import inspect
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.configs import (
    CPU_MAIN_CONFIGS,
    CPU_SENSITIVITY_CONFIGS,
    GPU_MAIN_CONFIGS,
)
from repro.experiments import figures
from repro.experiments import report as report_mod
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.resilience.checkpoint import encode_cpu_result, encode_gpu_result
from repro.serve.client import ClientConfig, ServeClient, ServeError
from repro.serve.http import HttpConfig, HttpFrontDoor
from repro.serve.service import TERMINAL_STATES, ServiceConfig, SimService
from repro.store.cas import ResultStore
from repro.workloads.trace_cache import shared_cache

from perfbench import inputs as inputs_mod
from perfbench.stats import paper_error

#: Worker processes / client threads: the machine's 2 cores.
PARALLELISM = 2
#: Fixed client poll interval of the serve loop (seconds).
SERVE_POLL_S = 0.005

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass
class PassResult:
    """What one timed pass delivered."""

    #: The timed phase, ``time.perf_counter_ns`` at its start and end.
    window_ns: "tuple[int, int]"
    #: Measured-window instructions the engines executed (cache and store
    #: hits excluded).
    instructions: int
    #: Distinct cell results delivered (executed or read from the store).
    cells: int
    #: Cell requests completed (sweep lookups or served jobs).
    jobs: int
    #: Per request, seconds from the pass start (sweeps: when the cell's
    #: result became available) or from submit (serve: to terminal state).
    latencies_s: "list[float]"
    #: Gaps, sheds, non-2xx answers and wrong results.
    failed: int
    digest: str
    #: Program-reported counts for the per-layer ledger.
    counters: "dict[str, float]" = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return (self.window_ns[1] - self.window_ns[0]) / 1e9


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encode(result) -> dict:
    if hasattr(result, "kernel"):
        return encode_gpu_result(result)
    return encode_cpu_result(result)


def mapping_digest(mapping: dict) -> str:
    """Digest of a nested {name: {workload: result-or-None}} sweep mapping."""
    return _digest({
        sweep: {
            config: {w: (_encode(r) if r is not None else None) for w, r in row.items()}
            for config, row in rows.items()
        }
        for sweep, rows in mapping.items()
    })


def _trace_cache_counts() -> "dict[str, float]":
    stats = shared_cache().stats()
    return {"trace_cache_hits": stats["hits"], "trace_cache_misses": stats["misses"]}


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


class Workload:
    name = ""
    #: Latency samples a run must collect before it may stop.
    min_samples = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """One-time untimed work (reference results)."""

    def setup(self, index: int):
        raise NotImplementedError

    def run_pass(self, state, index: int) -> PassResult:
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release per-pass state (untimed)."""

    def check(self, passes: "list[PassResult]") -> "list[str]":
        """Cross-pass correctness problems (empty when correct)."""
        digests = {p.digest for p in passes}
        if len(digests) > 1:
            return [f"{len(digests)} distinct result digests across passes"]
        return []


def _settings(inp) -> SweepSettings:
    return SweepSettings(
        instructions=inp.instructions, apps=list(inp.apps), kernels=list(inp.kernels)
    )


def _all_exhibits(runner: SweepRunner) -> list:
    return [
        fn(runner) if "runner" in inspect.signature(fn).parameters else fn()
        for fn in figures.ALL_EXHIBITS.values()
    ]


def reference_paper_error() -> float:
    """``paper_err``: every exhibit on the fixed reference inputs."""
    shared_cache().clear()
    runner = SweepRunner(_settings(inputs_mod.PAPER_ERR_INPUTS))
    return paper_error(_all_exhibits(runner))[0]


def _progress_probe(runner: SweepRunner, start_ns: int, latencies: list) -> dict:
    """Count lookups and record when each executed cell completed."""
    tally = {"jobs": 0}

    def on_progress(event: dict) -> None:
        if "event" in event:  # batch/retry/failure notices, not lookups
            return
        tally["jobs"] += 1
        if not event["cached"]:
            latencies.append((time.perf_counter_ns() - start_ns) / 1e9)

    runner.telemetry.on_progress(on_progress)
    return tally


# ---------------------------------------------------------------------
# paper-serial
# ---------------------------------------------------------------------

class PaperSerial(Workload):
    name = "paper-serial"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.inputs = inputs_mod.sweep_inputs(self.name, seed)

    def setup(self, index: int) -> SweepRunner:
        shared_cache().clear()
        return SweepRunner(_settings(self.inputs))

    def run_pass(self, runner: SweepRunner, index: int) -> PassResult:
        latencies: "list[float]" = []
        before = _trace_cache_counts()
        start = time.perf_counter_ns()
        tally = _progress_probe(runner, start, latencies)
        text = report_mod.full_report(_all_exhibits(runner))
        end = time.perf_counter_ns()
        return PassResult(
            window_ns=(start, end),
            instructions=runner.telemetry.total_instructions,
            cells=len(runner.telemetry.records),
            jobs=tally["jobs"],
            latencies_s=latencies,
            failed=len(runner.failures),
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            counters={
                **_delta(_trace_cache_counts(), before),
                "retries": sum(runner.telemetry.retry_counts().values()),
            },
        )

    def check(self, passes):
        problems = super().check(passes)
        committed = json.loads(DIGESTS_PATH.read_text()).get(self.name, {})
        expected = committed.get(str(self.seed))
        if expected is not None and passes and passes[0].digest != expected:
            problems.append(
                f"report digest {passes[0].digest[:16]} != committed "
                f"{expected[:16]} for seed {self.seed}"
            )
        return problems


# ---------------------------------------------------------------------
# sweep-parallel
# ---------------------------------------------------------------------

def _sweep_all(runner: SweepRunner, after_each=None, **kwargs) -> dict:
    """The three sweeps; ``after_each()`` is called when each one returns."""
    mapping = {}
    for name, sweep, configs in (
        ("cpu_main", runner.cpu_sweep, CPU_MAIN_CONFIGS),
        ("cpu_sensitivity", runner.cpu_sweep, CPU_SENSITIVITY_CONFIGS),
        ("gpu_main", runner.gpu_sweep, GPU_MAIN_CONFIGS),
    ):
        mapping[name] = sweep(configs, **kwargs)
        if after_each is not None:
            after_each()
    return mapping


class SweepParallel(Workload):
    name = "sweep-parallel"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.inputs = inputs_mod.sweep_inputs(self.name, seed)
        self.reference_digest: "str | None" = None
        #: Host seconds of the serial in-process reference sweep.
        self.serial_wall_s: "float | None" = None

    def prepare(self) -> None:
        # The serial in-process mapping every parallel pass must equal
        # (cold trace cache, so its time compares with a parallel pass).
        shared_cache().clear()
        runner = SweepRunner(_settings(self.inputs))
        start = time.perf_counter()
        mapping = _sweep_all(runner)
        self.serial_wall_s = time.perf_counter() - start
        self.reference_digest = mapping_digest(mapping)

    def setup(self, index: int) -> "tuple[SweepRunner, Path]":
        shared_cache().clear()
        pass_dir = self.workdir / f"sweep-{index}"
        runner = SweepRunner(
            _settings(self.inputs),
            checkpoint=pass_dir / "checkpoint.json",
            store=ResultStore(pass_dir / "store"),
        )
        return runner, pass_dir

    def run_pass(self, state: "tuple[SweepRunner, Path]", index: int) -> PassResult:
        runner, _ = state
        latencies: "list[float]" = []
        before = _trace_cache_counts()
        start = time.perf_counter_ns()
        tally = _progress_probe(runner, start, latencies)
        # Each sweep's pool reports its own utilization; keep all three.
        utilization: "list[float]" = []
        mapping = _sweep_all(
            runner,
            after_each=lambda: utilization.append(runner.telemetry.pool_utilization),
            workers=PARALLELISM, isolation="process",
        )
        end = time.perf_counter_ns()
        counters = {
            **_delta(_trace_cache_counts(), before),
            "retries": sum(runner.telemetry.retry_counts().values()),
            "pool_utilization": sum(utilization) / len(utilization),
        }
        digest = mapping_digest(mapping)
        return PassResult(
            window_ns=(start, end),
            instructions=runner.telemetry.total_instructions,
            cells=len(runner.telemetry.records),
            jobs=tally["jobs"],
            latencies_s=latencies,
            # A wrong mapping makes every lookup of the pass wrong.
            failed=tally["jobs"] if digest != self.reference_digest else len(runner.failures),
            digest=digest,
            counters=counters,
        )

    def teardown(self, state: "tuple[SweepRunner, Path]") -> None:
        shutil.rmtree(state[1], ignore_errors=True)


# ---------------------------------------------------------------------
# serve-http
# ---------------------------------------------------------------------

class _FrontDoorThread:
    """One front door served from a background event-loop thread."""

    def __init__(self, service: SimService):
        self.front = HttpFrontDoor(service, HttpConfig(port=0))
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-http")

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        await self.front.start()
        self._ready.set()
        try:
            await self.front.wait_shutdown()
        finally:
            await self.front.drain()

    def start(self) -> "_FrontDoorThread":
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RuntimeError("front door did not start")
        return self

    def stop(self) -> None:
        self.front.request_shutdown()
        self._thread.join(30.0)
        if self._thread.is_alive():
            raise RuntimeError("front door did not drain")


@dataclass
class _ServeState:
    store_dir: Path
    runner: SweepRunner
    service: SimService
    door: _FrontDoorThread
    clients: "list[ServeClient]"


def _summary(result) -> dict:
    """A served job's result as the client sees it (JSON round trip)."""
    return json.loads(json.dumps(SimService._result_summary(result)))


class ServeHttp(Workload):
    name = "serve-http"
    min_samples = 1000  # p99 with 10 samples beyond it

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.inputs = inputs_mod.serve_inputs(seed)
        self.settings = _settings(self.inputs)
        self.reference: "dict[tuple, object]" = {}

    def prepare(self) -> None:
        runner = SweepRunner(self.settings)
        for cell in self.inputs.cells("store") + self.inputs.cells("fresh"):
            result = runner.run_cell(*cell)
            if result is None:
                raise RuntimeError(f"reference cell {cell} failed")
            self.reference[cell] = result
        self.expected = {cell: _summary(r) for cell, r in self.reference.items()}

    def setup(self, index: int) -> _ServeState:
        store_dir = self.workdir / f"store-{index}"
        store = ResultStore(store_dir)
        fingerprint = self.settings.fingerprint()
        for cell in self.inputs.cells("store"):
            store.put(fingerprint, *cell, (), self.reference[cell])
        runner = SweepRunner(self.settings, store=store)
        service = SimService(runner, ServiceConfig(
            workers=PARALLELISM, isolation="thread", capacity=256, poll_s=SERVE_POLL_S,
        )).start()
        door = _FrontDoorThread(service).start()
        clients = [
            ServeClient(door.front.url, ClientConfig(seed=self.seed * 8 + i))
            for i in range(PARALLELISM)
        ]
        return _ServeState(store_dir, runner, service, door, clients)

    def _job_spec(self, job, index: int) -> dict:
        original = job.original if job.original is not None else job.index
        return {
            "id": f"p{index}-j{original}",
            "run_kind": job.run_kind,
            "config": job.config,
            "workload": job.workload,
        }

    def run_pass(self, state: _ServeState, index: int) -> PassResult:
        jobs = self.inputs.jobs(index)
        lock = threading.Lock()
        cursor = iter(jobs)
        outcomes: "list[tuple]" = []  # (job, latency_s, record, deduplicated, error)
        before = _trace_cache_counts()

        def client_loop(client: ServeClient) -> None:
            while True:
                with lock:
                    job = next(cursor, None)
                if job is None:
                    return
                began = time.perf_counter()
                record, deduplicated, error = None, False, None
                try:
                    body = client.submit(self._job_spec(job, index))
                    deduplicated = bool(body.get("deduplicated"))
                    if body.get("status") == "served" and "result" in body:
                        record = body
                    while record is None:
                        time.sleep(SERVE_POLL_S)
                        polled = client.poll(body["job_id"])
                        if polled is None:
                            raise ServeError(f"job {body['job_id']} vanished")
                        if polled["status"] in TERMINAL_STATES:
                            record = polled
                except ServeError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - began
                with lock:
                    outcomes.append((job, latency, record, deduplicated, error))

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"perfbench-client-{i}")
            for i, c in enumerate(state.clients)
        ]
        start = time.perf_counter_ns()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        end = time.perf_counter_ns()

        failed = 0
        for job, _, record, _, error in outcomes:
            ok = (
                error is None
                and record is not None
                and record.get("status") == "served"
                and record.get("result") == self.expected[job.cell]
            )
            failed += not ok
        failed += len(jobs) - len(outcomes)
        return PassResult(
            window_ns=(start, end),
            instructions=state.runner.telemetry.total_instructions,
            cells=len({job.cell for job, *_ in outcomes}),
            jobs=len(outcomes),
            latencies_s=[latency for _, latency, *_ in outcomes],
            failed=failed,
            digest=_digest(sorted({
                (job.cell, json.dumps(record.get("result") if record else None))
                for job, _, record, _, _ in outcomes
            })),
            counters={
                **_delta(_trace_cache_counts(), before),
                "retries": sum(state.runner.telemetry.retry_counts().values()),
                "deduplicated": sum(d for _, _, _, d, _ in outcomes),
                "client_retries": sum(c.counters["retries"] for c in state.clients),
            },
        )

    def teardown(self, state: _ServeState) -> None:
        state.door.stop()
        state.service.shutdown(drain_deadline_s=10.0)
        shutil.rmtree(state.store_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (PaperSerial, SweepParallel, ServeHttp)}
