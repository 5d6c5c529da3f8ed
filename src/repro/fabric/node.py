"""A fabric worker node: the existing job service behind a socket.

One node is one :class:`~repro.serve.service.SimService` (bounded
queue, circuit breakers, process pool, graceful drain) fronted by a
single-threaded protocol loop: receive ``assign`` frames, submit them
as jobs, watch the job records, and stream every terminal outcome back
as a ``result`` frame.  Heartbeats carrying the service's health
snapshot go out on the cadence the coordinator dictated in ``welcome``.

The loop is deliberately single-threaded (the service's dispatcher
threads do the actual work): receive with a short timeout, then do the
housekeeping -- job watching, heartbeat, result retry -- so there is no
cross-thread state beyond the service's own locks.

Reconnection: a lost connection (or a ``fenced`` notice from the
coordinator after a zombie episode) tears down the session but not the
service; the node reconnects with seeded exponential backoff, is
re-fenced under a fresh epoch, and re-sends any results the old session
never delivered -- the coordinator's ``done`` set makes the re-send
idempotent.  Results computed under the old epoch are re-stamped with
the new one at send time: they are real results from this same process,
not zombie echoes (the zombie case is a session the *coordinator*
declared dead, and it fences those by refusing the old epoch).

Drain: a ``drain`` frame runs the service's graceful shutdown (records
gaps for anything unfinished), sends the remaining buffered results,
acks ``drained``, and exits.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass

from repro.experiments.runner import SweepRunner, SweepSettings
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameSocket,
    ProtocolError,
)
from repro.obs.events import get_event_log
from repro.resilience import faults
from repro.resilience.errors import RunFailure
from repro.resilience.guard import GuardPolicy, stable_seed
from repro.serve.queue import Job
from repro.serve.service import TERMINAL_STATES, ServiceConfig, SimService
from repro.store.cas import _CODECS


@dataclass
class NodeConfig:
    """Shape of one fabric node."""

    host: str = "127.0.0.1"
    port: int = 7077
    #: Stable node identity (ring placement + fleet files); defaults to
    #: ``node-<pid>``.
    name: "str | None" = None
    workers: int = 1
    isolation: str = "thread"
    queue_capacity: int = 256
    checkpoint: "str | None" = None
    resume: bool = False
    #: Durable result-store root (optional; ``REPRO_STORE`` otherwise).
    store: "str | None" = None
    #: Local health file (optional; the coordinator also republishes
    #: heartbeat snapshots into its fleet directory).
    health_file: "str | None" = None
    connect_timeout_s: float = 5.0
    #: Reconnect backoff: base * 2^attempt, capped, with seeded jitter.
    backoff_base_s: float = 0.2
    backoff_max_s: float = 5.0
    #: Protocol-loop receive quantum.
    poll_s: float = 0.05
    #: Fallback heartbeat cadence until ``welcome`` overrides it.
    heartbeat_s: float = 0.5


class FabricNode:
    """Connect to a coordinator and serve assigned cells until ``bye``."""

    def __init__(self, config: "NodeConfig | None" = None):
        self.config = config or NodeConfig()
        self.name = self.config.name or f"node-{os.getpid()}"
        self._stop = threading.Event()
        self._service: "SimService | None" = None
        self._fingerprint: "str | None" = None
        self._epoch: "int | None" = None
        self._transport: "FrameSocket | None" = None
        #: task_id -> {"job_id", "cell"} for assignments awaiting a
        #: terminal job state.
        self._outstanding: "dict[str, dict]" = {}
        #: Result messages built but not yet (confirmably) sent; re-sent
        #: after a reconnect under the new epoch.
        self._unsent: "list[dict]" = []
        self._hb_seq = 0
        self._last_hb = float("-inf")
        self.counters = {
            "connects": 0,
            "reconnects": 0,
            "assigned": 0,
            "results_sent": 0,
            "duplicate_assigns": 0,
            "heartbeats": 0,
            "fenced": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def request_shutdown(self) -> None:
        """Stop after the current protocol iteration (signal-safe)."""
        self._stop.set()

    def _ensure_service(self, settings_doc: dict, policy_doc: dict) -> None:
        """(Re)build the runner + service for the coordinator's sweep."""
        settings = SweepSettings(
            instructions=int(settings_doc["instructions"]),
            warmup_fraction=float(settings_doc["warmup_fraction"]),
            apps=list(settings_doc["apps"]),
            kernels=list(settings_doc["kernels"]),
        )
        fingerprint = settings.fingerprint()
        if self._service is not None and self._fingerprint == fingerprint:
            return
        if self._service is not None:
            self._service.shutdown(drain_deadline_s=1.0)
        runner = SweepRunner(
            settings,
            policy=GuardPolicy(
                timeout_s=policy_doc.get("timeout_s"),
                max_retries=int(policy_doc.get("max_retries", 0)),
            ),
            checkpoint=self.config.checkpoint,
            resume=self.config.resume and self.config.checkpoint is not None,
            store=self.config.store,
        )
        self._service = SimService(
            runner,
            ServiceConfig(
                capacity=self.config.queue_capacity,
                workers=self.config.workers,
                isolation=self.config.isolation,
                health_file=self.config.health_file,
            ),
        ).start()
        self._fingerprint = fingerprint
        self._outstanding.clear()

    # -- outbound ------------------------------------------------------
    def _send(self, message: dict) -> None:
        self._transport.send(message)

    def _queue_result(self, message: dict) -> None:
        """Buffer a terminal result and try to deliver it now."""
        self._unsent.append(message)
        self._flush_results()

    def _flush_results(self) -> None:
        while self._unsent:
            message = dict(self._unsent[0])
            message["epoch"] = self._epoch
            self._send(message)
            # sendall() returned: the frame is on the wire (or the
            # injector dropped it, which the coordinator's task timeout
            # covers).  Either way this copy is spent.
            self._unsent.pop(0)
            self.counters["results_sent"] += 1

    def _heartbeat(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_hb < self.config.heartbeat_s:
            return
        self._last_hb = now
        self._hb_seq += 1
        snapshot = self._service.health_snapshot().to_dict()
        # The heartbeat sequence is the liveness marker the fleet
        # watcher tracks; the service only bumps its own seq when it
        # writes a local health file, so stamp ours instead.
        snapshot["seq"] = self._hb_seq
        self._send({
            "type": "heartbeat",
            "epoch": self._epoch,
            "seq": self._hb_seq,
            "health": snapshot,
            "in_flight": len(self._outstanding),
        })
        self.counters["heartbeats"] += 1

    # -- inbound -------------------------------------------------------
    def _handle_assign(self, msg: dict) -> None:
        task_id = str(msg["task_id"])
        if task_id in self._outstanding:
            self.counters["duplicate_assigns"] += 1
            return  # duplicated frame; one execution is plenty
        extra = tuple(msg.get("extra", ()))
        job = Job(
            job_id=f"{task_id}-a{msg.get('attempt', 1)}",
            run_kind=str(msg["run_kind"]),
            config=str(msg["config"]),
            workload=str(msg["workload"]),
            extra=extra,
        )
        self.counters["assigned"] += 1
        job_id, admission = self._service.submit(job)
        if not admission.admitted:
            # Shed at admission: report it immediately as a shed result
            # so the coordinator can reroute without a task timeout.
            self._queue_result(self._result_message(
                task_id, msg, ok=False,
                failure=RunFailure(
                    run_kind=job.run_kind,
                    config=job.config,
                    workload=job.workload,
                    kind="shed",
                    attempts=0,
                    message=f"{admission.reason}: {admission.detail}",
                    extra=extra,
                ),
            ))
            return
        self._outstanding[task_id] = {"job_id": job_id, "spec": msg}

    @staticmethod
    def _result_message(
        task_id: str, spec: dict, *, ok: bool,
        result: "dict | None" = None,
        failure: "RunFailure | None" = None,
        wall_s: float = 0.0,
    ) -> dict:
        return {
            "type": "result",
            "task_id": task_id,
            "run_kind": spec["run_kind"],
            "config": spec["config"],
            "workload": spec["workload"],
            "extra": list(spec.get("extra", ())),
            "ok": ok,
            "result": result,
            "failure": failure.to_dict() if failure is not None else None,
            "wall_s": wall_s,
        }

    def _watch_jobs(self) -> None:
        """Turn terminal job records into result frames."""
        for task_id, info in list(self._outstanding.items()):
            record = self._service.poll(info["job_id"])
            if record is None or record.status not in TERMINAL_STATES:
                continue
            spec = info["spec"]
            run_kind = spec["run_kind"]
            extra = tuple(spec.get("extra", ()))
            key = (spec["config"], spec["workload"], *extra)
            cached = self._service.runner._cache_for(run_kind).get(key)
            if record.status == "served" and cached is not None:
                encode, _ = _CODECS[run_kind]
                message = self._result_message(
                    task_id, spec, ok=True, result=encode(cached)
                )
            else:
                failure = record.failure
                if failure is None:
                    failure = RunFailure(
                        run_kind=run_kind,
                        config=spec["config"],
                        workload=spec["workload"],
                        kind="shed",
                        attempts=0,
                        message=f"job ended {record.status} without a "
                                f"recorded failure",
                        extra=extra,
                    )
                message = self._result_message(
                    task_id, spec, ok=False, failure=failure
                )
            self._outstanding.pop(task_id, None)
            self._queue_result(message)

    def _handle_drain(self) -> dict:
        """Graceful drain: flush everything, ack, and stop.

        The stop flag is set *before* the final sends: if the link dies
        mid-ack the node still exits (the coordinator's drain deadline
        sheds whatever the lost frames carried).
        """
        summary = self._service.shutdown()
        self._stop.set()
        self._watch_jobs()
        self._flush_results()
        self._send({"type": "drained", "epoch": self._epoch})
        return summary

    # -- session + reconnect loop --------------------------------------
    def _backoff_s(self, attempt: int) -> float:
        base = min(
            self.config.backoff_base_s * (2 ** attempt),
            self.config.backoff_max_s,
        )
        jitter = stable_seed(self.name, "backoff", attempt) % 1000 / 1000.0
        return base * (1.0 + 0.25 * jitter)

    def _connect(self) -> FrameSocket:
        sock = socket.create_connection(
            (self.config.host, self.config.port),
            timeout=self.config.connect_timeout_s,
        )
        sock.settimeout(None)
        return FrameSocket(
            sock,
            site=f"{self.name}->coordinator",
            injector=faults.active("net"),
        )

    def _session(self, transport: FrameSocket) -> None:
        """One connected session: handshake, then the protocol loop."""
        self._transport = transport
        transport.send({
            "type": "hello",
            "node": self.name,
            "pid": os.getpid(),
            "proto": PROTOCOL_VERSION,
            "workers": self.config.workers,
        })
        welcome = None
        deadline = time.monotonic() + 10.0
        while welcome is None and time.monotonic() < deadline:
            welcome = transport.recv(timeout=1.0)
        if welcome is None or welcome.get("type") != "welcome":
            raise ConnectionClosed("no welcome from coordinator")
        self._epoch = int(welcome["epoch"])
        self.config.heartbeat_s = float(
            welcome.get("heartbeat_s", self.config.heartbeat_s)
        )
        self._ensure_service(welcome["settings"], welcome.get("policy", {}))
        get_event_log().emit(
            "fabric.session", node=self.name, epoch=self._epoch,
        )
        # Anything the previous session left undelivered goes out first,
        # stamped with the new epoch (the coordinator dedupes).
        self._flush_results()
        self._heartbeat(force=True)
        while not self._stop.is_set():
            msg = transport.recv(timeout=self.config.poll_s)
            if msg is not None:
                kind = msg.get("type")
                if kind == "assign":
                    self._handle_assign(msg)
                elif kind == "drain":
                    self._handle_drain()
                    return
                elif kind == "fenced":
                    # The coordinator declared this session dead; any
                    # in-flight work keeps running and will be re-sent
                    # (and deduped) under the next epoch.
                    self.counters["fenced"] += 1
                    raise ConnectionClosed("session fenced by coordinator")
                elif kind == "bye":
                    self._stop.set()
                    return
            self._watch_jobs()
            self._flush_results()
            self._heartbeat()

    def run(self) -> dict:
        """Serve until ``bye``/``drain``/shutdown; returns a summary."""
        attempt = 0
        try:
            while not self._stop.is_set():
                try:
                    transport = self._connect()
                except OSError:
                    self._stop.wait(self._backoff_s(attempt))
                    attempt = min(attempt + 1, 16)
                    continue
                if self.counters["connects"]:
                    self.counters["reconnects"] += 1
                self.counters["connects"] += 1
                try:
                    self._session(transport)
                    attempt = 0
                except (ConnectionClosed, ProtocolError, OSError):
                    # Lost the coordinator: back off and rejoin; the
                    # service keeps finishing whatever it already holds.
                    self._stop.wait(self._backoff_s(attempt))
                    attempt = min(attempt + 1, 16)
                finally:
                    transport.close()
                    self._transport = None
        finally:
            if self._service is not None and not self._service._finished:
                self._service.shutdown(drain_deadline_s=2.0)
        return self.summary()

    def summary(self) -> dict:
        doc = {
            "node": self.name,
            "counters": dict(self.counters),
            "epoch": self._epoch,
        }
        if self._service is not None:
            doc["service"] = self._service.counters
        return doc
