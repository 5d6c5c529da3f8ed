"""The fabric coordinator: one asyncio process driving N worker nodes.

The coordinator owns the sweep: the full cell list, the authoritative
:class:`~repro.experiments.runner.SweepRunner` whose caches/checkpoint
collect every result, and the placement ring.  Nodes own execution:
each runs the :class:`~repro.serve.service.SimService` machinery and
streams terminal results back.  The coordinator is a pure merge point
-- it never simulates -- so its event loop stays responsive no matter
how slow the cells are.

Robustness invariants (see DESIGN.md for the walkthrough):

* **Exactly-once merge.**  A cell is merged into the runner at most
  once: the ``done`` set dedupes duplicated frames, resubmission races,
  and a zombie's late results.  A cell is merged at *least* once
  because every loss path (node death, dropped frame, task timeout,
  coordinator drain) either requeues the cell or records it as a
  ``shed`` gap in the checkpoint -- never silence.
* **Epoch fencing.**  Every accepted session gets a strictly
  increasing epoch, stamped on each assignment and echoed on each
  result.  A node marked dead (heartbeat timeout) whose socket still
  delivers frames is a *zombie*: its epoch no longer matches the
  live membership, so its results count as ``fenced`` and are
  discarded.  A reconnecting node gets a fresh epoch; results it
  re-sends from the old session are fenced too, and the resubmitted
  copies are deduped by ``done``.
* **Monotonic membership accounting.**  Node death is decided by
  heartbeat staleness on the coordinator's monotonic clock or by
  connection loss, whichever fires first; its in-flight cells are
  recorded as ``shed`` gaps (cleared if a resubmission later
  succeeds) and requeued in deterministic cell order.
* **Drain.**  SIGTERM broadcasts ``drain``; every node flushes its
  checkpoint, acks ``drained``, and the coordinator sheds whatever
  never completed before flushing its own checkpoint -- a rerun
  against the same checkpoint serves exactly the gaps.

Because simulation results are deterministic and the report is
assembled from the runner caches in deterministic cell order, serial,
single-node, and multi-node sweeps produce byte-identical reports.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.fabric import fleet as fleet_mod
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    HashRing,
    ProtocolError,
    read_frame,
    route_key,
    send_frame,
)
from repro.obs.events import get_event_log
from repro.resilience import diskio, faults
from repro.resilience.checkpoint import _CODECS
from repro.resilience.errors import RunFailure
from repro.resilience.guard import GuardOutcome
from repro.resilience.pool import CellTask
from repro.serve.health import HealthSnapshot, write_health


@dataclass
class FabricConfig:
    """Shape of one coordinator instance."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Heartbeat cadence pushed to nodes in ``welcome``.
    heartbeat_s: float = 0.5
    #: A node silent longer than this is dead (monotonic, coordinator).
    heartbeat_timeout_s: float = 3.0
    #: An assignment unresolved longer than this is resubmitted (covers
    #: dropped ``assign``/``result`` frames without killing the node).
    task_timeout_s: float = 120.0
    #: Max outstanding assignments per node (pipelining window).
    window: int = 2
    #: Distribution starts once this many nodes have joined.
    min_nodes: int = 1
    #: Give up waiting for the first ``min_nodes`` nodes after this.
    join_timeout_s: float = 60.0
    #: With work pending and *zero* live nodes, wait this long for a
    #: rejoin before shedding the remainder.
    rejoin_grace_s: float = 10.0
    #: Budget for ``drained`` acks during a fleet-wide drain.
    drain_deadline_s: float = 10.0
    #: Directory for per-node health files + the fleet rollup (None =
    #: no fleet observability).
    fleet_dir: "str | None" = None
    #: Virtual nodes per member on the placement ring.
    replicas: int = 64
    #: Watchdog tick (staleness checks, fleet rollup cadence).
    tick_s: float = 0.1


@dataclass
class _Assignment:
    """One cell assigned to one node session."""

    task_id: str
    cell: tuple
    node: str
    epoch: int
    attempt: int
    assigned_at: float


class NodeClient:
    """Coordinator-side state of one node session."""

    def __init__(self, name: str, epoch: int, writer, *, workers: int = 1):
        self.name = name
        self.epoch = epoch
        self.writer = writer
        self.workers = max(workers, 1)
        self.alive = True
        self.draining = False
        self.drained = False
        self.last_heartbeat: "float | None" = None
        self.health: "dict | None" = None
        self.outstanding: "dict[str, _Assignment]" = {}
        self.site = f"coordinator->{name}"

    def snapshot(self) -> dict:
        return {
            "epoch": self.epoch,
            "alive": self.alive,
            "draining": self.draining,
            "outstanding": len(self.outstanding),
        }


class FabricCoordinator:
    """Distribute one sweep's cells across connected nodes."""

    def __init__(
        self,
        runner,
        cells: "list[tuple]",
        config: "FabricConfig | None" = None,
        *,
        clock=time.monotonic,
    ):
        self.runner = runner
        self.config = config or FabricConfig()
        self._clock = clock
        #: Deterministic order index for requeueing.
        self._order = {tuple(c): i for i, c in enumerate(cells)}
        self.cells = [tuple(c) for c in cells]
        #: Cells awaiting assignment, kept sorted by original order.
        self.pending: "list[tuple]" = []
        #: Cells not yet terminal (result merged or shed at exit).
        self.remaining: "set[tuple]" = set()
        #: Cells merged exactly once.
        self.done: "set[tuple]" = set()
        self.nodes: "dict[str, NodeClient]" = {}
        self.in_flight: "dict[str, _Assignment]" = {}
        self.ring = HashRing(replicas=self.config.replicas)
        self.counters = {
            "assigned": 0,
            "completed": 0,
            "failed": 0,
            "resubmitted": 0,
            "fenced": 0,
            "duplicates": 0,
            "task_timeouts": 0,
            "nodes_joined": 0,
            "nodes_dead": 0,
            "heartbeats": 0,
        }
        self._epoch = 0
        self._task_seq = 0
        self._started = False
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._done_event: "asyncio.Event | None" = None
        self._drain_event: "asyncio.Event | None" = None
        self._drain_requested = False
        self._draining = False
        self._no_nodes_since: "float | None" = None
        self._opened_at = clock()
        self._rollup = None
        if self.config.fleet_dir is not None:
            self._rollup = fleet_mod.FleetRollup(
                stale_after_s=max(self.config.heartbeat_timeout_s, 1.0)
            )
            # Writer-startup hygiene: a previous coordinator that died
            # mid-snapshot leaves *.tmp.<pid> droppings here.
            diskio.sweep_orphan_temps(self.config.fleet_dir, site="fleet")
        self.port: "int | None" = None

    # -- thread/signal-safe shutdown request ---------------------------
    def request_shutdown(self) -> None:
        """Begin a fleet-wide drain (safe from signal handlers/threads)."""
        self._drain_requested = True
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._note_drain_request)
            except RuntimeError:
                pass  # loop already closed; serve() is returning anyway

    def _note_drain_request(self) -> None:
        if self._drain_event is not None:
            self._drain_event.set()

    # -- helpers -------------------------------------------------------
    def _injector(self):
        return faults.active("net")

    async def _send(self, node: NodeClient, message: dict) -> None:
        try:
            await send_frame(
                node.writer, message, site=node.site, injector=self._injector()
            )
        except (ConnectionClosed, ConnectionError, OSError):
            self._node_lost(node, "send failed")

    def _route(self, cell: tuple) -> "str | None":
        run_kind, config_name, workload = cell[0], cell[1], cell[2]
        return self.ring.lookup(route_key(run_kind, config_name, workload))

    def _sort_pending(self) -> None:
        self.pending.sort(key=lambda c: self._order.get(c, len(self._order)))

    def _shed_cell(self, cell: tuple, message: str) -> None:
        """Record one unfinished cell as a ``shed`` gap (kept unless a
        later resubmission succeeds and clears it)."""
        run_kind, config_name, workload = cell[0], cell[1], cell[2]
        self.runner.record_gap(
            RunFailure(
                run_kind=run_kind,
                config=config_name,
                workload=workload,
                kind="shed",
                attempts=0,
                message=message,
                extra=tuple(cell[3:]),
            )
        )

    def _check_done(self) -> None:
        if not self.remaining and self._done_event is not None:
            self._done_event.set()

    def _alive_nodes(self) -> "list[NodeClient]":
        return [n for n in self.nodes.values() if n.alive]

    # -- result merge (exactly-once) -----------------------------------
    def _apply_result(self, node: NodeClient, msg: dict) -> None:
        telemetry = self.runner.telemetry
        if not node.alive or msg.get("epoch") != node.epoch:
            # A zombie session (declared dead, or superseded by a
            # reconnect) is still talking: fence its results.
            self.counters["fenced"] += 1
            telemetry.record_fabric("fenced")
            get_event_log().emit(
                "fabric.fenced", node=node.name,
                epoch=msg.get("epoch"), expected=node.epoch,
            )
            return
        task_id = str(msg.get("task_id", ""))
        run_kind = msg["run_kind"]
        extra = tuple(msg.get("extra", ()))
        cell = (run_kind, msg["config"], msg["workload"], *extra)
        node.outstanding.pop(task_id, None)
        self.in_flight.pop(task_id, None)
        if cell in self.done:
            # Duplicated frame, or a resubmission race both copies of
            # which completed: merge only the first.
            self.counters["duplicates"] += 1
            telemetry.record_fabric("duplicate")
            return
        # Retire any *other* in-flight assignment of the same cell (the
        # resubmitted copy after a task timeout) so it is neither waited
        # on nor double-merged.
        for other_id, assignment in list(self.in_flight.items()):
            if assignment.cell == cell:
                self.in_flight.pop(other_id, None)
                other = self.nodes.get(assignment.node)
                if other is not None:
                    other.outstanding.pop(other_id, None)
        if cell in self.pending:
            self.pending.remove(cell)
        self.done.add(cell)
        self.remaining.discard(cell)
        task = CellTask(run_kind, msg["config"], msg["workload"], extra)
        if msg.get("ok"):
            _, decode = _CODECS[run_kind]
            outcome = GuardOutcome(
                result=decode(msg["result"]),
                failure=None,
                attempts=int(msg.get("attempts", 1)),
                wall_s=float(msg.get("wall_s", 0.0)),
            )
            self.counters["completed"] += 1
            telemetry.record_fabric("completed")
        else:
            outcome = GuardOutcome(
                result=None,
                failure=RunFailure.from_dict(msg["failure"]),
                attempts=int(msg.get("attempts", 0)),
                wall_s=float(msg.get("wall_s", 0.0)),
            )
            self.counters["failed"] += 1
            telemetry.record_fabric("failed")
        self.runner.merge_pool_outcome(run_kind, task, outcome)
        self._check_done()

    # -- assignment ----------------------------------------------------
    async def _pump(self, node: NodeClient) -> None:
        """Assign this node its routed share of the pending cells."""
        if not self._started or self._draining:
            return
        window = self.config.window * node.workers
        while (
            node.alive
            and not node.draining
            and len(node.outstanding) < window
        ):
            cell = next(
                (c for c in self.pending if self._route(c) == node.name),
                None,
            )
            if cell is None:
                return
            self.pending.remove(cell)
            self._task_seq += 1
            task_id = f"t{self._task_seq}"
            attempt = sum(
                1 for a in self.in_flight.values() if a.cell == cell
            ) + 1
            assignment = _Assignment(
                task_id=task_id,
                cell=cell,
                node=node.name,
                epoch=node.epoch,
                attempt=attempt,
                assigned_at=self._clock(),
            )
            self.in_flight[task_id] = assignment
            node.outstanding[task_id] = assignment
            self.counters["assigned"] += 1
            self.runner.telemetry.record_fabric("assigned")
            await self._send(node, {
                "type": "assign",
                "epoch": node.epoch,
                "task_id": task_id,
                "attempt": attempt,
                "run_kind": cell[0],
                "config": cell[1],
                "workload": cell[2],
                "extra": list(cell[3:]),
            })

    async def _pump_all(self) -> None:
        for node in list(self._alive_nodes()):
            await self._pump(node)

    def _requeue(self, assignment: _Assignment) -> None:
        self.in_flight.pop(assignment.task_id, None)
        node = self.nodes.get(assignment.node)
        if node is not None:
            node.outstanding.pop(assignment.task_id, None)
        cell = assignment.cell
        if cell in self.done or cell in self.pending:
            return
        self.pending.append(cell)
        self._sort_pending()
        self.counters["resubmitted"] += 1
        self.runner.telemetry.record_fabric("resubmitted")

    # -- membership ----------------------------------------------------
    def _node_lost(self, node: NodeClient, reason: str) -> None:
        """Declare one session dead and requeue its in-flight cells."""
        if not node.alive:
            return
        node.alive = False
        self.ring.remove(node.name)
        self.counters["nodes_dead"] += 1
        self.runner.telemetry.record_fabric("node_died")
        get_event_log().emit(
            "fabric.node_died", node=node.name, epoch=node.epoch,
            reason=reason, outstanding=len(node.outstanding),
        )
        lost = sorted(
            node.outstanding.values(),
            key=lambda a: self._order.get(a.cell, len(self._order)),
        )
        for assignment in lost:
            if assignment.cell not in self.done:
                # Record the loss as a shed gap *now*: if no survivor
                # ever completes the resubmission, the checkpoint still
                # carries an explicit gap instead of silence.  A later
                # success clears it.
                self._shed_cell(
                    assignment.cell,
                    f"node {node.name} lost ({reason}); resubmitted",
                )
            self._requeue(assignment)
        node.outstanding.clear()
        if not self._alive_nodes():
            self._no_nodes_since = self._clock()
        self._write_node_health(node)

    # -- fleet observability -------------------------------------------
    def _write_node_health(self, node: NodeClient) -> None:
        if self.config.fleet_dir is None:
            return
        path = fleet_mod.node_health_path(self.config.fleet_dir, node.name)
        try:
            if node.health is not None and node.alive:
                write_health(path, HealthSnapshot.from_dict(node.health))
            elif node.health is not None:
                doc = dict(node.health)
                doc["alive"] = False
                doc["ready"] = False
                write_health(path, HealthSnapshot.from_dict(doc))
            if self._rollup is not None:
                self._rollup.watch(node.name, path)
        except (OSError, TypeError, KeyError):
            pass  # observability must never take down the sweep

    def _write_fleet(self) -> None:
        if self._rollup is None or not self._rollup.names:
            return
        try:
            fleet_mod.write_fleet(
                self.config.fleet_dir,
                self._rollup.poll(draining=self._draining),
            )
        except OSError:
            pass

    # -- connection handler --------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        node: "NodeClient | None" = None
        try:
            hello = await asyncio.wait_for(read_frame(reader), timeout=10.0)
            if hello.get("type") != "hello":
                return
            if hello.get("proto") != PROTOCOL_VERSION:
                return
            name = str(hello.get("node") or f"node-{len(self.nodes) + 1}")
            previous = self.nodes.get(name)
            if previous is not None and previous.alive:
                # A reconnect under the same name supersedes the old
                # session: fence it and resubmit whatever it held.
                self._node_lost(previous, "superseded by reconnect")
            self._epoch += 1
            node = NodeClient(
                name, self._epoch, writer,
                workers=int(hello.get("workers", 1)),
            )
            node.last_heartbeat = self._clock()
            self.nodes[name] = node
            self.ring.add(name)
            self.counters["nodes_joined"] += 1
            self.runner.telemetry.record_fabric("node_joined")
            get_event_log().emit(
                "fabric.node_joined", node=name, epoch=node.epoch,
                workers=node.workers,
            )
            settings = self.runner.settings
            await self._send(node, {
                "type": "welcome",
                "node": name,
                "epoch": node.epoch,
                "heartbeat_s": self.config.heartbeat_s,
                "settings": {
                    "instructions": settings.instructions,
                    "warmup_fraction": settings.warmup_fraction,
                    "apps": list(settings.apps),
                    "kernels": list(settings.kernels),
                },
                "policy": {
                    "timeout_s": self.runner.policy.timeout_s,
                    "max_retries": self.runner.policy.max_retries,
                },
            })
            if (
                not self._started
                and len(self._alive_nodes()) >= self.config.min_nodes
            ):
                self._started = True
            self._no_nodes_since = None
            # Membership changed: cells already queued may now route to
            # the newcomer, and old members may shed part of their range
            # (their in-flight work is left to finish -- results merge
            # wherever they come from).
            await self._pump_all()
            self._check_done()
            while True:
                msg = await read_frame(reader)
                if not node.alive:
                    # Zombie session: tell it once, then hang up; its
                    # reconnect gets a fresh epoch.
                    self.counters["fenced"] += 1
                    self.runner.telemetry.record_fabric("fenced")
                    await self._send(node, {"type": "fenced"})
                    break
                kind = msg.get("type")
                if kind == "heartbeat":
                    if msg.get("epoch") != node.epoch:
                        self.counters["fenced"] += 1
                        self.runner.telemetry.record_fabric("fenced")
                        continue
                    node.last_heartbeat = self._clock()
                    self.counters["heartbeats"] += 1
                    health = msg.get("health")
                    if isinstance(health, dict):
                        node.health = health
                        self._write_node_health(node)
                elif kind == "result":
                    try:
                        self._apply_result(node, msg)
                    except (KeyError, TypeError, ValueError) as exc:
                        raise ProtocolError(
                            f"malformed result frame: {exc}"
                        ) from exc
                    await self._pump(node)
                elif kind == "drained":
                    if msg.get("epoch") == node.epoch:
                        node.drained = True
        except (ConnectionClosed, ProtocolError, asyncio.TimeoutError,
                ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # The server is closing with this handler mid-read; absorb
            # the cancellation so teardown does not log a spurious
            # traceback (cleanup below is synchronous).
            pass
        finally:
            if node is not None and node.alive:
                if self._draining:
                    # A node hanging up after (or while) draining is an
                    # orderly exit, not a death to resubmit around.
                    node.alive = False
                    self.ring.remove(node.name)
                else:
                    self._node_lost(node, "connection lost")
                self._check_done()
            try:
                writer.close()
            except Exception:
                pass

    # -- watchdog ------------------------------------------------------
    async def _watchdog(self) -> None:
        cfg = self.config
        last_fleet = 0.0
        while True:
            await asyncio.sleep(cfg.tick_s)
            now = self._clock()
            # Heartbeat staleness -> node death.
            for node in list(self._alive_nodes()):
                if (
                    node.last_heartbeat is not None
                    and now - node.last_heartbeat > cfg.heartbeat_timeout_s
                ):
                    self._node_lost(node, "heartbeat timeout")
            # Per-assignment timeout -> resubmit (covers dropped frames).
            for assignment in list(self.in_flight.values()):
                if now - assignment.assigned_at > cfg.task_timeout_s:
                    self.counters["task_timeouts"] += 1
                    self.runner.telemetry.record_fabric("task_timeout")
                    self._requeue(assignment)
            await self._pump_all()
            # No survivors with work to do: wait out the rejoin grace,
            # then shed the remainder explicitly.
            if self.remaining and not self._alive_nodes():
                started_wait = (
                    self._no_nodes_since
                    if self._no_nodes_since is not None
                    else self._opened_at
                )
                budget = (
                    cfg.rejoin_grace_s if self._started else cfg.join_timeout_s
                )
                if now - started_wait > budget:
                    for cell in sorted(
                        self.remaining, key=lambda c: self._order.get(c, 0)
                    ):
                        self._shed_cell(
                            cell, "no live fabric nodes before the grace "
                            "deadline",
                        )
                        self.remaining.discard(cell)
                    self.remaining.clear()
                    self._started = True
                    self._check_done()
            if now - last_fleet >= max(cfg.heartbeat_s, cfg.tick_s):
                last_fleet = now
                self._write_fleet()
            self._check_done()

    async def _drain(self) -> None:
        """Fleet-wide graceful drain: every node flushes its checkpoint."""
        self._draining = True
        get_event_log().emit(
            "fabric.drain", nodes=len(self._alive_nodes()),
            remaining=len(self.remaining),
        )
        for node in list(self._alive_nodes()):
            node.draining = True
            await self._send(node, {"type": "drain", "epoch": node.epoch})
        deadline = self._clock() + self.config.drain_deadline_s
        while self._clock() < deadline:
            waiting = [
                n for n in self._alive_nodes() if not n.drained
            ]
            if not waiting:
                break
            await asyncio.sleep(self.config.tick_s)
        for cell in sorted(
            self.remaining, key=lambda c: self._order.get(c, 0)
        ):
            if cell not in self.done:
                self._shed_cell(cell, "fleet drain before completion")
        self.remaining.clear()
        if self._done_event is not None:
            self._done_event.set()

    async def _drain_on_request(self) -> None:
        await self._drain_event.wait()
        await self._drain()

    # -- main entry ----------------------------------------------------
    async def serve(self) -> dict:
        """Run the sweep to completion (or drain); returns a summary."""
        self._loop = asyncio.get_running_loop()
        self._done_event = asyncio.Event()
        self._drain_event = asyncio.Event()
        if self._drain_requested:
            self._drain_event.set()
        self._opened_at = self._clock()

        # The runner accounts for every cell exactly as in a local
        # sweep: cache and store hits are done, bad names are recorded
        # gaps, and only the cells it leaves over travel.
        by_kind: "dict[str, list[tuple]]" = {}
        for cell in self.cells:
            by_kind.setdefault(cell[0], []).append(cell)
        for run_kind, group in by_kind.items():
            todo = {
                key for key, _ in self.runner._missing(
                    run_kind, [(c[1], c[2], c[3:]) for c in group]
                )
            }
            cache = self.runner._cache_for(run_kind)
            for cell in group:
                if cell[1:] in todo:
                    self.remaining.add(cell)
                    self.pending.append(cell)
                elif cell[1:] in cache:
                    self.done.add(cell)
        self._sort_pending()

        server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        get_event_log().emit(
            "fabric.listening", host=self.config.host, port=self.port,
            cells=len(self.remaining),
        )
        watchdog = asyncio.ensure_future(self._watchdog())
        drainer = asyncio.ensure_future(self._drain_on_request())
        try:
            self._check_done()
            await self._done_event.wait()
        finally:
            watchdog.cancel()
            drainer.cancel()
            for node in list(self._alive_nodes()):
                await self._send(node, {"type": "bye"})
                node.alive = False
            self._write_fleet()
            server.close()
            try:
                await server.wait_closed()
            except Exception:
                pass
            self.runner.save_checkpoint()
        return self.summary()

    def summary(self) -> dict:
        return {
            "counters": dict(self.counters),
            "nodes": {
                name: node.snapshot() for name, node in self.nodes.items()
            },
            "cells": len(self.cells),
            "completed": len(self.done),
            "gaps": len(self.runner.failures),
        }
