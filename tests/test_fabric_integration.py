"""Coordinator + nodes end to end, in-process.

The coordinator runs its asyncio loop in one thread; each node runs its
synchronous protocol loop in another, over real localhost sockets.
Cells are tiny (2k instructions), so whole sweeps finish in well under a
second of simulated work -- the time in these tests is protocol time.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.experiments.runner import SweepRunner, SweepSettings
from repro.fabric import (
    FabricConfig,
    FabricCoordinator,
    FabricNode,
    HashRing,
    NodeConfig,
    PROTOCOL_VERSION,
    route_key,
)
from repro.fabric.coordinator import NodeClient
from repro.fabric.protocol import ConnectionClosed, FrameSocket, ProtocolError
from repro.resilience import GuardPolicy, RunFailure, faults
from repro.resilience.faults import FaultInjector, FaultPlan

SMALL = dict(instructions=2_000, apps=["barnes", "lu", "radix"], kernels=["DCT"])
CONFIGS = ["BaseCMOS", "AdvHet"]


def make_runner() -> SweepRunner:
    return SweepRunner(
        SweepSettings(**SMALL),
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
    )


def cells_of(runner) -> "list[tuple]":
    return [("cpu", c, w) for c in CONFIGS for w in runner.settings.apps]


def report_doc(runner) -> str:
    """The byte-comparison surface: every cell's numbers, sorted keys."""
    cache = runner._cache_for("cpu")
    return json.dumps({
        cfg: {
            w: (
                [cache[(cfg, w)].time_s, cache[(cfg, w)].energy_j,
                 cache[(cfg, w)].ed2]
                if (cfg, w) in cache else None
            )
            for w in runner.settings.apps
        }
        for cfg in CONFIGS
    }, sort_keys=True)


@pytest.fixture(scope="module")
def serial_doc() -> str:
    runner = make_runner()
    runner.cpu_sweep(CONFIGS)
    assert not runner.failures
    return report_doc(runner)


def start_coordinator(runner, config) -> "tuple[FabricCoordinator, threading.Thread, dict]":
    coord = FabricCoordinator(runner, cells_of(runner), config)
    out: dict = {}
    thread = threading.Thread(
        target=lambda: out.update(asyncio.run(coord.serve())), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while coord.port is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert coord.port is not None, "coordinator never bound its socket"
    return coord, thread, out


def run_fleet(config, node_names, *, timeout_s=90.0):
    runner = make_runner()
    coord, coord_thread, out = start_coordinator(runner, config)
    nodes = [
        FabricNode(NodeConfig(
            port=coord.port, name=name, poll_s=0.01,
            backoff_base_s=0.05, backoff_max_s=0.5,
        ))
        for name in node_names
    ]
    threads = [threading.Thread(target=n.run, daemon=True) for n in nodes]
    for t in threads:
        t.start()
    coord_thread.join(timeout=timeout_s)
    assert not coord_thread.is_alive(), "coordinator did not finish"
    for node in nodes:  # a dropped `bye` must not wedge the harness
        node.request_shutdown()
    for t in threads:
        t.join(timeout=15.0)
        assert not t.is_alive(), "node did not finish"
    return runner, coord, out, nodes


def fabric_config(**overrides) -> FabricConfig:
    defaults = dict(
        heartbeat_s=0.1, heartbeat_timeout_s=5.0, task_timeout_s=30.0,
        join_timeout_s=20.0, rejoin_grace_s=5.0, tick_s=0.02,
    )
    defaults.update(overrides)
    return FabricConfig(**defaults)


# ---------------------------------------------------------------------
# byte-identity: serial == single-node == multi-node
# ---------------------------------------------------------------------

def test_single_node_sweep_matches_serial_bytes(serial_doc):
    runner, coord, out, _ = run_fleet(fabric_config(), ["solo"])
    assert out["gaps"] == 0 and not runner.failures
    assert out["counters"]["completed"] == len(cells_of(runner))
    assert report_doc(runner) == serial_doc


def test_two_node_sweep_matches_serial_bytes_exactly_once(serial_doc):
    runner, coord, out, nodes = run_fleet(
        fabric_config(min_nodes=2), ["alpha", "beta"]
    )
    assert out["gaps"] == 0 and not runner.failures
    assert report_doc(runner) == serial_doc
    c = out["counters"]
    # Exactly-once accounting on a clean fleet: every cell assigned and
    # merged once, nothing fenced, duplicated, or resubmitted.
    total = len(cells_of(runner))
    assert c["completed"] == total and c["assigned"] == total
    assert c["duplicates"] == 0 and c["fenced"] == 0
    assert c["resubmitted"] == 0 and c["nodes_dead"] == 0
    assert c["nodes_joined"] == 2
    # Both nodes did real work (the ring splits these six cells).
    assert all(n.counters["assigned"] > 0 for n in nodes)
    # Work landed where the ring routed it.
    ring = HashRing()
    ring.add("alpha")
    ring.add("beta")
    owners = {ring.lookup(route_key(*cell)) for cell in cells_of(runner)}
    assert owners == {"alpha", "beta"}


# ---------------------------------------------------------------------
# node death: heartbeat timeout -> exactly-once resubmission
# ---------------------------------------------------------------------

def _silent_node(port: int, name: str):
    """Handshake like a node, then never heartbeat and never work."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    transport = FrameSocket(sock)
    transport.send({
        "type": "hello", "node": name, "pid": 0,
        "proto": PROTOCOL_VERSION, "workers": 1,
    })
    try:
        while True:
            transport.recv(timeout=0.2)  # drain assigns; do nothing
    except (ConnectionClosed, ProtocolError, OSError):
        pass
    finally:
        transport.close()


def test_silent_node_dies_and_its_cells_are_resubmitted(serial_doc):
    # "beta" owns five of the six cells on an {alpha, beta} ring, so the
    # silent impostor is guaranteed in-flight work when it dies.
    runner = make_runner()
    coord, coord_thread, out = start_coordinator(
        runner, fabric_config(min_nodes=2, heartbeat_timeout_s=1.0)
    )
    impostor = threading.Thread(
        target=_silent_node, args=(coord.port, "beta"), daemon=True
    )
    impostor.start()
    worker = FabricNode(NodeConfig(
        port=coord.port, name="alpha", poll_s=0.01,
        backoff_base_s=0.05, backoff_max_s=0.5,
    ))
    worker_thread = threading.Thread(target=worker.run, daemon=True)
    worker_thread.start()

    coord_thread.join(timeout=90.0)
    assert not coord_thread.is_alive(), "coordinator did not finish"
    worker.request_shutdown()
    worker_thread.join(timeout=15.0)
    impostor.join(timeout=15.0)

    c = out["counters"]
    assert c["nodes_dead"] == 1, "the silent node must be declared dead"
    assert c["resubmitted"] >= 1, "its in-flight cells must be resubmitted"
    # The resubmission-time shed gaps were cleared by the survivor's
    # successes: zero gaps, and the report is still byte-identical.
    assert out["gaps"] == 0 and not runner.failures
    assert report_doc(runner) == serial_doc
    assert not coord.nodes["beta"].alive
    assert out["nodes"]["beta"]["outstanding"] == 0


# ---------------------------------------------------------------------
# epoch fencing + duplicate suppression (unit level, no sockets)
# ---------------------------------------------------------------------

def test_zombie_epochs_are_fenced_and_duplicates_dropped():
    runner = make_runner()
    coord = FabricCoordinator(runner, cells_of(runner))
    zombie = NodeClient("z", epoch=7, writer=None)
    coord.nodes["z"] = zombie
    result = {
        "type": "result", "epoch": 6, "task_id": "t1", "run_kind": "cpu",
        "config": "BaseCMOS", "workload": "lu", "extra": [], "ok": False,
        "failure": None,
    }

    # Stale epoch (a pre-reconnect result) is fenced, not merged.
    coord._apply_result(zombie, result)
    assert coord.counters["fenced"] == 1
    assert not runner.failures and not coord.done

    # Right epoch but a dead session (heartbeat-timeout zombie whose
    # socket still delivers): fenced too.
    zombie.alive = False
    coord._apply_result(zombie, dict(result, epoch=7))
    assert coord.counters["fenced"] == 2
    assert not coord.done

    # A live session re-delivering an already-merged cell is deduped.
    zombie.alive = True
    coord.done.add(("cpu", "BaseCMOS", "lu"))
    coord._apply_result(zombie, dict(result, epoch=7))
    assert coord.counters["duplicates"] == 1
    assert coord.counters["completed"] == 0 and coord.counters["failed"] == 0


def test_reconnect_supersedes_old_session_with_fresh_epoch(serial_doc):
    # A node that drops its link mid-sweep must rejoin under a higher
    # epoch and the sweep must still finish complete and identical.
    runner = make_runner()
    coord, coord_thread, out = start_coordinator(
        runner, fabric_config(min_nodes=2, heartbeat_timeout_s=1.0)
    )

    # First "beta" session: handshake, hold work, then vanish.
    flaky = threading.Thread(
        target=_silent_node, args=(coord.port, "beta"), daemon=True
    )
    flaky.start()
    worker_a = FabricNode(NodeConfig(
        port=coord.port, name="alpha", poll_s=0.01,
        backoff_base_s=0.05, backoff_max_s=0.5,
    ))
    thread_a = threading.Thread(target=worker_a.run, daemon=True)
    thread_a.start()
    time.sleep(0.3)
    # Real "beta" arrives while the impostor's socket is still open: the
    # reconnect supersedes the old session (fencing it) under a new epoch.
    worker_b = FabricNode(NodeConfig(
        port=coord.port, name="beta", poll_s=0.01,
        backoff_base_s=0.05, backoff_max_s=0.5,
    ))
    thread_b = threading.Thread(target=worker_b.run, daemon=True)
    thread_b.start()

    coord_thread.join(timeout=90.0)
    assert not coord_thread.is_alive()
    for w, t in ((worker_a, thread_a), (worker_b, thread_b)):
        w.request_shutdown()
        t.join(timeout=15.0)
    flaky.join(timeout=15.0)

    assert out["gaps"] == 0 and not runner.failures
    assert report_doc(runner) == serial_doc
    assert out["counters"]["nodes_dead"] >= 1  # the superseded session
    epochs = [n["epoch"] for n in out["nodes"].values()]
    assert len(set(epochs)) == len(epochs)  # every session uniquely fenced


# ---------------------------------------------------------------------
# drain: every unfinished cell becomes an explicit shed gap
# ---------------------------------------------------------------------

def test_drain_before_any_node_shed_gaps_everywhere(tmp_path):
    runner = SweepRunner(
        SweepSettings(**SMALL),
        policy=GuardPolicy(max_retries=0),
        checkpoint=str(tmp_path / "fabric.ckpt.json"),
    )
    coord = FabricCoordinator(
        runner, [("cpu", c, w) for c in CONFIGS for w in SMALL["apps"]],
        fabric_config(drain_deadline_s=0.5),
    )
    coord.request_shutdown()  # drain requested before serve() even starts
    out = asyncio.run(coord.serve())
    assert out["completed"] == 0
    assert out["gaps"] == len(cells_of(runner))
    assert all(f.kind == "shed" for f in runner.failures.values())
    assert all(
        "drain" in f.message for f in runner.failures.values()
    )
    # The drain flushed a checkpoint carrying exactly those gaps, so a
    # serial resume serves precisely the missing cells.
    resumed = SweepRunner(
        SweepSettings(**SMALL),
        checkpoint=str(tmp_path / "fabric.ckpt.json"), resume=True,
    )
    resumed.cpu_sweep(CONFIGS)
    assert not resumed.failures
    assert resumed.telemetry.summary()["cache"]["cpu"]["misses"] == 6


def test_no_nodes_before_join_timeout_sheds_remaining():
    runner = make_runner()
    coord = FabricCoordinator(
        runner, cells_of(runner),
        fabric_config(join_timeout_s=0.3, rejoin_grace_s=0.3),
    )
    out = asyncio.run(coord.serve())
    assert out["gaps"] == len(cells_of(runner))
    assert all(
        "no live fabric nodes" in f.message for f in runner.failures.values()
    )


def test_store_hit_at_serve_clears_a_recorded_gap(tmp_path):
    """Cells the durable store already holds are cache hits at serve(),
    and, as in a local sweep, supersede a gap recorded for them."""
    store = tmp_path / "store"
    SweepRunner(SweepSettings(**SMALL), store=store).cpu_run("BaseCMOS", "lu")
    runner = SweepRunner(
        SweepSettings(**SMALL),
        policy=GuardPolicy(max_retries=0, backoff_base_s=0.0, jitter=0.0),
        store=store,
    )
    runner.record_gap(RunFailure(
        run_kind="cpu", config="BaseCMOS", workload="lu", kind="crash",
        attempts=1, message="earlier attempt",
    ))
    coord = FabricCoordinator(
        runner, [("cpu", "BaseCMOS", "lu")], fabric_config()
    )
    out = asyncio.run(coord.serve())
    assert runner.failures == {}
    assert out["gaps"] == 0 and out["completed"] == 1
    assert runner.telemetry.summary()["cache"]["cpu"] == {"hits": 1, "misses": 0}


# ---------------------------------------------------------------------
# seeded network faults: drops/dups/delays, still complete + identical
# ---------------------------------------------------------------------

def test_sweep_completes_under_seeded_network_faults(serial_doc):
    faults.install(FaultInjector(FaultPlan(
        "net",
        drop_p=0.08, delay_p=0.10, dup_p=0.08, delay_s=0.02, seed=42,
    )))
    try:
        runner, coord, out, _ = run_fleet(
            fabric_config(
                min_nodes=2, task_timeout_s=2.0, heartbeat_timeout_s=10.0,
            ),
            ["alpha", "beta"],
        )
    finally:
        faults.uninstall("net")
    assert out["gaps"] == 0 and not runner.failures
    assert report_doc(runner) == serial_doc
    # Dropped frames surface as duplicates/resubmissions/timeouts, never
    # as silent loss: the exactly-once merge keeps the ledger closed.
    c = out["counters"]
    assert c["completed"] == len(cells_of(runner))
