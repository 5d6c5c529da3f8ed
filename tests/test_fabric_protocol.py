"""Fabric wire protocol: framing, transports, placement, network faults.

Everything here is deterministic and socket-local (socketpairs, fake
clocks, seeded injectors) -- no coordinator, no simulation.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.fabric.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameSocket,
    HashRing,
    ProtocolError,
    decode_payload,
    delivery,
    encode_frame,
    read_frame,
    route_key,
    send_frame,
)
from repro.resilience import faults
from repro.resilience.faults import FaultInjector, FaultPlan


# ---------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------

def test_frame_roundtrip_is_length_prefixed_json():
    frame = encode_frame({"type": "hello", "node": "n1"})
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert decode_payload(frame[4:]) == {"type": "hello", "node": "n1"}


def test_encode_rejects_oversized_frames():
    with pytest.raises(ProtocolError):
        encode_frame({"type": "blob", "data": "x" * (MAX_FRAME_BYTES + 1)})


@pytest.mark.parametrize("payload", [
    b"\xff\xfe not json",        # undecodable
    b"[1, 2, 3]",                # not an object
    b'{"no": "type key"}',       # object without a type
])
def test_decode_rejects_malformed_payloads(payload):
    with pytest.raises(ProtocolError):
        decode_payload(payload)


# ---------------------------------------------------------------------
# FrameSocket (the synchronous node-side transport)
# ---------------------------------------------------------------------

def _pair():
    a, b = socket.socketpair()
    return FrameSocket(a, site="a->b"), FrameSocket(b, site="b->a")


def test_frame_socket_roundtrip_and_timeout():
    a, b = _pair()
    try:
        a.send({"type": "ping", "n": 1})
        assert b.recv(timeout=1.0) == {"type": "ping", "n": 1}
        assert b.recv(timeout=0.05) is None  # quiet link times out
    finally:
        a.close()
        b.close()


def test_frame_socket_reassembles_partial_frames_across_polls():
    raw_a, raw_b = socket.socketpair()
    b = FrameSocket(raw_b)
    try:
        frame = encode_frame({"type": "big", "data": "y" * 500})
        raw_a.sendall(frame[:7])
        assert b.recv(timeout=0.05) is None   # header split mid-frame
        raw_a.sendall(frame[7:])
        msg = b.recv(timeout=1.0)
        assert msg["type"] == "big" and len(msg["data"]) == 500
    finally:
        raw_a.close()
        b.close()


def test_frame_socket_eof_raises_connection_closed():
    a, b = _pair()
    a.close()
    try:
        with pytest.raises(ConnectionClosed):
            b.recv(timeout=1.0)
    finally:
        b.close()


def test_frame_socket_injector_duplicates_and_drops():
    plan = FaultPlan("net", dup_p=1.0)
    raw_a, raw_b = socket.socketpair()
    a = FrameSocket(raw_a, site="dup", injector=FaultInjector(plan))
    b = FrameSocket(raw_b)
    try:
        a.send({"type": "echo"})
        assert b.recv(timeout=1.0) == {"type": "echo"}
        assert b.recv(timeout=1.0) == {"type": "echo"}  # the duplicate
    finally:
        a.close()
        b.close()

    drop = FaultInjector(FaultPlan("net", drop_p=1.0))
    raw_a, raw_b = socket.socketpair()
    a = FrameSocket(raw_a, site="drop", injector=drop)
    b = FrameSocket(raw_b)
    try:
        a.send({"type": "lost"})
        assert b.recv(timeout=0.05) is None
        assert drop.injected["drop"] == 1
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------------
# asyncio transport (the coordinator side)
# ---------------------------------------------------------------------

def test_async_frames_interoperate_with_sync_frames():
    async def main():
        s1, s2 = socket.socketpair()
        r1, w1 = await asyncio.open_connection(sock=s1)
        r2, w2 = await asyncio.open_connection(sock=s2)
        try:
            await send_frame(w1, {"type": "assign", "task_id": "t1"})
            msg = await read_frame(r2)
            assert msg == {"task_id": "t1", "type": "assign"}
            # Duplicated coordinator frame: both copies arrive, in order.
            inj = FaultInjector(FaultPlan("net", dup_p=1.0))
            await send_frame(w2, {"type": "result"}, site="s", injector=inj)
            assert (await read_frame(r1))["type"] == "result"
            assert (await read_frame(r1))["type"] == "result"
            w1.close()
            with pytest.raises(ConnectionClosed):
                await read_frame(r2)
        finally:
            for w in (w1, w2):
                try:
                    w.close()
                except Exception:
                    pass

    asyncio.run(main())


# ---------------------------------------------------------------------
# consistent-hash placement
# ---------------------------------------------------------------------

def test_route_key_excludes_extras():
    # Every DVFS point of one (config, workload) shares a placement key,
    # so its cells land on one node and share warmed caches.
    assert route_key("dvfs", "AdvHet", "lu") == "dvfs:AdvHet:lu"


def test_hash_ring_is_deterministic_across_instances():
    keys = [route_key("cpu", c, w)
            for c in ("BaseCMOS", "AdvHet", "BaseHet")
            for w in ("barnes", "lu", "radix", "fft")]
    a, b = HashRing(), HashRing()
    for name in ("n1", "n2", "n3"):
        a.add(name)
    for name in ("n3", "n1", "n2"):  # insertion order must not matter
        b.add(name)
    assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]
    assert a.members == ("n1", "n2", "n3")


def test_hash_ring_membership_change_moves_a_minority_of_keys():
    keys = [f"cpu:config{i}:app{j}" for i in range(20) for j in range(10)]
    ring = HashRing()
    ring.add("n1")
    ring.add("n2")
    before = {k: ring.lookup(k) for k in keys}
    ring.add("n3")
    moved = sum(1 for k in keys if ring.lookup(k) != before[k])
    # Consistent hashing: roughly 1/3 of keys move to the newcomer;
    # naive mod-hashing would move ~2/3.  Allow generous slack.
    assert 0 < moved < len(keys) // 2
    # Removing the newcomer restores the original placement exactly.
    ring.remove("n3")
    assert {k: ring.lookup(k) for k in keys} == before


def test_hash_ring_empty_and_duplicate_membership():
    ring = HashRing(replicas=8)
    assert ring.lookup("anything") is None
    ring.add("solo")
    ring.add("solo")  # idempotent
    assert len(ring) == 1
    assert ring.lookup("anything") == "solo"
    ring.remove("absent")  # harmless
    with pytest.raises(ValueError):
        HashRing(replicas=0)


# ---------------------------------------------------------------------
# seeded network faults
# ---------------------------------------------------------------------

def test_net_fault_plan_validates_probabilities():
    with pytest.raises(ValueError):
        FaultPlan("net", drop_p=1.5)
    with pytest.raises(ValueError):
        FaultPlan("net", drop_p=0.6, dup_p=0.6)  # bands must fit in [0, 1]
    with pytest.raises(ValueError):
        FaultPlan("net", delay_s=-1.0)
    plan = FaultPlan("net", drop_p=0.25, delay_p=0.25, dup_p=0.25,
                        partition_p=0.25)
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_net_fault_injector_is_seed_deterministic():
    plan = FaultPlan("net", drop_p=0.2, delay_p=0.2, dup_p=0.2, seed=11)
    a, b = FaultInjector(plan), FaultInjector(plan)
    fates_a = [delivery(a, "node-1->coordinator") for _ in range(64)]
    fates_b = [delivery(b, "node-1->coordinator") for _ in range(64)]
    assert fates_a == fates_b
    assert a.injected == b.injected
    assert a.injected["drop"] > 0 and a.injected["dup"] > 0
    # A different site draws an independent schedule.
    c = FaultInjector(plan)
    assert [delivery(c, "coordinator->node-1") for _ in range(64)] != fates_a


def test_net_fault_fate_vocabulary():
    def once(**params):
        return delivery(FaultInjector(FaultPlan("net", **params)), "s")

    assert once() == [0.0]
    assert delivery(None, "s") == [0.0]
    assert once(drop_p=1.0) == []
    assert once(dup_p=1.0) == [0.0, 0.0]
    assert once(delay_p=1.0, delay_s=0.25) == [0.25]


def test_net_fault_partition_opens_a_timed_drop_window():
    now = [100.0]
    inj = FaultInjector(
        FaultPlan("net", partition_p=0.2, partition_s=1.0, seed=3),
        clock=lambda: now[0],
    )
    for _ in range(400):
        delivery(inj, "link")
        if inj.injected["partition"]:
            break
    assert inj.injected["partition"] == 1
    # Inside the window every frame on the site drops, regardless of
    # its own draw.
    before = inj.injected["partition_drop"]
    assert delivery(inj, "link") == []
    assert delivery(inj, "link") == []
    assert inj.injected["partition_drop"] == before + 2
    # Other sites are unaffected (partitions are directional).
    assert delivery(inj, "other-link") in ([0.0], [], [0.0, 0.0])
    # After the window expires, delivery resumes.
    now[0] += 1.5
    assert any(delivery(inj, "link") == [0.0] for _ in range(100))


def test_network_injector_install_and_env_gate(monkeypatch):
    inj = faults.install(FaultInjector(FaultPlan("net", drop_p=1.0)))
    assert faults.active("net") is inj
    faults.uninstall("net")
    assert faults.active("net") is None

    monkeypatch.setenv("REPRO_NET_FAULTS", "1")
    monkeypatch.setenv("REPRO_NET_FAULTS_DROP_P", "0.125")
    monkeypatch.setenv("REPRO_NET_FAULTS_SEED", "9")
    faults.reset()
    env_inj = faults.active("net")
    assert env_inj is not None
    assert env_inj.plan.drop_p == 0.125 and env_inj.plan.seed == 9
    assert faults.active("net") is env_inj  # frame seqs persist

    monkeypatch.delenv("REPRO_NET_FAULTS")
    faults.reset()
    assert faults.active("net") is None
