"""Wire protocol for the distributed sweep fabric.

Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by a UTF-8 JSON object with a ``"type"`` key.  The same frame
bytes are produced by the synchronous node side (:class:`FrameSocket`)
and the asyncio coordinator side (:func:`send_frame` /
:func:`read_frame`), so either end can talk to the other and a capture
of the stream replays identically.

Message vocabulary (all JSON objects)
-------------------------------------
node -> coordinator:

* ``hello``      -- ``{node, pid, proto}``: session open.
* ``heartbeat``  -- ``{epoch, seq, health, in_flight}``: liveness plus
  the node's :class:`~repro.serve.health.HealthSnapshot` dict, rolled
  into the fleet view.
* ``result``     -- ``{epoch, task_id, run_kind, config, workload,
  extra, ok, result | failure, wall_s}``: one terminal cell outcome.
* ``drained``    -- ``{epoch}``: checkpoint flushed, node is quiescent.

coordinator -> node:

* ``welcome``    -- ``{node, epoch, heartbeat_s, settings, policy}``:
  accepts the session and fences it with a fresh epoch.
* ``assign``     -- ``{epoch, task_id, attempt, run_kind, config,
  workload, extra}``: run one cell.
* ``drain``      -- flush checkpoint, finish in-flight, reply
  ``drained``.
* ``fenced``     -- the sender's session epoch is stale; reconnect.
* ``bye``        -- sweep complete; the node may exit.

Every *send* on either side routes through the seeded ``net`` fault
injector (``repro.resilience.faults.active("net")``) when one is
installed: :func:`delivery` turns its draw into dropped, delayed,
duplicated, or partitioned frames, keyed deterministically on (seed,
site, frame seq).

The :class:`HashRing` at the bottom is the placement half of the
protocol: cells are consistent-hashed on (run_kind, config, workload)
so a cell keeps landing on the same node across sweeps -- circuit
breaker state and runner caches stay node-local -- and only ~1/N of
placements move when membership changes.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import socket
import struct
import threading
import time
from typing import Callable

from repro.resilience import faults
from repro.resilience.guard import stable_seed

#: Protocol revision carried in ``hello`` / rejected if incompatible.
PROTOCOL_VERSION = 1

#: Hard cap on a single frame payload; anything larger is a protocol
#: error, not an allocation request.
MAX_FRAME_BYTES = 32 << 20

_HEADER = struct.Struct(">I")


class ProtocolError(ValueError):
    """A malformed or oversized frame (the connection is unusable)."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (EOF mid-stream or at a boundary)."""


def encode_frame(message: dict) -> bytes:
    """Serialise one message to its length-prefixed wire form."""
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds cap")
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse a frame payload; every message must be an object with a type."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not an object with a 'type' key")
    return message


def delivery(injector: "faults.FaultInjector | None", site: str) -> "list[float]":
    """Per-copy delays for the next frame sent on ``site``.

    ``[0.0]`` is normal delivery, ``[]`` a dropped frame (a drop, a
    partition opening, or a frame inside an open partition window),
    ``[delay_s]`` a delayed one and ``[0.0, 0.0]`` a duplicate.
    """
    kind = injector.draw(site) if injector is not None else None
    if kind is None:
        return [0.0]
    if kind == "delay":
        return [injector.plan.delay_s]
    if kind == "dup":
        return [0.0, 0.0]
    return []


class FrameSocket:
    """Blocking-socket frame transport for the synchronous node side.

    Sends are thread-safe (one lock around the whole delivery schedule,
    so duplicated copies of a frame are never interleaved with another
    sender's bytes).  ``recv`` keeps an internal buffer across timeouts:
    a frame that arrives in pieces over several polls is reassembled,
    never lost.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        site: str = "link",
        injector: "faults.FaultInjector | None" = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._sock = sock
        self.site = site
        self._injector = injector
        self._sleep = sleep
        self._send_lock = threading.Lock()
        self._buf = b""

    def send(self, message: dict) -> None:
        """Send one frame, subject to the network fault schedule."""
        frame = encode_frame(message)
        with self._send_lock:
            for delay in delivery(self._injector, self.site):
                if delay > 0.0:
                    self._sleep(delay)
                self._sock.sendall(frame)

    def recv(self, timeout: "float | None" = None) -> "dict | None":
        """One message, or None on timeout; raises ConnectionClosed on EOF."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if len(self._buf) >= _HEADER.size:
                (length,) = _HEADER.unpack_from(self._buf)
                if length > MAX_FRAME_BYTES:
                    raise ProtocolError(f"frame of {length} bytes exceeds cap")
                if len(self._buf) >= _HEADER.size + length:
                    payload = self._buf[_HEADER.size:_HEADER.size + length]
                    self._buf = self._buf[_HEADER.size + length:]
                    return decode_payload(payload)
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
            try:
                self._sock.settimeout(remaining)
                chunk = self._sock.recv(65536)
            except socket.timeout:
                return None
            except OSError as exc:
                raise ConnectionClosed(f"recv failed: {exc}") from exc
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            self._buf += chunk

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


async def read_frame(reader: asyncio.StreamReader) -> dict:
    """Read one frame from an asyncio stream; ConnectionClosed on EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds cap")
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
        raise ConnectionClosed(f"stream ended: {exc}") from exc
    return decode_payload(payload)


async def send_frame(
    writer: asyncio.StreamWriter,
    message: dict,
    *,
    site: str = "link",
    injector: "faults.FaultInjector | None" = None,
) -> None:
    """Send one frame on an asyncio stream through the fault schedule.

    A delayed fate sleeps *inline* before the write, which also delays
    every later frame queued behind it on this link -- exactly how a
    slow link behaves, and deterministic because asyncio writes on one
    (writer, coroutine) pair are already serialised.
    """
    frame = encode_frame(message)
    fates = delivery(injector, site)
    for delay in fates:
        if delay > 0.0:
            await asyncio.sleep(delay)
        writer.write(frame)
    if fates:
        try:
            await writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ConnectionClosed(f"drain failed: {exc}") from exc


def route_key(run_kind: str, config: str, workload: str) -> str:
    """The placement key a cell hashes on (extras intentionally excluded
    so e.g. every DVFS point of one (config, app) shares a node and its
    warmed caches)."""
    return f"{run_kind}:{config}:{workload}"


class HashRing:
    """Consistent hash ring with virtual nodes.

    Each member contributes ``replicas`` points placed by the same
    process-independent :func:`stable_seed` hash the fault injectors
    use, so placement is identical in every process that builds the
    ring with the same membership -- no randomness, no PID leakage.
    """

    def __init__(self, *, replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: "list[tuple[int, str]]" = []
        self._hashes: "list[int]" = []
        self._members: "set[str]" = set()

    @property
    def members(self) -> "tuple[str, ...]":
        return tuple(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def add(self, name: str) -> None:
        if name in self._members:
            return
        self._members.add(name)
        for i in range(self.replicas):
            self._points.append((stable_seed("ring", name, i), name))
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def remove(self, name: str) -> None:
        if name not in self._members:
            return
        self._members.discard(name)
        self._points = [(h, n) for h, n in self._points if n != name]
        self._hashes = [h for h, _ in self._points]

    def lookup(self, key: str) -> "str | None":
        """The member owning ``key``, or None for an empty ring."""
        if not self._points:
            return None
        point = stable_seed("cell", key)
        idx = bisect.bisect_right(self._hashes, point)
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]
