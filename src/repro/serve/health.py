"""Liveness/readiness snapshots for the simulation job service.

No network is required (or wanted) in this environment, so health is a
*file* contract: the running service atomically rewrites a small JSON
document (the ``--health-file`` path) on every state change plus a
periodic heartbeat, and ``repro serve --health`` dumps it.  An orchestrator gets the two standard probes:

* **liveness** -- the writer stamps ``updated_at`` (wall clock) on every
  write; a reader treats a snapshot older than ``stale_after_s`` as a
  dead service (the PID is included so a supervisor can double-check);
* **readiness** -- ``ready`` is true only while the service is accepting
  admissions: started, not draining, and the queue below capacity.

The body carries the numbers the ISSUE's robustness story turns on:
queue depth vs capacity, per-key breaker states, pool utilisation
(in-flight workers over dispatcher slots), and the served / failed /
shed-by-reason counters, so "is it shedding and why" is one file read.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.resilience import diskio

#: A snapshot older than this is reported as not alive by readers.
DEFAULT_STALE_AFTER_S = 30.0


@dataclasses.dataclass
class HealthSnapshot:
    """One point-in-time health document for a running service."""

    alive: bool
    ready: bool
    draining: bool
    queue_depth: int
    queue_capacity: int
    workers: int
    in_flight: int
    isolation: str
    degraded: bool
    breakers: dict
    breakers_open: int
    counters: dict
    shed_reasons: dict
    pid: int = dataclasses.field(default_factory=os.getpid)
    updated_at: float = dataclasses.field(default_factory=time.time)
    #: Monotonically increasing write counter.  Readers that poll (the
    #: ``repro top`` watcher) detect liveness from *seq advancing* under
    #: their own monotonic clock instead of trusting cross-process wall
    #: clocks, which may step.
    seq: int = 0
    #: Age of the companion metrics snapshot at write time (seconds on
    #: the writer's monotonic clock); None when metrics export is off.
    metrics_age_s: "float | None" = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "HealthSnapshot":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def utilization(self) -> float:
        """In-flight dispatcher slots as a 0..1 fraction."""
        return self.in_flight / self.workers if self.workers else 0.0

    def describe(self) -> str:
        """Human-readable multi-line dump (the ``--health`` text mode)."""
        state = "draining" if self.draining else (
            "ready" if self.ready else "not-ready"
        )
        age = max(time.time() - self.updated_at, 0.0)
        lines = [
            f"service: {'alive' if self.alive else 'DOWN'} ({state}), "
            f"pid {self.pid}, updated {age:.1f}s ago (seq {self.seq})",
            f"queue:   {self.queue_depth}/{self.queue_capacity} queued, "
            f"{self.in_flight}/{self.workers} in flight "
            f"({self.isolation} isolation"
            f"{', DEGRADED' if self.degraded else ''})",
            f"jobs:    " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.counters.items())
            ),
        ]
        if self.shed_reasons:
            lines.append(
                "shed:    " + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.shed_reasons.items())
                )
            )
        if self.breakers:
            lines.append(f"breakers ({self.breakers_open} not closed):")
            for key, snap in sorted(self.breakers.items()):
                extra = (
                    f", {snap['consecutive_failures']} consecutive failures"
                    if snap["consecutive_failures"]
                    else ""
                )
                lines.append(
                    f"  {key}: {snap['state']} "
                    f"(trips {snap['trips']}{extra})"
                )
        return "\n".join(lines)


def write_health(path: "str | os.PathLike", snapshot: HealthSnapshot) -> None:
    """Crash-consistently replace the health file (never a torn doc)."""
    diskio.write_record(path, snapshot.to_dict(), site="health")


def _load_snapshot(path) -> "HealthSnapshot | None":
    doc = diskio.read_record(path, site="health")
    if doc is None:
        return None
    try:
        return HealthSnapshot.from_dict(doc)
    except (ValueError, TypeError, KeyError):
        return None


def read_health(
    path: "str | os.PathLike",
    *,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
) -> "HealthSnapshot | None":
    """Load and staleness-check a health file; ``None`` if missing/bad.

    A stale snapshot (writer stopped heartbeating without a clean
    shutdown) is returned with ``alive``/``ready`` forced false rather
    than hidden -- the counters are still the best available evidence.
    """
    snapshot = _load_snapshot(path)
    if snapshot is None:
        return None
    # Clamp negative ages: the writer's wall clock may be ahead of ours
    # (NTP step, container clock skew); a snapshot from "the future" is
    # fresh, not stale, and must never trip the liveness probe.
    if max(time.time() - snapshot.updated_at, 0.0) > stale_after_s:
        snapshot.alive = False
        snapshot.ready = False
    return snapshot


class HealthWatcher:
    """Poll a health file with *reader-side monotonic* staleness.

    One-shot readers (``read_health``) can only compare wall clocks
    across processes, which break under clock steps.  A polling reader
    (``repro top``) can do better: it remembers the last ``seq`` it saw
    and the monotonic instant it changed, and declares the writer dead
    only when the sequence stops advancing for ``stale_after_s`` of the
    *reader's own* monotonic time -- immune to either side's wall clock.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        *,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        clock=time.monotonic,
    ):
        self.path = path
        self.stale_after_s = stale_after_s
        self._clock = clock
        self._last_marker: "tuple | None" = None
        self._last_advance: "float | None" = None

    def poll(self) -> "HealthSnapshot | None":
        """The current snapshot, staleness-checked monotonically."""
        snapshot = _load_snapshot(self.path)
        if snapshot is None:
            return None
        now = self._clock()
        marker = (snapshot.seq, snapshot.updated_at)
        if self._last_marker != marker:
            self._last_marker = marker
            self._last_advance = now
        elif (
            self._last_advance is not None
            and now - self._last_advance > self.stale_after_s
        ):
            snapshot.alive = False
            snapshot.ready = False
        return snapshot

    def silent_s(self) -> "float | None":
        """Seconds since the snapshot last advanced (reader-monotonic)."""
        if self._last_advance is None:
            return None
        return max(self._clock() - self._last_advance, 0.0)
