"""Crash-consistent durable file I/O -- the one write path to disk.

Every persistent artifact the service tier owns (checkpoints, store
entries, health/metrics/fleet snapshots) goes through this module
instead of hand-rolling its own temp-file dance.  The write protocol
is the full crash-consistency sequence, not just an atomic replace:

1. write to ``<name>.tmp.<pid>`` in the target directory,
2. flush and **fsync the file descriptor** (the bytes are on the
   platter, not in the page cache),
3. ``os.replace`` onto the target (atomic on POSIX),
4. **fsync the parent directory** (the rename itself is durable).

Without steps 2 and 4 a power loss after "success" can resurface the
old file, a zero-byte file, or garbage -- rename-without-fsync only
protects against process death, not machine death.

Records (:func:`write_record` / :func:`read_record`) additionally wrap
the payload in a checksum envelope so torn or partially-flushed writes
are *detected* on open: a record that fails its checksum (or fails to
parse at all) is quarantined to ``<name>.quarantine`` and reported as
missing, never raised.  Writers call :func:`sweep_orphan_temps` at
startup so ``*.tmp.<pid>`` droppings from crashed processes do not
accumulate forever.

Fault injection (:mod:`repro.resilience.faults`, ``REPRO_DISK_FAULTS*``)
is honored at this single choke point: an injected EIO/ENOSPC raises
``OSError`` exactly as a real one would (with the temp file cleaned
up), a torn write silently corrupts the record for the read-side
checksum to catch, and a lost fsync skips durability while still
"succeeding".

Chaos hook: ``REPRO_DISKIO_CRASH_AFTER_TMP=<site>:<n>`` SIGKILLs the
process immediately after the *n*-th write at ``site`` has fsynced its
temp file but before the rename -- the exact window a crash-consistent
writer must leave harmless (the target is untouched; the temp is an
orphan for the next startup sweep).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import signal
from pathlib import Path

from repro.resilience import faults

#: Suffix of quarantined (checksum-failed / unparsable) records.
QUARANTINE_SUFFIX = ".quarantine"

_TMP_RE = re.compile(r"\.tmp\.(\d+)$")

#: Module-level counters: cheap plain ints, surfaced through telemetry
#: probes (``sweep.diskio.*``) so every process's durable-I/O behaviour
#: shows up in metrics snapshots and ``repro top``.
_STATS = {
    "writes": 0,
    "write_failures": 0,
    "reads": 0,
    "quarantined": 0,
    "fsync_skipped": 0,
    "orphans_swept": 0,
}

#: Per-site write counts for the SIGKILL-mid-flush chaos hook.
_CRASH_COUNTS: "dict[str, int]" = {}


def stats() -> "dict[str, int]":
    """A copy of this process's durable-I/O counters."""
    return dict(_STATS)


def reset_stats() -> None:
    """Zero the counters and the crash-hook state (test hygiene)."""
    for key in _STATS:
        _STATS[key] = 0
    _CRASH_COUNTS.clear()


def _emit(event: str, **fields) -> None:
    """Best-effort structured event; never lets telemetry break I/O."""
    try:
        from repro.obs.events import get_event_log

        get_event_log().emit(event, **fields)
    except Exception:
        pass


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platforms/filesystems without directory fds
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _maybe_crash_after_tmp(site: str) -> None:
    spec = os.environ.get("REPRO_DISKIO_CRASH_AFTER_TMP", "")
    if not spec:
        return
    want, _, nth = spec.partition(":")
    if want != site:
        return
    count = _CRASH_COUNTS.get(site, 0) + 1
    _CRASH_COUNTS[site] = count
    if count == int(nth or 1):
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


def durable_write_text(path, text: str, *, site: str = "diskio") -> None:
    """Crash-consistently replace ``path`` with ``text``.

    Raises ``OSError`` (real or injected) on failure; the temp file
    never survives an exception, so failed writes leave no droppings --
    only an actual process death between temp-fsync and rename does,
    and startup sweeps collect those.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    injector = faults.active("disk")
    fate = injector.draw(site) if injector is not None else None
    if fate == "eio":
        _STATS["write_failures"] += 1
        _emit("diskio.fault", site=site, kind="eio", path=str(target))
        raise OSError(errno.EIO, f"injected EIO at {site}", str(target))
    data = text.encode("utf-8")
    tmp = target.with_name(target.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            if fate == "enospc":
                # A real ENOSPC lands mid-write: some bytes made it,
                # then the device was full.  The except-unlink below
                # restores the no-droppings invariant either way.
                handle.write(data[: len(data) // 2])
                _emit("diskio.fault", site=site, kind="enospc",
                      path=str(target))
                raise OSError(
                    errno.ENOSPC, f"injected ENOSPC at {site}", str(target)
                )
            if fate == "torn":
                # Half the payload lands and the rename below still
                # "succeeds" -- the checksum envelope is the only thing
                # standing between this and silent corruption.
                handle.write(data[: max(len(data) // 2, 1)])
                _emit("diskio.fault", site=site, kind="torn",
                      path=str(target))
            else:
                handle.write(data)
            if fate == "lost_fsync":
                _STATS["fsync_skipped"] += 1
                _emit("diskio.fault", site=site, kind="lost_fsync",
                      path=str(target))
            else:
                handle.flush()
                os.fsync(handle.fileno())
        _maybe_crash_after_tmp(site)
        os.replace(tmp, target)
        if fate != "lost_fsync":
            _fsync_dir(target.parent)
    except OSError:
        _STATS["write_failures"] += 1
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    _STATS["writes"] += 1


def record_checksum(payload) -> str:
    """sha256 over the canonical JSON form of ``payload``."""
    canon = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_record(path, payload: dict, *, site: str = "record") -> None:
    """Durably write ``payload`` wrapped in a checksum envelope."""
    doc = {"checksum": record_checksum(payload), "payload": payload}
    durable_write_text(
        path,
        json.dumps(doc, indent=1, sort_keys=True, default=str),
        site=site,
    )


def quarantine_file(path, *, site: str = "record", reason: str = "corrupt"):
    """Move a damaged file aside (``<name>.quarantine``) and report it.

    Returns the quarantine path, or None if the move itself failed.
    """
    target = Path(path)
    dest = target.with_name(target.name + QUARANTINE_SUFFIX)
    try:
        os.replace(target, dest)
    except OSError:
        return None
    _STATS["quarantined"] += 1
    _emit("diskio.quarantine", site=site, path=str(target), reason=reason)
    return dest


def read_record(path, *, site: str = "record", quarantine: bool = True):
    """Read a record written by :func:`write_record`; fail soft.

    Returns the payload dict, or None when the file is missing.  A
    torn, truncated, or checksum-failed record is quarantined (moved to
    ``<name>.quarantine``) rather than raised, and reads as missing.  A
    legacy plain-JSON document (no envelope) is returned as-is, so old
    snapshot files stay readable across the upgrade.
    """
    target = Path(path)
    try:
        raw = target.read_text()
    except OSError:
        return None
    _STATS["reads"] += 1

    def damaged(reason: str):
        if quarantine:
            quarantine_file(target, site=site, reason=reason)
        else:
            _STATS["quarantined"] += 1
            _emit("diskio.quarantine", site=site, path=str(target),
                  reason=reason, moved=False)
        return None

    if not raw.strip():
        return damaged("empty")
    try:
        doc = json.loads(raw)
    except ValueError:
        return damaged("torn")
    if not isinstance(doc, dict):
        return damaged("not-a-record")
    if set(doc) == {"checksum", "payload"}:
        if doc["checksum"] != record_checksum(doc["payload"]):
            return damaged("checksum")
        return doc["payload"]
    return doc  # legacy pre-envelope document


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM)
    return True


def sweep_orphan_temps(directory, *, site: str = "diskio") -> int:
    """Unlink ``*.tmp.<pid>`` droppings from dead writers.

    Called by writers at startup.  A temp whose pid is still alive (and
    is not us) belongs to a concurrent writer and is left alone; our
    own pid at startup means a recycled pid from a crash, so it goes
    too.  Returns the number removed.
    """
    root = Path(directory)
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    removed = 0
    for name in names:
        match = _TMP_RE.search(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid != os.getpid() and _pid_alive(pid):
            continue
        try:
            (root / name).unlink()
        except OSError:
            continue
        removed += 1
    if removed:
        _STATS["orphans_swept"] += removed
        _emit("diskio.orphans_swept", site=site, directory=str(root),
              count=removed)
    return removed
