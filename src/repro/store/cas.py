"""Durable content-addressed result store.

One entry per simulated cell, addressed by
:func:`repro.store.address.content_address` over (settings fingerprint,
run kind, config, workload, extras, seed, sim version) and laid out as
``<root>/objects/<aa>/<address>.json`` -- the same two-level fan-out
git uses, so a store with millions of entries never puts millions of
files in one directory.

Entries are written through :mod:`repro.resilience.diskio`, so every
object is crash-consistent (fsynced temp + rename + directory fsync)
and checksum-enveloped; a torn or corrupted entry is quarantined on
read and simply misses.  The payload carries the encoded result (the
same codecs the checkpoint layer uses) plus enough provenance
(``cell``, ``sim_version``) for :meth:`ResultStore.fsck` to verify an
entry sits at the address its content demands and for
:meth:`ResultStore.gc` to drop entries from stale simulator versions.

The store is multi-process safe by construction: concurrent writers of
the same cell produce byte-identical content at the same address (the
simulators are deterministic), and distinct pids never collide on temp
names.  The sweep checkpoint
(:class:`~repro.resilience.checkpoint.SweepCheckpoint`) is this same
store rooted at the ``--checkpoint`` path.

Results are encoded losslessly: every dataclass in the
``CpuRunResult`` / ``GpuRunResult`` trees is plain scalars, dicts, and
lists, so ``dataclasses.asdict`` round-trips through the explicit
decoders below with exact float equality.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

from repro.core.simulate import CpuRunResult, GpuRunResult
from repro.cpu.core import ActivityCounts, CoreResult
from repro.cpu.multicore import MulticoreResult
from repro.gpu.cu import CUResult
from repro.gpu.gpu import GpuResult
from repro.power.model import EnergyBreakdown
from repro.resilience import diskio
from repro.store.address import content_address

#: Bump when the entry payload layout changes; mismatches read as misses.
ENTRY_SCHEMA = 1


def encode_cpu_result(result: CpuRunResult) -> dict:
    return dataclasses.asdict(result)


def decode_cpu_result(data: dict) -> CpuRunResult:
    mc = data["multicore"]
    per_core = [
        CoreResult(**{**core, "activity": ActivityCounts(**core["activity"])})
        for core in mc["per_core"]
    ]
    return CpuRunResult(
        config=data["config"],
        app=data["app"],
        time_s=data["time_s"],
        energy=EnergyBreakdown(**data["energy"]),
        multicore=MulticoreResult(**{**mc, "per_core": per_core}),
    )


def encode_gpu_result(result: GpuRunResult) -> dict:
    return dataclasses.asdict(result)


def decode_gpu_result(data: dict) -> GpuRunResult:
    gpu = data["gpu"]
    return GpuRunResult(
        config=data["config"],
        kernel=data["kernel"],
        time_s=data["time_s"],
        energy=EnergyBreakdown(**data["energy"]),
        gpu=GpuResult(**{**gpu, "cu_result": CUResult(**gpu["cu_result"])}),
    )


_CODECS = {
    "cpu": (encode_cpu_result, decode_cpu_result),
    "gpu": (encode_gpu_result, decode_gpu_result),
    "dvfs": (encode_cpu_result, decode_cpu_result),
}


def current_sim_version() -> str:
    from repro import __version__

    return __version__


class ResultStore:
    """Content-addressed, crash-consistent store of simulation results."""

    #: The :mod:`~repro.resilience.diskio` site every read and write of
    #: this store reports (and draws disk faults) under.
    site = "store"

    def __init__(self, root, *, sim_version: "str | None" = None):
        self.root = Path(root)
        self.sim_version = sim_version or current_sim_version()
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        #: Per-process serving counters (hits/misses/puts/...).
        self.counters = {
            "hits": 0, "misses": 0, "puts": 0, "put_errors": 0,
            "quarantined": 0,
        }
        # Crashed writers leave *.tmp.<pid> droppings next to objects.
        swept = diskio.sweep_orphan_temps(self.objects, site=self.site)
        for shard in self._shards():
            swept += diskio.sweep_orphan_temps(shard, site=self.site)
        self.orphans_swept = swept

    # -- addressing ----------------------------------------------------
    def address(self, fingerprint: str, run_kind: str, config: str,
                workload: str, extra=(), seed: int = 0) -> str:
        """The content address of one (cell, sim version) result."""
        return content_address("result", {
            "fingerprint": fingerprint,
            "run_kind": run_kind,
            "config": config,
            "workload": workload,
            "extra": list(extra),
            "seed": seed,
            "sim_version": self.sim_version,
        })

    def _path(self, digest: str) -> Path:
        return self.objects / digest[:2] / f"{digest}.json"

    def _shards(self):
        try:
            names = sorted(os.listdir(self.objects))
        except OSError:
            return
        for name in names:
            shard = self.objects / name
            if shard.is_dir():
                yield shard

    def entries(self):
        """Every entry path, in deterministic (address) order."""
        for shard in self._shards():
            for name in sorted(os.listdir(shard)):
                if name.endswith(".json"):
                    yield shard / name

    # -- read/write ----------------------------------------------------
    def get(self, fingerprint: str, run_kind: str, config: str,
            workload: str, extra=(), seed: int = 0):
        """The decoded result for a cell, or None on miss/damage."""
        digest = self.address(fingerprint, run_kind, config, workload,
                              extra, seed)
        path = self._path(digest)
        payload = diskio.read_record(path, site=self.site)
        if payload is None:
            self.counters["misses"] += 1
            return None
        if (payload.get("schema") != ENTRY_SCHEMA
                or payload.get("run_kind") != run_kind):
            self.counters["misses"] += 1
            return None
        try:
            result = _CODECS[run_kind][1](payload["result"])
        except Exception:
            # Checksum held but the body is not a decodable result --
            # a foreign or stale-layout object squatting on the address.
            diskio.quarantine_file(path, site=self.site, reason="undecodable")
            self.counters["quarantined"] += 1
            self.counters["misses"] += 1
            return None
        self.counters["hits"] += 1
        return result

    def put(self, fingerprint: str, run_kind: str, config: str,
            workload: str, extra, result, seed: int = 0) -> str:
        """Durably store one cell result; returns its address.

        Raises ``OSError`` on write failure (callers degrade, they do
        not crash a sweep over a full disk).
        """
        digest = self.address(fingerprint, run_kind, config, workload,
                              extra, seed)
        payload = {
            "schema": ENTRY_SCHEMA,
            "run_kind": run_kind,
            "sim_version": self.sim_version,
            "cell": {
                "fingerprint": fingerprint,
                "config": config,
                "workload": workload,
                "extra": list(extra),
                "seed": seed,
            },
            "result": _CODECS[run_kind][0](result),
        }
        diskio.write_record(self._path(digest), payload, site=self.site)
        self.counters["puts"] += 1
        return digest

    # -- maintenance ---------------------------------------------------
    def fsck(self, *, quarantine: bool = True) -> dict:
        """Verify every entry; quarantine (or just report) the damaged.

        Checks three layers per entry: the diskio checksum envelope,
        the payload schema, and that the entry sits at the address its
        recorded cell provenance hashes to (a moved or renamed object
        is as wrong as a torn one).  Also sweeps orphaned temp files.
        """
        report = {
            "checked": 0, "ok": 0, "damaged": [], "quarantined": 0,
            "orphans_swept": diskio.sweep_orphan_temps(
                self.objects, site=f"{self.site}.fsck"
            ),
        }
        for shard in self._shards():
            report["orphans_swept"] += diskio.sweep_orphan_temps(
                shard, site=f"{self.site}.fsck"
            )
        for path in self.entries():
            report["checked"] += 1
            payload = diskio.read_record(
                path, site=f"{self.site}.fsck", quarantine=quarantine
            )
            reason = None
            if payload is None:
                reason = "checksum"  # already quarantined by read_record
            elif payload.get("schema") != ENTRY_SCHEMA:
                reason = "schema"
            else:
                cell = payload.get("cell", {})
                expect = self.address(
                    cell.get("fingerprint"), payload.get("run_kind"),
                    cell.get("config"), cell.get("workload"),
                    cell.get("extra", ()), cell.get("seed", 0),
                )
                if payload.get("sim_version") != self.sim_version:
                    # Stale version: valid, just not addressable by this
                    # store instance.  gc's problem, not fsck's.
                    expect = path.stem
                if expect != path.stem:
                    reason = "misplaced"
            if reason is None:
                report["ok"] += 1
                continue
            report["damaged"].append({"path": str(path), "reason": reason})
            if reason == "checksum":
                if quarantine:
                    report["quarantined"] += 1
            elif quarantine and diskio.quarantine_file(
                path, site=f"{self.site}.fsck", reason=reason
            ) is not None:
                report["quarantined"] += 1
        self.counters["quarantined"] += report["quarantined"]
        return report

    def gc(self, *, max_bytes: "int | None" = None,
           keep_sim_version: "str | None" = None) -> dict:
        """Drop stale-version entries and enforce a size budget.

        Entries whose ``sim_version`` differs from ``keep_sim_version``
        (default: this store's version) are removed first; if the
        survivors still exceed ``max_bytes``, the oldest (by mtime) go
        until the budget holds.
        """
        keep = keep_sim_version or self.sim_version
        report = {"removed_stale": 0, "removed_over_budget": 0,
                  "remaining": 0, "bytes": 0}
        survivors = []
        for path in self.entries():
            payload = diskio.read_record(path, site=f"{self.site}.gc")
            if payload is None:
                continue  # damaged: quarantined by the read
            if payload.get("sim_version") != keep:
                try:
                    path.unlink()
                except OSError:
                    continue
                report["removed_stale"] += 1
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            survivors.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in survivors)
        if max_bytes is not None:
            survivors.sort()  # oldest first
            while survivors and total > max_bytes:
                _, size, path = survivors.pop(0)
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                report["removed_over_budget"] += 1
        report["remaining"] = len(survivors)
        report["bytes"] = total
        return report

    def stats(self) -> dict:
        return {
            **self.counters,
            "sim_version": self.sim_version,
            "root": str(self.root),
            "orphans_swept": self.orphans_swept,
        }
