"""CI chaos smoke for the crash-consistent storage layer.

Runs a sweep with a checkpoint AND a durable content-addressed result
store while seeded disk faults (ENOSPC mid-write, torn writes) are
injected at every durable-write site, SIGKILLs the process in the
worst-possible window (after a checkpoint temp file is fsynced, before
the rename), and asserts the durability contract:

* the interrupted run dies by SIGKILL, never by traceback -- injected
  disk failures degrade to recorded events while the sweep runs;
* the resumed run (faults still active) completes with zero gaps and a
  report byte-identical to a clean serial sweep of the same cells;
* ``repro store fsck`` quarantines whatever the torn writes damaged and
  a second fsck exits 0 -- the store heals in place;
* no ``*.tmp.<pid>`` orphan survives anywhere (checkpoint directory or
  store) once the resumed writers' startup sweeps have run.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/store_chaos.py

Sizing comes from the environment exactly like the CLI does
(``REPRO_INSTRUCTIONS``, ``REPRO_APPS``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

CONFIGS = ["BaseCMOS", "BaseCMOS-Enh", "BaseTFET", "BaseHet", "AdvHet",
           "AdvHet-2X"]

DISK_FAULTS = {
    "REPRO_DISK_FAULTS": "1",
    "REPRO_DISK_FAULTS_ENOSPC_P": "0.15",
    "REPRO_DISK_FAULTS_TORN_P": "0.15",
    # Seed 1: the first store put tears (silent corruption for the
    # read-side checksum and fsck to catch) and the checkpoint site
    # completes two temp writes early, so the crash hook below fires
    # mid-sweep deterministically.
    "REPRO_DISK_FAULTS_SEED": "1",
}


def run(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "repro", *argv], **kwargs)


def find_orphans(root) -> "list[str]":
    orphans = []
    for dirpath, _dirnames, filenames in os.walk(root):
        orphans += [os.path.join(dirpath, n) for n in filenames
                    if ".tmp." in n]
    return orphans


def chaos(workdir: str) -> int:
    checkpoint = os.path.join(workdir, "ck", "sweep.ckpt.json")
    store = os.path.join(workdir, "store")

    print("== serial baseline (no faults, no store) ==", flush=True)
    serial = run(["sweep", *CONFIGS, "--json"],
                 capture_output=True, text=True)
    assert serial.returncode == 0, serial.stderr[-2000:]
    baseline = json.loads(serial.stdout)
    assert baseline["failures"] == []
    baseline.pop("telemetry")

    print("== chaos run: disk faults + SIGKILL mid-checkpoint-flush ==",
          flush=True)
    chaos_env = {
        **os.environ, **DISK_FAULTS,
        # Die after the 2nd checkpoint temp file is fsynced, before its
        # rename: the previous checkpoint must survive, the temp must
        # strand, and the next startup sweep must collect it.
        "REPRO_DISKIO_CRASH_AFTER_TMP": "checkpoint:2",
    }
    crashed = run(
        ["sweep", *CONFIGS, "--checkpoint", checkpoint, "--store", store],
        env=chaos_env, capture_output=True, text=True,
    )
    assert crashed.returncode == -9, (
        f"expected death by SIGKILL, got {crashed.returncode}\n"
        f"{crashed.stderr[-2000:]}"
    )
    assert "Traceback" not in crashed.stderr, crashed.stderr[-2000:]
    stranded = find_orphans(workdir)
    print(f"crash window left {len(stranded)} stranded temp(s)", flush=True)
    assert stranded, "the crash window must strand the checkpoint temp"

    print("== resume under the same disk faults ==", flush=True)
    resume_env = {**os.environ, **DISK_FAULTS}
    resumed = run(
        ["sweep", *CONFIGS, "--checkpoint", checkpoint, "--store", store,
         "--resume", "--json"],
        env=resume_env, capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    report = json.loads(resumed.stdout)
    assert report["failures"] == [], report["failures"]
    telemetry = report.pop("telemetry")
    print("store counters:", json.dumps(telemetry.get("store", {})),
          flush=True)
    print("checkpoint counters:", json.dumps(telemetry.get("checkpoint", {})),
          flush=True)
    assert json.dumps(report, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    ), "resumed report diverged from the clean serial sweep"
    print("byte-identical to the serial report", flush=True)

    print("== store fsck: quarantine damage, then verify clean ==",
          flush=True)
    first = run(["store", "fsck", store], capture_output=True, text=True)
    print(first.stdout, flush=True)
    assert first.returncode in (0, 1), first.stderr[-2000:]
    second = run(["store", "fsck", store], capture_output=True, text=True)
    print(second.stdout, flush=True)
    assert second.returncode == 0, (
        "fsck did not heal the store: " + second.stdout
    )

    orphans = find_orphans(workdir)
    assert not orphans, f"orphaned temps survived: {orphans}"
    print("no *.tmp.* orphans anywhere; store chaos smoke passed",
          flush=True)
    return 0


def main() -> int:
    """Run the smoke in a fresh work directory: removed when it passes,
    kept (and its path printed) when it fails, for inspection."""
    workdir = tempfile.mkdtemp(prefix="store-chaos-")
    status = 1
    try:
        status = chaos(workdir)
    finally:
        if status == 0:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            print(f"work directory kept: {workdir}", file=sys.stderr,
                  flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
