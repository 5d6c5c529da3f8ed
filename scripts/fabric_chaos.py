"""CI chaos smoke for the distributed sweep fabric.

Runs the full out-of-process topology -- one ``repro fabric coordinator``
and two ``repro fabric node`` subprocesses with seeded network faults on
the node links -- SIGKILLs one node mid-sweep, and asserts the
robustness contract:

* the dead node is detected and its in-flight cells are resubmitted;
* the sweep completes with zero gaps (exit status 0);
* the final report is byte-identical to a serial ``repro sweep`` of the
  same cells (after popping the run-specific ``telemetry``/``fabric``
  keys);
* the fleet rollup file renders via ``repro top --fleet``.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/fabric_chaos.py

Sizing comes from the environment exactly like the CLI does
(``REPRO_INSTRUCTIONS``, ``REPRO_APPS``); the CI job pins both so the
kill lands mid-sweep.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

CONFIGS = ["BaseCMOS", "BaseCMOS-Enh", "BaseTFET", "BaseHet", "AdvHet",
           "AdvHet-2X"]
PORT = int(os.environ.get("FABRIC_CHAOS_PORT", "7177"))
KILL_AFTER_S = float(os.environ.get("FABRIC_CHAOS_KILL_AFTER_S", "1.5"))

NODE_FAULTS = {
    "REPRO_NET_FAULTS": "1",
    "REPRO_NET_FAULTS_DROP_P": "0.05",
    "REPRO_NET_FAULTS_DUP_P": "0.05",
    "REPRO_NET_FAULTS_DELAY_P": "0.10",
    "REPRO_NET_FAULTS_DELAY_S": "0.02",
    "REPRO_NET_FAULTS_SEED": "7",
}


def run(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "repro", *argv], **kwargs)


def spawn(argv, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "repro", *argv], **kwargs)


def chaos(workdir: str) -> int:
    fleet_dir = os.path.join(workdir, "fleet")

    print("== serial baseline ==", flush=True)
    serial = run(["sweep", *CONFIGS, "--json"],
                 capture_output=True, text=True)
    assert serial.returncode == 0, serial.stderr[-2000:]
    baseline = json.loads(serial.stdout)
    assert baseline["failures"] == []

    print("== fabric: coordinator + 2 nodes, SIGKILL one ==", flush=True)
    coordinator = spawn(
        ["fabric", "coordinator", *CONFIGS,
         "--listen", f"127.0.0.1:{PORT}", "--nodes", "2",
         "--task-timeout", "5", "--grace", "30",
         "--fleet-dir", fleet_dir, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    node_env = {**os.environ, **NODE_FAULTS}
    nodes = {
        name: spawn(
            ["fabric", "node", "--connect", f"127.0.0.1:{PORT}",
             "--name", name],
            env=node_env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for name in ("chaos-a", "chaos-b")
    }

    time.sleep(KILL_AFTER_S)
    assert coordinator.poll() is None, (
        "sweep finished before the kill; raise REPRO_INSTRUCTIONS"
    )
    victim = nodes["chaos-b"]
    victim.send_signal(signal.SIGKILL)
    print(f"killed chaos-b (pid {victim.pid}) at t={KILL_AFTER_S}s",
          flush=True)

    out, err = coordinator.communicate(timeout=300)
    victim.wait(timeout=30)
    nodes["chaos-a"].wait(timeout=60)
    assert coordinator.returncode == 0, (
        f"coordinator exit {coordinator.returncode}\n{err[-2000:]}"
    )
    report = json.loads(out)

    counters = report["fabric"]["counters"]
    print("fabric counters:", json.dumps(counters), flush=True)
    assert counters["nodes_dead"] >= 1, "the SIGKILLed node was never detected"
    assert counters["resubmitted"] >= 1, "its in-flight cells never resubmitted"
    assert report["failures"] == [], report["failures"]
    for config, row in report["cells"].items():
        for workload, cell in row.items():
            assert cell is not None, f"gap at {config}/{workload}"

    a, b = dict(baseline), dict(report)
    a.pop("telemetry"), b.pop("telemetry"), b.pop("fabric")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), (
        "fabric report diverged from the serial sweep"
    )
    print("byte-identical to the serial report", flush=True)

    top = run(["top", "--fleet", os.path.join(fleet_dir, "fleet.json"),
               "--once"], capture_output=True, text=True)
    assert top.returncode == 0, top.stderr
    assert "fleet" in top.stdout, top.stdout
    print(top.stdout, flush=True)
    print("chaos smoke passed", flush=True)
    return 0


def main() -> int:
    """Run the smoke in a fresh work directory: removed when it passes,
    kept (and its path printed) when it fails, for inspection."""
    workdir = tempfile.mkdtemp(prefix="fabric-chaos-")
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
