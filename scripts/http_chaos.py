"""CI chaos smoke for the HTTP front door.

Drives ``repro serve --http`` through the whole robustness contract:

* **Phase A** -- a fault-injected server (seeded connection drops and
  delays on the accept/read/write sites) takes submissions from
  concurrent retrying :class:`ServeClient` threads and is SIGTERMed
  mid-run.  Every 2xx-acked job must land in the drain summary as
  ``served`` or as a resumable ``shed`` gap -- never vanish.
* **Phase B** -- a second server resumes from the same checkpoint; the
  same idempotency-keyed cells are resubmitted and must all serve.
* **Exactly-once** -- executed runs across both phases equal the number
  of unique cells: retries, lost 202s, and the drain never double-run
  a cell.
* **Byte-identity** -- a final ``repro sweep --resume`` against the
  chaos checkpoint must serve everything from cache (zero executions)
  and produce a report byte-identical to a clean serial sweep.
* **Breaker trip** -- a separate poisoned phase (every execution
  crashes) must surface ``breaker_open`` 503s to the retrying client,
  not timeouts or tracebacks.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/http_chaos.py

Sizing comes from ``REPRO_INSTRUCTIONS`` / ``REPRO_APPS`` exactly like
the CLI; the CI job pins both so the SIGTERM lands mid-sweep.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve.client import (  # noqa: E402
    ClientConfig,
    ServeClient,
    ServeError,
)

CONFIGS = ["BaseCMOS", "BaseTFET", "AdvHet"]
PORT = int(os.environ.get("HTTP_CHAOS_PORT", "18080"))
KILL_AFTER_S = float(os.environ.get("HTTP_CHAOS_KILL_AFTER_S", "2.0"))
N_CLIENTS = 3

SERVER_FAULTS = {
    "REPRO_NET_FAULTS": "1",
    "REPRO_NET_FAULTS_DROP_P": "0.15",
    "REPRO_NET_FAULTS_DELAY_P": "0.20",
    "REPRO_NET_FAULTS_DELAY_S": "0.02",
    "REPRO_NET_FAULTS_SEED": "7",
}


def run(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "repro", *argv], **kwargs)


def spawn_serve(checkpoint, *, resume=False, env_extra=None, extra_args=()):
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--http", f"127.0.0.1:{PORT}",
        "--checkpoint", checkpoint,
        "--drain-deadline", "20",
        "--json", *extra_args,
    ]
    if resume:
        argv.append("--resume")
    env = {**os.environ, **(env_extra or {})}
    return subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def wait_ready(proc, deadline_s=60.0) -> None:
    url = f"http://127.0.0.1:{PORT}/readyz"
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        assert proc.poll() is None, proc.communicate()[1][-2000:]
        try:
            with urllib.request.urlopen(url, timeout=2.0) as response:
                if response.status == 200:
                    return
        except Exception:
            pass
        time.sleep(0.05)
    raise AssertionError("server never became ready")


def stop_server(proc, expect_codes=(0, 3)):
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode in expect_codes, (
        f"server exit {proc.returncode}\n{err[-3000:]}"
    )
    return json.loads(out), err


def cells(workloads):
    return [(config, workload) for config in CONFIGS
            for workload in workloads]


def cell_spec(config, workload):
    return {
        "id": f"{config}-{workload}", "run_kind": "cpu",
        "config": config, "workload": workload,
    }


def make_client(seed, attempts=8):
    return ServeClient(
        f"http://127.0.0.1:{PORT}",
        ClientConfig(
            max_attempts=attempts,
            backoff_base_s=0.05,
            backoff_cap_s=0.5,
            timeout_s=5.0,
            seed=seed,
            breaker_threshold=5,
            breaker_reset_s=0.5,
        ),
    )


def chaos(workdir: str) -> int:
    checkpoint = os.path.join(workdir, "chaos.ckpt.json")
    workloads = [
        w.strip()
        for w in os.environ.get("REPRO_APPS", "lu,fft").split(",")
        if w.strip()
    ]
    all_cells = cells(workloads)

    print("== serial baseline ==", flush=True)
    serial = run(["sweep", *CONFIGS, "--json"],
                 capture_output=True, text=True)
    assert serial.returncode == 0, serial.stderr[-2000:]
    baseline = json.loads(serial.stdout)
    assert baseline["failures"] == []

    print(f"== phase A: fault-injected server, {N_CLIENTS} retrying "
          f"clients, SIGTERM at t={KILL_AFTER_S}s ==", flush=True)
    server = spawn_serve(checkpoint, env_extra=SERVER_FAULTS)
    wait_ready(server)
    acked: "dict[tuple, str]" = {}
    errors: "list[str]" = []
    lock = threading.Lock()

    def submit_slice(slice_cells, seed):
        client = make_client(seed)
        for config, workload in slice_cells:
            try:
                body = client.submit(cell_spec(config, workload))
                with lock:
                    acked[(config, workload)] = body["job_id"]
            except (ServeError, Exception) as exc:  # noqa: BLE001
                with lock:
                    errors.append(f"{config}/{workload}: {exc}")

    threads = [
        threading.Thread(
            target=submit_slice, args=(all_cells[i::N_CLIENTS], i),
            daemon=True,
        )
        for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    time.sleep(KILL_AFTER_S)
    assert server.poll() is None, (
        "server finished before the kill; raise REPRO_INSTRUCTIONS"
    )
    server.send_signal(signal.SIGTERM)
    print("SIGTERM sent mid-run", flush=True)
    for thread in threads:
        thread.join(timeout=60)
    out, err = server.communicate(timeout=120)
    assert server.returncode in (0, 3), (
        f"server exit {server.returncode}\n{err[-3000:]}"
    )
    summary_a = json.loads(out)
    assert "Traceback" not in err, err[-3000:]

    jobs_a = {j["job_id"]: j for j in summary_a["jobs"]}
    print(f"phase A: {len(acked)} acked, "
          f"{len(errors)} client-side give-ups, counters "
          f"{json.dumps(summary_a['counters'])}", flush=True)
    for cell, job_id in acked.items():
        record = jobs_a.get(job_id)
        assert record is not None, f"acked job {job_id} vanished"
        assert record["status"] in ("served", "shed"), (
            f"acked job {job_id} ended {record['status']!r} "
            "(must serve or become a resumable gap)"
        )
    misses_a = summary_a["telemetry"]["cache"]["cpu"]["misses"]

    print("== phase B: resume from the chaos checkpoint, clean wire ==",
          flush=True)
    server = spawn_serve(checkpoint, resume=True)
    wait_ready(server)
    client = make_client(seed=99, attempts=10)
    for config, workload in all_cells:
        body = client.submit(cell_spec(config, workload))
        record = client.wait(body["job_id"], timeout_s=300.0)
        assert record["status"] == "served", (
            f"{config}/{workload} ended {record['status']!r} on resume"
        )
    summary_b, _err = stop_server(server, expect_codes=(0,))
    misses_b = summary_b["telemetry"]["cache"]["cpu"]["misses"]

    print(f"executed runs: phase A {misses_a} + phase B {misses_b} "
          f"(cells: {len(all_cells)})", flush=True)
    assert misses_a + misses_b == len(all_cells), (
        "exactly-once violated: executed-run total != unique cells"
    )

    print("== final report from the chaos checkpoint ==", flush=True)
    final = run(
        ["sweep", *CONFIGS, "--checkpoint", checkpoint, "--resume",
         "--json"],
        capture_output=True, text=True,
    )
    assert final.returncode == 0, final.stderr[-2000:]
    report = json.loads(final.stdout)
    cache = report["telemetry"]["cache"]["cpu"]
    assert cache["misses"] == 0, (
        f"final report re-executed {cache['misses']} cells; everything "
        "should come from the chaos run's checkpoint"
    )
    a, b = dict(baseline), dict(report)
    a.pop("telemetry"), b.pop("telemetry")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), (
        "chaos-run report diverged from the serial sweep"
    )
    print("byte-identical to the serial report", flush=True)

    print("== breaker phase: poisoned config surfaces 503 "
          "breaker_open ==", flush=True)
    poisoned_ck = os.path.join(workdir, "poisoned.ckpt.json")
    server = spawn_serve(
        poisoned_ck,
        env_extra={"REPRO_FAULTS": "1", "REPRO_FAULTS_FAIL_P": "1"},
        extra_args=("--max-retries", "0", "--breaker-threshold", "1",
                    "--breaker-recovery", "300"),
    )
    wait_ready(server)
    breaker_client = make_client(seed=7, attempts=3)
    first = breaker_client.submit(cell_spec("AdvHet", workloads[0]))
    record = breaker_client.wait(first["job_id"], timeout_s=120.0)
    assert record["status"] == "failed", record
    saw_breaker = False
    try:
        breaker_client.submit(cell_spec("AdvHet", workloads[-1]))
    except ServeError as exc:
        body = getattr(exc, "last_body", None) or {}
        saw_breaker = body.get("reason") == "breaker_open"
    assert saw_breaker, "open breaker never surfaced as a 503 shed"
    summary_p, _err = stop_server(server, expect_codes=(0, 3))
    assert summary_p["telemetry"]["shed_reasons"].get("breaker_open", 0) >= 1
    print("http chaos smoke passed", flush=True)
    return 0


def main() -> int:
    """Run the smoke in a fresh work directory: removed when it passes,
    kept (and its path printed) when it fails, for inspection."""
    workdir = tempfile.mkdtemp(prefix="http-chaos-")
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
