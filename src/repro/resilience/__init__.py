"""Resilient sweep execution: guards, checkpoints, and fault injection.

The paper's headline figures come from large (configuration x workload)
sweeps whose cells are independent -- a failed cell should cost one data
point, not the sweep.  This package hardens
:class:`repro.experiments.runner.SweepRunner` end to end:

* :mod:`repro.resilience.errors` -- the structured failure taxonomy
  (:class:`RunFailure` records with kind timeout / config / workload /
  crash / corrupt);
* :mod:`repro.resilience.guard` -- per-run wall-clock timeouts and retry
  with exponential backoff + deterministic jitter (:class:`GuardPolicy`,
  :func:`run_guarded`);
* :mod:`repro.resilience.checkpoint` -- the sweep checkpoint, a result
  store at the ``--checkpoint`` path that durably holds each executed
  cell the moment it commits, so interrupted sweeps resume with only the
  missing cells re-executed;
* :mod:`repro.resilience.pool` / :mod:`repro.resilience.worker` -- the
  process-isolated parallel executor: each cell attempt runs in a
  supervised worker process from a bounded pool, overrunning workers are
  SIGKILLed at the policy timeout, and worker death (crash, signal, lost
  heartbeat) is contained to one attempt and requeued under the same
  retry/backoff budget;
* :mod:`repro.resilience.selfcheck` -- end-of-run result invariants
  (ROB/RF drained, positive cycle counts, retired-instruction
  conservation) that reject corrupted measurements as ``corrupt``
  failures instead of silently wrong report rows;
* :mod:`repro.resilience.faults` -- one seeded, env-gated fault
  injector over three domains: cell attempts (``REPRO_FAULTS``: crash,
  hang, corrupt result, hard-kill), wire frames (``REPRO_NET_FAULTS``)
  and durable writes (``REPRO_DISK_FAULTS``), used to test this layer
  itself and exercised from CI;
* :mod:`repro.resilience.diskio` -- the single crash-consistent write
  path to disk (temp + fsync + rename + directory fsync, per-record
  checksums with quarantine-on-corruption, orphaned-temp sweeps) used
  by checkpoints, the result store, and every snapshot writer, and the
  one choke point where disk faults are injected.

Guards live in the *runner*, not in ``simulate_cpu``/``simulate_gpu``:
the simulators stay deterministic pure functions (the property the whole
reproduction leans on), while the runner -- the only place that already
knows about cells, caches, and telemetry -- owns everything about
executing them unreliably-but-recoverably.

:class:`SweepCheckpoint` is exported lazily: it subclasses the result
store, and the store writes through :mod:`repro.resilience.diskio`, so
an eager import here would make ``import repro.store.cas`` circular.
"""

from repro.resilience.errors import (
    FAILURE_KINDS,
    CorruptResult,
    RunFailure,
    SweepError,
)
from repro.resilience.guard import (
    GuardOutcome,
    GuardPolicy,
    GuardTimeout,
    call_with_timeout,
    run_guarded,
    stable_seed,
    zombie_thread_count,
)
from repro.resilience.faults import FaultInjector, FaultPlan, InjectedFault
from repro.resilience.pool import CellTask, PoolAborted, SweepPool
from repro.resilience.selfcheck import (
    check_cpu_result,
    check_gpu_result,
    validate_result,
)

__all__ = [
    "FAILURE_KINDS",
    "CorruptResult",
    "RunFailure",
    "SweepError",
    "GuardOutcome",
    "GuardPolicy",
    "GuardTimeout",
    "call_with_timeout",
    "run_guarded",
    "stable_seed",
    "zombie_thread_count",
    "SweepCheckpoint",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "CellTask",
    "PoolAborted",
    "SweepPool",
    "check_cpu_result",
    "check_gpu_result",
    "validate_result",
]


def __getattr__(name):
    if name == "SweepCheckpoint":
        from repro.resilience.checkpoint import SweepCheckpoint

        return SweepCheckpoint
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
