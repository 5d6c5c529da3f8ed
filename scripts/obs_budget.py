"""CI check of the observability budget: enabling obs costs <= 5%.

Runs the ILP-bound reference cell (BaseCMOS/blackscholes, 30k
instructions, 5k warm-up) -- the worst case for instrumentation, with no
long stalls to hide behind -- with the global obs flag off and on
(metrics registry live, event log active, no pipeline tracer).  The two
sides are sampled interleaved, so host drift hits both equally, and each
side keeps its best of six engine-only timings.  Exits 1 unless the two
results are identical and on-time / off-time stays within 1.05.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/obs_budget.py
"""

from __future__ import annotations

import dataclasses
import sys
import time

from repro import obs
from repro.core.configs import cpu_config
from repro.core.simulate import build_cpu_core
from repro.obs.metrics import get_registry
from repro.workloads.profiles import cpu_app
from repro.workloads.trace_cache import cached_trace

INSTRUCTIONS = 30_000
WARMUP = 5_000
REPEATS = 6
BUDGET = 1.05


def timed_run(design, profile, trace, enabled: bool):
    """Engine wall time and result of one fresh core with obs ``enabled``."""
    obs.set_enabled(enabled)
    core = build_cpu_core(design, profile)
    t0 = time.perf_counter()
    result = core.run(trace, warmup=WARMUP)
    return time.perf_counter() - t0, dataclasses.asdict(result)


def main() -> int:
    design = cpu_config("BaseCMOS")
    profile = cpu_app("blackscholes")
    trace = cached_trace(profile, INSTRUCTIONS, seed=0)
    best = {False: None, True: None}
    results = {}
    try:
        for _ in range(REPEATS):
            for enabled in (False, True):
                dt, results[enabled] = timed_run(design, profile, trace, enabled)
                if best[enabled] is None or dt < best[enabled]:
                    best[enabled] = dt
    finally:
        obs.set_enabled(False)
        get_registry().clear()
    ratio = best[True] / best[False]
    print(f"obs off {best[False]:.4f} s, on {best[True]:.4f} s, "
          f"overhead_ratio {ratio:.4f} (budget {BUDGET})")
    if results[True] != results[False]:
        print("obs changed the simulation result", file=sys.stderr)
        return 1
    if ratio > BUDGET:
        print(f"obs overhead {ratio:.3f}x exceeds the 5% band", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
