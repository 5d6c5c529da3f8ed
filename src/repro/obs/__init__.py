"""Observability: metrics, tracing, telemetry, and the telemetry spine.

The subsystem's legs:

* :mod:`repro.obs.metrics` -- a hierarchical metrics registry.  Counters,
  gauges, and histograms live under dotted names
  (``cpu.core0.dl1.fast_way_hits``); *probes* bind a name to a zero-argument
  callable so hot simulation loops keep their plain integer counters and the
  registry reads them lazily at snapshot time.  ``snapshot()`` / ``delta()``
  replace the hand-rolled measurement-window bookkeeping the CPU core used
  to carry.  ``export_state()`` / ``merge_exported()`` are the cross-process
  transport: workers ship typed deltas back over the result pipe and the
  supervisor merges them so serial and parallel snapshots agree.
* :mod:`repro.obs.trace` -- a bounded ring-buffer pipeline tracer whose
  contents export as Chrome ``trace_event`` JSON (open the file in
  ``chrome://tracing`` or Perfetto).
* :mod:`repro.obs.events` -- the structured, schema-versioned event log
  with span-based distributed tracing: serve jobs, cell attempts, guard
  retries, breaker transitions, checkpoint flushes, and engine runs all
  become events/spans carrying a ``trace_id`` that flows from the
  coordinator through the worker pool's pipe protocol into the engines;
  a per-worker disk spill doubles as a SIGKILL flight recorder.
* :mod:`repro.obs.export` -- Prometheus text exposition (with a strict
  parser for CI validation), the periodic metrics-snapshot file the
  serve tier writes next to its health file, and the determinism filter
  that CI compares byte-for-byte between serial and parallel sweeps.
* :mod:`repro.obs.top` -- the ``repro top`` live dashboard tailing the
  health + metrics snapshot files.
* :mod:`repro.obs.telemetry` -- per-(config, workload) wall-time and
  throughput records for sweep runs, including the SweepRunner's own
  result-cache hit/miss accounting and a live progress callback.

Zero overhead when off
----------------------
Observability is gated by a module-level flag (:func:`enabled`, initialised
from the ``REPRO_OBS`` environment variable, default off).  Hot paths never
call into this package per event: they test a *local* reference
(``if tracer is not None: ...``) that is only non-None when tracing was
explicitly requested, and all registry reads happen through probes at
snapshot boundaries.  With the flag off, the global registry hands out a
shared null metric whose mutators are no-ops, so stray ``inc()`` calls cost
one dynamic dispatch and touch no state.
"""

from __future__ import annotations

import os


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in {"1", "true", "yes", "on"}


#: Module-level observability switch (see module docstring).
_enabled = _env_flag("REPRO_OBS")


def enabled() -> bool:
    """Is observability globally enabled?"""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Flip the global observability switch (returns nothing)."""
    global _enabled
    _enabled = bool(flag)


def cycle_skip_disabled() -> bool:
    """``REPRO_NO_CYCLE_SKIP`` escape hatch for both cycle engines.

    When set, :class:`repro.cpu.core.OutOfOrderCore` and
    :class:`repro.gpu.cu.ComputeUnit` force the reference per-cycle walk
    instead of the event-driven fast path.  Read per ``run()`` call (not
    cached at import) so tests can toggle it.
    """
    return _env_flag("REPRO_NO_CYCLE_SKIP")


from repro.obs.metrics import (  # noqa: E402  (flag must exist first)
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    get_registry,
)
from repro.obs.trace import PipelineTracer  # noqa: E402
from repro.obs.telemetry import RunRecord, SweepTelemetry  # noqa: E402
from repro.obs.events import (  # noqa: E402
    EventLog,
    chrome_trace,
    get_event_log,
    new_trace_id,
    read_events,
)
from repro.obs.export import (  # noqa: E402
    deterministic_snapshot,
    parse_prometheus,
    prometheus_text,
    read_metrics_snapshot,
    write_metrics_snapshot,
)

__all__ = [
    "enabled",
    "set_enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "get_registry",
    "PipelineTracer",
    "RunRecord",
    "SweepTelemetry",
    "EventLog",
    "chrome_trace",
    "get_event_log",
    "new_trace_id",
    "read_events",
    "deterministic_snapshot",
    "parse_prometheus",
    "prometheus_text",
    "read_metrics_snapshot",
    "write_metrics_snapshot",
]
