"""Paper shape tests: shared fixtures.

One test per paper exhibit, each asserting the paper's shape claims (who
wins, in which direction, by roughly what factor).  The expensive work --
the configuration x workload sweeps -- is cached in a session-scoped
:class:`SweepRunner`, so exhibits that share cells simulate them once.
Every test also writes the regenerated table plus the paper-vs-measured
comparison to ``benchmarks/results/<exhibit>.txt``, so a run leaves the
reproduced evaluation on disk.  Run with ``pytest benchmarks``.

Sweep sizing follows the ``REPRO_INSTRUCTIONS`` / ``REPRO_APPS`` /
``REPRO_KERNELS`` environment variables (defaults: 40k instructions, all
14 apps, all 16 kernels -- a few minutes of pure-Python simulation).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.report import paper_vs_measured
from repro.experiments.runner import SweepRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def runner() -> SweepRunner:
    return SweepRunner()


@pytest.fixture(scope="session")
def record():
    """Persist a regenerated exhibit under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(result) -> None:
        name = result.exhibit.lower().replace(" ", "")
        path = RESULTS_DIR / f"{name}.txt"
        with open(path, "w") as fh:
            fh.write(f"{result.exhibit}: {result.title}\n\n")
            fh.write(result.table)
            fh.write("\n\npaper vs measured (means):\n")
            fh.write(paper_vs_measured(result))
            fh.write("\n")

    return _record
