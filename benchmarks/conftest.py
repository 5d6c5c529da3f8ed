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

The terminal summary prints each recorded exhibit's ``paper_err`` (mean
``|ln(measured / paper)|`` over the means the paper reports, the
formula of ``perfbench.stats.paper_error``).  It reports and gates
nothing; the shape tests are the gate.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.experiments.report import paper_vs_measured
from repro.experiments.runner import SweepRunner

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # perfbench lives beside src/, not in it
    sys.path.insert(0, str(ROOT))

from perfbench.stats import paper_error  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Every exhibit recorded this session, by name (last write wins).
_recorded: dict = {}


@pytest.fixture(scope="session")
def runner() -> SweepRunner:
    return SweepRunner()


@pytest.fixture(scope="session")
def record():
    """Persist a regenerated exhibit under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(result) -> None:
        _recorded[result.exhibit] = result
        name = result.exhibit.lower().replace(" ", "")
        path = RESULTS_DIR / f"{name}.txt"
        with open(path, "w") as fh:
            fh.write(f"{result.exhibit}: {result.title}\n\n")
            fh.write(result.table)
            fh.write("\n\npaper vs measured (means):\n")
            fh.write(paper_vs_measured(result))
            fh.write("\n")

    return _record


def pytest_terminal_summary(terminalreporter) -> None:
    """Print ``paper_err`` per recorded exhibit and over all of them."""
    scored = [r for r in _recorded.values() if r.paper_means]
    if not scored:
        return
    terminalreporter.section("paper_err: mean |ln(measured / paper)|")
    for result in scored:
        try:
            err, count = paper_error([result])
        except ValueError as exc:
            terminalreporter.write_line(f"{result.exhibit}: n/a ({exc})")
        else:
            terminalreporter.write_line(
                f"{result.exhibit}: {err:.3f} over {count} means"
            )
    try:
        err, count = paper_error(scored)
    except ValueError:
        return
    terminalreporter.write_line(f"all exhibits: {err:.3f} over {count} means")
