"""Host speed, sampled between passes, so timings compare across runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30 % over minutes (``MEASUREMENTS.md``): a run measured while a
neighbour is busy reads slower although the program did the same work.
Medians over the passes of one run cannot remove that drift; it moves the
whole run.  So the benchmark times a fixed pure-Python loop before the
first pass and after every pass, and scales each pass's host seconds by
``REFERENCE_S / loop seconds`` (the mean of the samples on either side of
the pass): the result is the time the pass would have taken at the
reference speed.  The loop is interpreter-bound, like the simulator, so a
neighbour that slows one slows the other alike.  The raw host times are
printed beside the scaled ones (stderr).
"""

from __future__ import annotations

import statistics
import time

#: Seconds :func:`sample` reads on a quiet 2-core x86-64 container
#: (CPython 3.11); only fixes the unit, never a comparison.
REFERENCE_S = 0.020

#: Repetitions of the loop per sample; the median is kept.
REPEATS = 5
LOOP_ITERATIONS = 40_000


def _loop(n: int) -> int:
    table = [0] * 4096
    index = {}
    acc = 0
    for i in range(n):
        j = (i * 2654435761) & 4095
        table[j] += i
        index[j & 511] = acc
        acc ^= table[(j + 17) & 4095] + index.get((i * 31) & 511, 0)
    return acc


def sample() -> float:
    """Median seconds of :data:`REPEATS` runs of the fixed loop."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop(LOOP_ITERATIONS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from host seconds to reference seconds between two samples."""
    return REFERENCE_S / ((before + after) / 2.0)
