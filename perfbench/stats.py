"""Pure arithmetic of the benchmark: medians, tail percentiles, paper error.

Nothing here imports the simulator, so the rules are unit-testable on
their own (``perfbench/tests``).
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer and the value is just the largest few samples.
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def nearest_rank(samples, q: int) -> "tuple[float, int]":
    """The nearest-rank ``q``-th percentile and the count of samples beyond it.

    ``q`` is an integer percent (50, 99); the rank ``ceil(q * n / 100)`` is
    computed in integers so no float rounding moves a sample across it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = -(-q * n // 100)  # ceil without floats
    return float(xs[rank - 1]), n - rank


def min_samples_for(q: int, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose ``q``-th percentile has ``min_beyond``
    samples beyond it (1000 for p99 with 10 beyond)."""
    n = 1
    while n - (-(-q * n // 100)) < min_beyond:
        n += 1
    return n


def tail_percentile(samples, q: int, min_beyond: int = MIN_BEYOND) -> float:
    """``q``-th percentile, refusing a tail too thin to be a percentile."""
    value, beyond = nearest_rank(samples, q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q} of {len(samples)} samples has only {beyond} beyond it "
            f"(need {min_beyond}; size the run to {min_samples_for(q, min_beyond)})"
        )
    return value


def paper_error(figure_results) -> "tuple[float, int]":
    """Mean ``|ln(measured / paper)|`` over every mean the paper reports.

    Takes :class:`repro.experiments.figures.FigureResult`-shaped objects
    (``paper_means`` / ``measured_means`` dicts).  Returns (error, count).
    A missing, non-finite or sign-flipped measurement has no log ratio and
    raises ``ValueError``: the run is then wrong, not merely inaccurate.
    """
    terms = []
    for fr in figure_results:
        for key, paper in fr.paper_means.items():
            measured = fr.measured_means.get(key)
            if not isinstance(measured, (int, float)) or not math.isfinite(measured):
                raise ValueError(f"{fr.exhibit} {key}: no measured value ({measured!r})")
            ratio = measured / paper
            if ratio <= 0:
                raise ValueError(
                    f"{fr.exhibit} {key}: measured {measured} vs paper {paper} "
                    f"differ in sign"
                )
            terms.append(abs(math.log(ratio)))
    if not terms:
        raise ValueError("no exhibit carries a paper value")
    return sum(terms) / len(terms), len(terms)
