"""Shape test: regenerate Figure 14 (DVFS and process variation).

Shape targets (paper): AdvHet saves ~39% at 2 GHz, relatively less when
boosted to 2.5 GHz, more at 1.5 GHz, and slightly less under guardbands.
"""

from repro.experiments.figures import figure14


def test_figure14(runner, record):
    result = figure14(runner)
    record(result)
    m = result.measured_means
    base = m["BaseFreq-2GHz-savings"]
    assert 0.25 < base < 0.45
    assert m["BoostFreq-2.5GHz-savings"] < base
    assert m["SlowFreq-1.5GHz-savings"] > base
    assert m["ProcessVar-savings"] <= base + 0.01
