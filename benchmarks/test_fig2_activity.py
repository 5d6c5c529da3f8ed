"""Shape test: regenerate Figure 2 (ALU power vs activity factor)."""

from repro.experiments.figures import figure2


def test_figure2(record):
    result = figure2()
    record(result)
    m = result.measured_means
    assert 3.5 < m["ratio_at_full_activity"] < 5.0
    assert 100 < m["ratio_at_zero_activity"] < 150
