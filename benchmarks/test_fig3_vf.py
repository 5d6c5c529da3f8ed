"""Shape test: regenerate Figure 3 (Vdd-frequency curves, DVFS deltas)."""

from repro.experiments.figures import figure3


def test_figure3(record):
    result = figure3()
    record(result)
    m = result.measured_means
    assert abs(m["boost_dv_cmos_mv"] - 75) < 1
    assert abs(m["boost_dv_tfet_mv"] - 90) < 1
    assert abs(m["slow_dv_cmos_mv"] + 70) < 1
    assert abs(m["slow_dv_tfet_mv"] + 80) < 1
