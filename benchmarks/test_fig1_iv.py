"""Shape test: regenerate Figure 1 (I-V characteristics)."""

from repro.experiments.figures import figure1


def test_figure1(record):
    result = figure1()
    record(result)
    # Shape check: TFET wins at low Vdd, MOSFET at high, crossover ~0.6 V.
    assert 0.45 < result.measured_means["crossover_v"] < 0.7
