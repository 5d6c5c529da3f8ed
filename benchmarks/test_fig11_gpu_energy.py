"""Shape test: regenerate Figure 11 (GPU energy).

Shape targets (paper): BaseTFET -75%, BaseHet -35%, AdvHet -40%,
AdvHet-2X -34%.
"""

from repro.experiments.figures import figure11


def test_figure11(runner, record):
    result = figure11(runner)
    record(result)
    m = result.measured_means
    assert 0.18 < m["BaseTFET"] < 0.33
    assert 0.5 < m["BaseHet"] < 0.8
    assert m["AdvHet-2X"] < 1.0
