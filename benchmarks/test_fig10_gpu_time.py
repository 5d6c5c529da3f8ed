"""Shape test: regenerate Figure 10 (GPU execution time).

Shape targets (paper): BaseTFET 2x slower, BaseHet ~1.28x, AdvHet ~1.20x,
AdvHet-2X ~0.70x.
"""

from repro.experiments.figures import figure10


def test_figure10(runner, record):
    result = figure10(runner)
    record(result)
    m = result.measured_means
    assert 1.9 < m["BaseTFET"] < 2.1
    assert 1.1 < m["BaseHet"] < 1.45
    assert m["AdvHet"] < m["BaseHet"]
    assert m["AdvHet-2X"] < 0.85
