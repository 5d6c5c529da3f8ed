"""Shape test: regenerate Figure 7 (CPU execution time, all configs x apps).

Shape targets (paper): BaseTFET ~2x slower, BaseHet ~1.4x, AdvHet within
~10-25%, AdvHet-2X faster than BaseCMOS.
"""

from repro.experiments.figures import figure7


def test_figure7(runner, record):
    result = figure7(runner)
    record(result)
    m = result.measured_means
    assert m["BaseCMOS"] == 1.0
    assert 1.5 < m["BaseTFET"] < 2.1
    assert 1.2 < m["BaseHet"] < 1.55
    assert m["AdvHet"] < m["BaseHet"]
    assert m["AdvHet-2X"] < 1.0
