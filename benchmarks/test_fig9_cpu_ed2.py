"""Shape test: regenerate Figure 9 (CPU ED^2).

Shape targets (paper): BaseHet worse than BaseCMOS (slower), AdvHet best
single-chip design, AdvHet-2X by far the best overall.
"""

from repro.experiments.figures import figure9


def test_figure9(runner, record):
    result = figure9(runner)
    record(result)
    m = result.measured_means
    assert m["BaseHet"] > 1.0
    assert m["AdvHet"] < 1.0
    assert m["AdvHet-2X"] < m["AdvHet"]
