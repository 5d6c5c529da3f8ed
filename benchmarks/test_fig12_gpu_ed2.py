"""Shape test: regenerate Figure 12 (GPU ED^2).

Shape targets (paper): BaseHet worse than BaseCMOS, AdvHet slightly
better, AdvHet-2X ~60% lower.
"""

from repro.experiments.figures import figure12


def test_figure12(runner, record):
    result = figure12(runner)
    record(result)
    m = result.measured_means
    assert m["BaseHet"] > 1.0
    assert m["AdvHet"] < m["BaseHet"]
    assert m["AdvHet-2X"] < 0.6
