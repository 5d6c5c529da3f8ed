"""Shape test: regenerate Figure 8 (CPU energy with core/L2/L3 breakdown).

Shape targets (paper): BaseTFET -76%, BaseHet -35%, AdvHet -39%,
AdvHet-2X -34%; savings come from both dynamic and leakage energy.
"""

from repro.experiments.figures import figure8


def test_figure8(runner, record):
    result = figure8(runner)
    record(result)
    m = result.measured_means
    assert 0.18 < m["BaseTFET"] < 0.33
    assert 0.5 < m["BaseHet"] < 0.75
    assert 0.5 < m["AdvHet"] < 0.75
    assert m["AdvHet-2X"] < 1.0
    # Breakdown: the TFET designs cut BOTH dynamic and leakage.
    bd = result.rows["breakdown"]
    for kind in ("core-dyn", "core-leak", "l3-leak"):
        assert bd["BaseHet"][kind] < bd["BaseCMOS"][kind]
