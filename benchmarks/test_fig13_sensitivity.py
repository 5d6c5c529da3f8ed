"""Shape test: regenerate Figure 13 (sensitivity analysis).

Shape targets (paper Section VII-C): BaseL3 saves ~10% energy at similar
speed; BaseHighVt does not beat BaseCMOS; BaseHet is slightly slower but
meaningfully more efficient than BaseHet-FastALU; the asymmetric DL1 is
AdvHet's largest single speedup.
"""

from repro.experiments.figures import figure13


def test_figure13(runner, record):
    result = figure13(runner)
    record(result)
    rows = result.rows
    # BaseL3: ~BaseCMOS speed, lower energy.
    assert rows["BaseL3"]["time"] < 1.1
    assert rows["BaseL3"]["energy"] < 0.95
    # BaseHighVt is not cost-effective (energy >= ~BaseCMOS).
    assert rows["BaseHighVt"]["energy"] > 0.93
    # TFET ALUs: BaseHet slightly slower but more efficient than FastALU.
    assert rows["BaseHet"]["time"] > rows["BaseHet-FastALU"]["time"]
    assert rows["BaseHet"]["energy"] < rows["BaseHet-FastALU"]["energy"]
    # The asymmetric DL1 (Split -> AdvHet) is the largest single speedup.
    gain_asym = rows["BaseHet-Split"]["time"] - rows["AdvHet"]["time"]
    gain_split = rows["BaseHet-Enh"]["time"] - rows["BaseHet-Split"]["time"]
    assert gain_asym > gain_split
