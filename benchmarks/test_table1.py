"""Shape test: regenerate Table I (device characteristics at 15 nm)."""

from repro.experiments.figures import table1


def test_table1(record):
    result = table1()
    record(result)
    rows = result.rows["rows"]
    assert len(rows) == 9
    assert rows[0]["Si-CMOS"] == 0.73
