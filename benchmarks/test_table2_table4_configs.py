"""Shape test: regenerate Tables II and IV (designs and configurations)."""

from repro.experiments.figures import table2, table4


def test_table2(record):
    result = table2()
    record(result)
    assert "BaseHet" in result.rows and "AdvHet" in result.rows


def test_table4(record):
    result = table4()
    record(result)
    assert len(result.rows["cpu"]) == 11
    assert len(result.rows["gpu"]) == 5
