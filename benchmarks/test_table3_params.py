"""Shape test: regenerate Table III (simulated machine parameters)."""

from repro.experiments.figures import table3


def test_table3(record):
    result = table3()
    record(result)
    assert "CPU Hardware" in result.rows
    assert "GPU Hardware" in result.rows
