"""Tests for the CLI."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.metrics import get_registry


@pytest.fixture(autouse=True)
def _obs_off():
    """CLI commands toggle the global obs flag; keep tests hermetic."""
    obs.set_enabled(False)
    get_registry().clear()
    yield
    obs.set_enabled(False)
    get_registry().clear()


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure7" in out
        assert "BaseCMOS" in out
        assert "barnes" in out

    def test_exhibit_static(self, capsys):
        assert main(["exhibit", "table1", "figure3"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Figure 3" in out
        assert "paper vs measured" in out

    def test_exhibit_unknown(self, capsys):
        assert main(["exhibit", "figure99"]) == 2
        assert "unknown exhibits" in capsys.readouterr().err

    def test_run_cpu(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "8000")
        assert main(["run", "BaseCMOS", "lu"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out and "energy" in out

    def test_run_gpu(self, capsys):
        assert main(["run", "AdvHet", "DCT"]) == 0
        out = capsys.readouterr().out
        assert "rf-cache-hit" in out

    def test_run_mismatched_pair(self, capsys):
        assert main(["run", "BaseCMOS", "DoomEternal"]) == 2
        assert "no matching" in capsys.readouterr().err

    def test_run_json_cpu(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "4000")
        assert main(["run", "AdvHet", "lu", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "cpu"
        assert doc["config"] == "AdvHet" and doc["workload"] == "lu"
        assert doc["committed"] > 0 and doc["ipc"] > 0
        assert 0.0 <= doc["dl1_fast_way_hit_rate"] <= 1.0

    def test_run_json_gpu(self, capsys):
        assert main(["run", "BaseHet", "DCT", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "gpu"
        assert doc["instructions"] > 0
        assert 0.0 <= doc["rf_cache_hit_rate"] <= 1.0

    def test_exhibit_prints_cache_summary(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "2000")
        monkeypatch.setenv("REPRO_APPS", "lu")
        monkeypatch.setenv("REPRO_KERNELS", "DCT")
        assert main(["exhibit", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "sweep cache:" in out

    def test_exhibit_with_failed_cells_exits_3(self, capsys, monkeypatch):
        """Cells that render as ``--`` fail the command, as in ``sweep``."""
        monkeypatch.setenv("REPRO_APPS", "nope")
        assert main(["exhibit", "figure7"]) == 3
        captured = capsys.readouterr()
        assert "-- (failed cells)" in captured.out
        assert "unknown CPU app 'nope'" in captured.err


class TestStatsCommand:
    def test_stats_cpu_json(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "4000")
        assert main(["stats", "AdvHet", "lu", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "cpu"
        # the ISSUE's acceptance counters
        assert "fast_way_hit_rate" in doc["dl1"]
        assert doc["alu"]["fast_dispatches"] + doc["alu"]["slow_dispatches"] > 0
        assert set(doc["stalls"]) >= {
            "frontend_cycles", "dep_cycles", "mem_cycles", "structural_cycles",
        }
        # obs was enabled for the run, so the mounted core registry shows up
        assert any(k.startswith("cpu.core0.") for k in doc["registry"])

    def test_stats_cpu_text(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "4000")
        assert main(["stats", "BaseCMOS", "fft"]) == 0
        out = capsys.readouterr().out
        assert "dl1.fast_way_hit_rate" in out
        assert "stall breakdown:" in out

    def test_stats_gpu_json(self, capsys):
        assert main(["stats", "AdvHet", "DCT", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "gpu"
        assert doc["rfc"]["hits"] >= 0
        assert any(k.startswith("gpu.cu.") for k in doc["registry"])

    def test_stats_leaves_obs_disabled(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "2000")
        assert main(["stats", "BaseCMOS", "lu", "--json"]) == 0
        capsys.readouterr()
        assert not obs.enabled()

    def test_stats_mismatched_pair(self, capsys):
        # BaseL3 is a CPU-only config, DCT a GPU kernel
        assert main(["stats", "BaseL3", "DCT"]) == 2
        assert "no matching" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_cpu_writes_chrome_json(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "2000")
        out_path = tmp_path / "trace.json"
        assert main(["trace", "BaseHet", "lu", "--out", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert events
        assert {"name", "ph", "pid", "tid", "ts"} <= set(events[0])

    def test_trace_gpu(self, capsys, tmp_path):
        out_path = tmp_path / "gpu.json"
        assert main(["trace", "AdvHet", "DCT", "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert "fma" in names

    def test_trace_capacity_bounds_output(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "4000")
        out_path = tmp_path / "small.json"
        assert main([
            "trace", "BaseCMOS", "lu", "--out", str(out_path), "--capacity", "64",
        ]) == 0
        assert "dropped" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert len(events) == 64
