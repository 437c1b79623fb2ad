"""The benchmark's cli_pipeline workload as a tier-1 check: one pass of its
48 CLI commands must reproduce the digests in bench/goldens.json, so golden
drift shows without running the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    """bench/workloads.py, loaded by path and read only (no bytecode written)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_pipeline_pass_matches_the_goldens(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    goldens = json.loads((BENCH / "goldens.json").read_text())
    workload = _workloads().CliPipeline(0, goldens, tmp_path)
    outputs, seconds = workload.run_pass()
    assert len(seconds) == 48
    assert workload.check(outputs) == (48, 0)
    attempted, failed = workload.check(workload.corrupt(outputs))
    assert attempted == 48 and failed >= 1


def test_cell_metrics_pass_matches_the_goldens(tmp_path, monkeypatch):
    # the metrics JSON and trace CSV bytes of all four testbenches at seed 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    goldens = json.loads((BENCH / "goldens.json").read_text())
    workload = _workloads().CellMetrics(0, goldens, tmp_path)
    outputs, _ = workload.run_pass()
    assert workload.check(outputs) == (2812, 0)
    attempted, failed = workload.check(workload.corrupt(outputs))
    assert attempted == 2812 and failed >= 1
