"""The benchmark under ``bench/`` still loads: ``workloads.py`` imports library
names, and ``LayerTracer`` raises RuntimeError when a function its work
counters name is gone, so a deletion in the package fails here first."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_workloads_and_layer_tracer_load(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    layers = importlib.import_module("layers")
    layers.LayerTracer()
    assert sorted(workloads.WORKLOADS) == ["geodesic", "table", "verify"]
    for workload in workloads.WORKLOADS.values():
        assert workload(0, tmp_path).round
