"""BENCHMARK.json and ``perf/run.py`` name the same things."""

import json
import os

import run
import workloads
from conftest import ROOT


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_limits():
    doc = _benchmark()
    assert sorted(doc) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads",
    ]
    assert doc["paths"] == ["perf"]
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert len(doc["per_layer"]) <= 128
    for workload in doc["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
        assert len(metric["name"]) <= 64 and len(metric["unit"]) <= 16


def test_names_and_units_match_the_program():
    doc = _benchmark()
    assert {w["name"]: w["why"] for w in doc["workloads"]} == (
        workloads.WORKLOADS
    )
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == (
        run.per_layer_units()
    )
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
