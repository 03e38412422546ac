"""BENCHMARK.json, the layer map and the workload registry agree."""

import json

from perfbench import common
from perfbench.workloads import registry

BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((common.ROOT / "perfbench" / "layers.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert all(set(w) == {"name", "why"} for w in BENCH["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_workloads_agree():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(registry()) == list(LAYERS["workloads"])


def test_every_layer_metric_names_where_it_is_measured_and_what_it_moves():
    workloads = set(LAYERS["workloads"])
    assert list(LAYERS["per_layer"]) == [m["name"] for m in BENCH["per_layer"]]
    assert list(LAYERS["end_to_end"]) == [m["name"] for m in BENCH["end_to_end"]]
    for metric in LAYERS["per_layer"].values():
        assert metric["workloads"] and set(metric["workloads"]) <= workloads
        assert metric["measured_at"] and metric["should_move"]
    assert {u["module"] for u in LAYERS["unmeasured"]} >= {
        "repro.datalog", "repro.fuzz", "repro.warehouse", "repro.cluster",
        "repro.baselines", "repro.analysis.parallel", "repro.harness.bench"}
