"""The output matches what BENCHMARK.json and ledger.metrics declare."""

import re

import pytest

from ledger import metrics

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_ledger_tables(benchmark_json):
    assert benchmark_json["paths"] == ["ledger"]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(metrics.WORKLOADS)
    declared = [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in benchmark_json["end_to_end"]
    ]
    assert declared == metrics.END_TO_END
    layers = [(m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]]
    assert layers == metrics.PER_LAYER


def test_benchmark_json_obeys_the_contract_limits(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    names += [w["name"] for w in benchmark_json["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 <= m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    setup = [m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in benchmark_json["workloads"])


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_every_declared_metric_is_printed_and_nothing_else(results, name):
    units = metrics.units()
    for trace, table in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
        result = results[name, trace]
        expected = [row[0] for row in table]
        assert list(result["metrics"]) == expected
        for metric, cell in result["metrics"].items():
            assert NAME.match(metric)
            assert cell["unit"] == units[metric]
            assert isinstance(cell["value"], (int, float))
        assert result["correct"] and result["failed"] == 0, result["failed_checks"]
        assert result["attempted"] >= 1


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_end_to_end_metrics_are_never_zero(results, name):
    for metric, cell in results[name, False]["metrics"].items():
        assert cell["value"] > 0, metric


def test_layers_a_workload_bypasses_read_zero(results):
    post = results["postmortem", True]["metrics"]
    for metric in ("sim.events", "sim.share", "kernel.share", "kernel.calls",
                   "controller.share", "daemon.share", "guest.share",
                   "metering.hook_wall_s"):
        assert post[metric]["value"] == 0, metric
    assert post["analysis.share"]["value"] > 0.1
    dgram = results["dgram_burst_live", True]["metrics"]
    farm = results["farm_live", True]["metrics"]
    assert dgram["tracestore.segments"]["value"] == 0
    assert farm["tracestore.segments"]["value"] >= 1
    assert dgram["filtering.accept_ratio"]["value"] < 0.7
    assert farm["filtering.accept_ratio"]["value"] == 1.0
    churn = results["recovery_churn", True]["metrics"]
    assert churn["controller.relaunches"]["value"] >= 1
    assert churn["controller.resume_sim_ms"]["value"] > 0
