"""The span file and the cProfile fold of the traced unit."""

import pytest

from ledger import metrics, trace


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_span_self_times_sum_to_the_traced_units_wall(results, name):
    spans = results[name, True]["spans"]
    root = next(span for span in spans if span["name"] == "unit")
    inside = [root]
    ids = {root["id"]}
    for span in spans:  # spans are recorded parent-first
        if span["parent"] in ids:
            ids.add(span["id"])
            inside.append(span)
    own = trace.self_times(inside)
    wall = root["end"] - root["start"]
    assert sum(own.values()) == pytest.approx(wall, rel=0.02)
    assert all(value >= -1e-9 for value in own.values())
    assert {span["workload"] for span in spans} == {name}
    assert all(span["end"] >= span["start"] for span in spans)


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_fold_shares_sum_to_one(results, name):
    values = results[name, True]["metrics"]
    shares = [values[layer + ".share"]["value"] for layer in trace.LAYERS]
    assert sum(shares) == pytest.approx(1.0)


def test_profiled_files_fold_into_the_right_layer():
    assert trace.layer_of("/x/src/repro/kernel/machine.py") == "kernel"
    assert trace.layer_of("/x/src/repro/programs/dgram.py") == "guest"
    assert trace.layer_of("/x/src/repro/guestlib.py") == "guest"
    assert trace.layer_of("/x/src/repro/core/session.py") == "harness"
    assert trace.layer_of("/x/ledger/workloads.py") == "harness"
    assert trace.layer_of("/usr/lib/python3.11/heapq.py") == "other"
    assert trace.layer_of("~") == "other"


def test_self_time_subtracts_child_spans():
    tracer = trace.Probe("w", 0, record=True)
    with tracer.span("outer", "harness"):
        with tracer.span("inner", "sim"):
            pass
    outer, inner = tracer.spans
    own = trace.self_times(tracer.spans)
    assert inner["parent"] == outer["id"]
    assert own[outer["id"]] + own[inner["id"]] == pytest.approx(
        outer["end"] - outer["start"]
    )
    assert own[inner["id"]] == pytest.approx(inner["end"] - inner["start"])
