"""Exact metrics repeat bit-for-bit for a seed and move with the seed."""

import pytest

from ledger import gen, harness, metrics
from ledger.tests.conftest import SCALE


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_exact_metrics_repeat_for_a_seed_and_differ_for_another(results, name):
    first = results[name, True]
    again = harness.run_workload(name, 3, 0, True, scale=SCALE)
    other = harness.run_workload(name, 4, 0, False, scale=SCALE)
    for metric in first["metrics"]:
        if metric in metrics.EXACT:
            assert first["metrics"][metric] == again["metrics"][metric], metric
    assert first["digest"] == again["digest"] == results[name, False]["digest"]
    assert other["digest"] != first["digest"]


def test_generated_log_is_a_pure_function_of_the_seed():
    text, count, lost = gen.generate_log(5, 3000)
    assert (text, count, lost) == gen.generate_log(5, 3000)
    assert gen.generate_log(6, 3000)[0] != text
    assert count >= 3000 and text.count("\n") == count
    events = {line.split()[0] for line in text.splitlines()}
    assert len(events) == 10  # all ten Appendix-A types
