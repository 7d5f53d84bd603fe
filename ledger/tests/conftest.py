"""Fixtures for the ledger's own tests (``python -m pytest ledger/tests``;
not part of tier-1).  Runs are made at a small ``scale`` so the whole
file takes well under a minute."""

import json
from pathlib import Path

import pytest

import ledger  # noqa: F401  (puts src/ on the path)
from ledger import harness, metrics

SCALE = 0.04
REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="session")
def benchmark_json():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="session")
def results():
    """(workload, trace) -> result document, seed 3, small scale."""
    return {
        (name, trace): harness.run_workload(name, 3, 0, trace, scale=SCALE)
        for name in metrics.WORKLOADS
        for trace in (False, True)
    }
