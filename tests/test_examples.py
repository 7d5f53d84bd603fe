"""Every ``examples/*.py`` prints exactly its pinned transcript.

The examples run the whole stack -- simulated cluster, metering,
filter, log, every analysis -- and are deterministic, so their stdout is
a cheap end-to-end pin on all of it.  A deliberate change of output
re-captures the golden file in the same commit:

    PYTHONPATH=src python examples/<name>.py > tests/golden/examples/<name>.txt
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
GOLDEN = ROOT / "tests" / "golden" / "examples"
NAMES = sorted(path.stem for path in EXAMPLES.glob("*.py"))


def test_every_example_has_a_golden_transcript():
    assert NAMES == sorted(path.stem for path in GOLDEN.glob("*.txt"))
    assert len(NAMES) == 7


@pytest.mark.parametrize("name", NAMES)
def test_example_prints_its_golden_transcript(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / (name + ".py"))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    golden = (GOLDEN / (name + ".txt")).read_text(encoding="utf-8")
    assert result.stdout == golden
