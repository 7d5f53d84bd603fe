"""``analysis -> streaming`` is a real import edge (the post-mortem
views run the streaming fold); the other direction must never appear.
The fold runs inside the filter guest, which has to import without the
analysis stack's heavy dependencies."""

import os
import subprocess
import sys

_PROBE = """
import sys
sys.modules["networkx"] = None  # any import of these now raises
sys.modules["numpy"] = None
import repro.streaming
import repro.streaming.fold
import repro.streaming.twins
import repro.filtering.standard
leaked = sorted(name for name in sys.modules if name.startswith("repro.analysis"))
assert not leaked, leaked
"""


def test_streaming_and_the_standard_filter_import_without_the_analysis_stack():
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
