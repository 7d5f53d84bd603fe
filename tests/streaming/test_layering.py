"""What each layer may import.

``analysis -> streaming`` is a real import edge (the post-mortem views
run the streaming fold); the other direction must never appear.  The
fold runs inside the filter guest, which has to import without the
analysis stack's heavy dependencies.  And the analysis package itself
loads networkx and numpy only inside the analyses that call them: the
post-mortem pipeline (trace, match, order, parallelism, statistics,
audit, digests) runs with both blocked."""

import json
import os
import subprocess
import sys

from tests.analysis.harness import two_process_stream_trace

_BLOCK = """
import sys
sys.modules["networkx"] = None  # any import of these now raises
sys.modules["numpy"] = None
"""

_STREAMING_PROBE = _BLOCK + """
import repro.streaming
import repro.streaming.fold
import repro.streaming.twins
import repro.filtering.standard
leaked = sorted(name for name in sys.modules if name.startswith("repro.analysis"))
assert not leaked, leaked
"""

_ANALYSIS_PROBE = _BLOCK + """
import json
import repro.analysis as analysis
from repro.analysis.reference import reference_digest
from repro.streaming import twins

trace = analysis.Trace(json.load(sys.stdin))
assert trace.matcher().pairs
hb = analysis.HappensBefore(trace)
hb.ordered_fraction()
analysis.ParallelismProfile(trace).average_parallelism()
analysis.CommunicationStatistics(trace).totals()
analysis.TraceAudit(trace).report()
assert analysis.estimate_clock_skews(trace)
delays = analysis.MessageDelays(trace)
assert delays.count() and delays.negative_fraction() == 0.0
assert twins.diff_digests(twins.batch_digest(trace), reference_digest(trace)) == []

needs_a_library = {
    "CommunicationGraph": lambda: analysis.CommunicationGraph(trace),
    "MessageDelays.mean": delays.mean,
    "MessageDelays.percentile": lambda: delays.percentile(90),
    "consistent_global_order": hb.consistent_global_order,
    "estimate_clock_models": lambda: analysis.estimate_clock_models(trace),
}
for name, call in needs_a_library.items():
    try:
        call()
    except ImportError:
        continue
    raise AssertionError(name + " ran with networkx and numpy blocked")
"""


def _probe(code, stdin=None):
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run(
        [sys.executable, "-c", code], input=stdin,
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_streaming_and_the_standard_filter_import_without_the_analysis_stack():
    _probe(_STREAMING_PROBE)


def test_post_mortem_analyses_run_without_networkx_and_numpy():
    records = [event.record for event in two_process_stream_trace()]
    _probe(_ANALYSIS_PROBE, stdin=json.dumps(records))
