"""Spans around the harness's calls into each layer, and the cProfile
fold that attributes what happens *inside* ``Simulator.run``.

End-to-end numbers are measured with tracing off.  The traced unit
records one span per harness call -- name, layer, start, end, parent,
workload/unit id, record count -- kept in memory and written out with
the result.  The live layers interleave inside
the simulator loop where the harness cannot bracket them, so the same
unit also runs under ``cProfile`` and ``tottime``/``ncalls`` are folded
by ``repro.<package>``.
"""

import cProfile
import pstats
import time
from contextlib import contextmanager

#: ``repro`` packages that are pipeline layers under their own name.
PIPELINE_LAYERS = (
    "sim", "kernel", "net", "metering", "filtering", "tracestore",
    "streaming", "analysis", "daemon", "controller",
)
#: Everything a fold can attribute time to.
LAYERS = PIPELINE_LAYERS + ("guest", "harness", "other")

_GUEST = ("programs", "guestlib.py")
#: The session/fault rig the harness drives the pipeline with.
_HARNESS = ("core", "faults")


class Probe:
    """What the harness hands a workload: one ``span`` around every
    call into a layer.

    With ``record`` off (every timed unit) a span keeps nothing; with
    it on (the traced unit) it becomes an entry in ``spans``.  With a
    ``pacer`` every span is followed by a spin slice, so host speed is
    sampled all through the unit; the traced unit runs without one,
    keeping the yardstick out of its profile."""

    def __init__(self, workload, unit, pacer=None, record=False):
        self.workload = workload
        self.unit = unit
        self.pacer = pacer
        self.record = record
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, layer, records=0):
        entry = None
        if self.record:
            entry = {
                "id": len(self.spans),
                "name": name,
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
                "unit": self.unit,
                "records": records,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(entry)
            self._stack.append(entry["id"])
        try:
            yield entry
        finally:
            if entry is not None:
                self._stack.pop()
                entry["end"] = time.perf_counter()
            if self.pacer is not None:
                self.pacer.pace()

    def pace(self):
        """A slice if one is due -- for loops the harness runs itself."""
        if self.pacer is not None:
            self.pacer.pace()

    def timed(self, name, layer, records, func):
        """(result, reference seconds) of one spanned call, bracketed
        by its own two slices.  Without a pacer: host seconds."""
        if self.pacer is None:
            with self.span(name, layer, records=records) as entry:
                result = func()
            return result, entry["end"] - entry["start"]
        first = self.pacer.mark()
        with self.span(name, layer, records=records):
            result = func()
        last = self.pacer.mark()
        return result, self.pacer.reference_seconds(first, last)


def self_times(spans):
    """span id -> duration minus the part its child spans cover."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_of(filename):
    """The layer a profiled function's file belongs to."""
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        head = path.split("/repro/", 1)[1].split("/", 1)[0]
        if head in PIPELINE_LAYERS:
            return head
        if head in _GUEST:
            return "guest"
        if head in _HARNESS:
            return "harness"
        return "other"
    if "/ledger/" in path:
        return "harness"
    return "other"


def profiled(func):
    """Run ``func()`` under cProfile; returns (result, fold) where fold
    maps layer -> {"self_s", "calls"} from ``tottime``/``ncalls``."""
    profile = cProfile.Profile()
    result = profile.runcall(func)
    fold = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, __, __), row in pstats.Stats(profile).stats.items():
        ncalls, tottime = row[1], row[2]
        cell = fold[layer_of(filename)]
        cell["self_s"] += tottime
        cell["calls"] += ncalls
    return result, fold
