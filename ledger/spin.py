"""Speed normalisation: a fixed pure-Python spin as the host's yardstick.

Measured on the 2-core sandbox this ledger was sized on: back-to-back
units of the *same* code differ by 11-18 % (quartile distance over
median), the median of eight drifts +-12 % between sets, and
``time.process_time`` drifts with it -- the shared host changes speed,
within seconds and again within fractions of a second; it does not
steal.  A spin taken only before and after a 2-3 s unit misses the
fast part of that (it left 9-18 % per unit, sometimes worse than raw),
so the spin is cut into ~4 ms *slices* interleaved with the work: one
after every call the harness makes into a layer.  Each stretch of work
between two slices is divided by the speed those two slices saw.  That
brought the same units to 4-8 %.

Every host-time metric the ledger reports is therefore expressed in
*reference seconds*: the seconds the work would have taken on a host
where one slice takes exactly :data:`SLICE_REF_S`.
"""

import heapq
import statistics
import struct
import time

#: The reference duration of one slice.  Fixed: changing it (or the
#: slice's work) rescales every normalised metric and breaks the
#: comparison with older rows.
SLICE_REF_S = 0.004

#: A workload whose speed factor moved more than this between its
#: first and last unit is marked ``noisy``.
NOISY_DRIFT = 0.15

#: Slices are skipped while the previous one is this fresh, so a burst
#: of millisecond calls does not spend its time spinning.
MIN_GAP_S = 0.025

_SLICE_STEPS = 1280
_SLICE_TASKS = 8
_PACK = struct.Struct(">ih2xiiii")
_FIELDS = ("size", "machine", "cpuTime", "procTime", "traceType", "pid")


class _Event:
    __slots__ = ("time", "seq", "task")

    def __init__(self, time_ms, seq, task):
        self.time = time_ms
        self.seq = seq
        self.task = task

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


def _task(steps):
    for step in range(steps):
        yield step


def spin_slice():
    """Run one slice of the fixed spin.

    A miniature of what the monitored pipeline does all day: generator
    tasks stepped off a small heap of event objects, a ``struct`` round
    trip and a dict per step, a formatted line per record.  Of the
    yardsticks tried while sizing (a large-heap object churn, a bare
    arithmetic loop, this) it tracked the workloads' own slow-downs
    best."""
    heap = []
    table = {}
    seq = 0
    total = 0
    for __ in range(_SLICE_TASKS):
        heapq.heappush(heap, _Event(0.0, seq, _task(_SLICE_STEPS // _SLICE_TASKS)))
        seq += 1
    while heap:
        event = heapq.heappop(heap)
        now = event.time
        try:
            step = next(event.task)
        except StopIteration:
            continue
        raw = _PACK.pack(48, step & 7, int(now), 0, step & 15, step)
        record = dict(zip(_FIELDS, _PACK.unpack(raw)))
        table[step & 1023] = record
        total += len("cpuTime={0} pid={1}".format(record["cpuTime"], record["pid"]))
        heapq.heappush(heap, _Event(now + (step % 7) * 0.1, seq, event.task))
        seq += 1
    return total


class Pacer:
    """Interleaves slices with the work and integrates reference time.

    ``mark()`` always runs a slice and returns its index; ``pace()``
    runs one unless the last is still fresh.  ``reference_seconds(i,
    j)`` is the work between marks ``i`` and ``j`` -- the slices
    themselves excluded -- at reference speed."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def mark(self):
        start = time.perf_counter()
        spin_slice()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        return len(self.ends) - 1

    def pace(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= MIN_GAP_S:
            self.mark()

    def durations(self):
        return [end - start for start, end in zip(self.starts, self.ends)]

    def host_seconds(self, first, last):
        """Wall time of the work between two marks, slices excluded."""
        return sum(
            self.starts[k + 1] - self.ends[k] for k in range(first, last)
        )

    def reference_seconds(self, first, last):
        return reference_seconds(self.starts, self.ends, first, last)


def reference_seconds(starts, ends, first, last):
    """Integrate work time over reference speed, stretch by stretch.

    A slice that took more than twice (or less than half) the median
    of its neighbourhood was hit by something other than host speed (a
    preemption, a full garbage collection); it is read as the median."""
    durations = [ends[k] - starts[k] for k in range(first, last + 1)]
    typical = statistics.median(durations)
    durations = [
        typical if not typical / 2 <= d <= typical * 2 else d for d in durations
    ]
    total = 0.0
    for offset in range(last - first):
        k = first + offset
        work = starts[k + 1] - ends[k]
        factor = (durations[offset] + durations[offset + 1]) / 2.0 / SLICE_REF_S
        total += work / factor
    return total


def drift(factors):
    """Relative movement of the speed factor between the first and the
    last unit of a workload (0.0 with fewer than two units)."""
    if len(factors) < 2:
        return 0.0
    return abs(factors[-1] - factors[0]) / statistics.median(factors)


def is_noisy(factors):
    return drift(factors) > NOISY_DRIFT


def summary(durations):
    """min / median / max of the slice samples, in milliseconds."""
    if not durations:
        return {"min": 0.0, "median": 0.0, "max": 0.0}
    return {
        "min": min(durations) * 1e3,
        "median": statistics.median(durations) * 1e3,
        "max": max(durations) * 1e3,
    }
