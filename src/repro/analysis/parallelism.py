"""Measurement of parallelism (one of the [Miller 84] analyses).

From a trace alone we can see, per process, when it was actively
producing events and how much CPU it was charged (``procTime``).  The
profile divides skew-corrected global time into buckets and counts the
processes active in each; its average is the effective parallelism of
the computation -- the number the paper's TSP study ([Lai & Miller 84])
used to find that the "parallel" solver was mostly serialized.
"""

from repro.analysis.ordering import estimate_clock_skews


class ParallelismProfile:
    """Activity-over-time profile of a computation."""

    def __init__(self, trace, bucket_ms=10.0, matcher=None):
        self.trace = trace
        self.bucket_ms = float(bucket_ms)
        self.matcher = matcher or trace.matcher()
        self.skews = estimate_clock_skews(trace, self.matcher)
        #: process -> (first, last) corrected activity times
        self.spans = {}
        for process in trace.processes():
            # One machine per process, so one skew: correct the two
            # extremes, not every event.
            skew = self.skews.get(process[0], 0.0)
            times = [e.local_time for e in trace.events_for(process)]
            self.spans[process] = (min(times) - skew, max(times) - skew)
        self.start = min((span[0] for span in self.spans.values()), default=0.0)
        self.end = max((span[1] for span in self.spans.values()), default=0.0)
        self.buckets = self._fill_buckets()

    def _fill_buckets(self):
        if self.end <= self.start:
            return [len(self.spans)] if self.spans else []
        count = max(1, int((self.end - self.start) / self.bucket_ms) + 1)
        buckets = [0] * count
        for first, last in self.spans.values():
            lo = int((first - self.start) / self.bucket_ms)
            hi = int((last - self.start) / self.bucket_ms)
            for i in range(lo, min(hi, count - 1) + 1):
                buckets[i] += 1
        return buckets

    # ------------------------------------------------------------------

    def average_parallelism(self):
        """Mean number of simultaneously-active processes."""
        if not self.buckets:
            return 0.0
        return sum(self.buckets) / len(self.buckets)

    def peak_parallelism(self):
        return max(self.buckets) if self.buckets else 0

    def elapsed_ms(self):
        return self.end - self.start

    def total_cpu_ms(self):
        """Sum of final procTime per process: total work performed."""
        return sum(p.cpu_ms for p in self.matcher.fold.procs.values())

    def cpu_parallelism(self):
        """Total CPU / elapsed: parallelism weighted by real work, at
        the 10 ms granularity the paper warns about."""
        elapsed = self.elapsed_ms()
        if elapsed <= 0:
            return float(len(self.spans))
        return self.total_cpu_ms() / elapsed

    def report(self):
        lines = ["Parallelism profile"]
        lines.append(
            "  {0} processes over {1:.0f} ms (bucket {2:.0f} ms)".format(
                len(self.spans), self.elapsed_ms(), self.bucket_ms
            )
        )
        lines.append(
            "  average active processes: {0:.2f}  peak: {1}".format(
                self.average_parallelism(), self.peak_parallelism()
            )
        )
        lines.append(
            "  total CPU {0:.0f} ms -> CPU parallelism {1:.2f}".format(
                self.total_cpu_ms(), self.cpu_parallelism()
            )
        )
        return "\n".join(lines)
