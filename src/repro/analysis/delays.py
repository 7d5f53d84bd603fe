"""Message delay analysis.

Once sends are matched to receives and clock skew is estimated, the
trace yields end-to-end message delays -- the communication costs a
performance study needs (one of the "communications statistics" of
[Miller 84]).  Raw local timestamps would make cross-machine delays
meaningless (even negative); delays here are computed on
skew-corrected times.  numpy is imported by the statistics that use
it, not with the package.
"""

from repro.analysis.ordering import estimate_clock_skews


class MessageDelays:
    """Per-message and per-process-pair delay statistics."""

    def __init__(self, trace, matcher=None, skews=None):
        self.trace = trace
        self.matcher = matcher or trace.matcher()
        self.skews = (
            skews
            if skews is not None
            else estimate_clock_skews(trace, self.matcher)
        )
        #: (src process, dst process) -> [corrected delays in ms]
        self.by_pair = {}
        self.delays = []
        for pair in self.matcher.pairs:
            send_t = pair.send.local_time - self.skews.get(pair.send.machine, 0.0)
            recv_t = pair.recv.local_time - self.skews.get(pair.recv.machine, 0.0)
            delay = recv_t - send_t
            self.delays.append(delay)
            key = (pair.send.process, pair.recv.process)
            self.by_pair.setdefault(key, []).append(delay)

    def count(self):
        return len(self.delays)

    def mean(self):
        import numpy as np

        return float(np.mean(self.delays)) if self.delays else 0.0

    def minimum(self):
        import numpy as np

        return float(np.min(self.delays)) if self.delays else 0.0

    def maximum(self):
        import numpy as np

        return float(np.max(self.delays)) if self.delays else 0.0

    def percentile(self, q):
        import numpy as np

        return float(np.percentile(self.delays, q)) if self.delays else 0.0

    def negative_fraction(self):
        """Fraction of corrected delays below zero: residual skew the
        offset estimate could not remove (should be ~0)."""
        if not self.delays:
            return 0.0
        return sum(1 for d in self.delays if d < 0) / len(self.delays)

    def pair_means(self):
        import numpy as np

        return {
            key: float(np.mean(values)) for key, values in self.by_pair.items()
        }

    def report(self):
        if not self.delays:
            return "Message delays: no matched messages"
        lines = [
            "Message delays ({0} matched messages)".format(self.count()),
            "  mean {0:.2f} ms   min {1:.2f}   p90 {2:.2f}   max {3:.2f}".format(
                self.mean(), self.minimum(), self.percentile(90), self.maximum()
            ),
        ]
        for (src, dst), mean in sorted(self.pair_means().items()):
            lines.append(
                "  {0} -> {1}: {2:.2f} ms mean over {3} messages".format(
                    src, dst, mean, len(self.by_pair[(src, dst)])
                )
            )
        return "\n".join(lines)
