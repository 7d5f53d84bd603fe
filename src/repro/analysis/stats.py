"""Communications statistics (one of the [Miller 84] analyses): a view
over the counters of the fold the matcher ran, which the live ``stats``
reply reads too (``analysis.reference`` is their naive check)."""


class CommunicationStatistics:
    """Summarize a trace: volumes, counts, per-pair traffic."""

    def __init__(self, trace, matcher=None):
        self.trace = trace
        self.matcher = matcher or trace.matcher()
        fold = self.matcher.fold
        #: process -> its fold slot (``event_counts``, ``bytes_sent``,
        #: ``messages_received``, ``cpu_ms``, ... see ``clocks.Process``)
        self.per_process = dict(fold.procs)
        #: (sender process, receiver process) -> [message count, bytes]
        self.pair_traffic = {
            (send.process, recv.process): entry
            for (send, recv), entry in fold.pair_traffic.items()
        }

    # ------------------------------------------------------------------

    def totals(self):
        return self.matcher.totals()

    def message_size_histogram(self, bucket_bytes=64):
        """Sent-message sizes, bucketed: {bucket start: count}."""
        histogram = {}
        for event in self.trace.by_type("send"):
            bucket = (event.msg_length // bucket_bytes) * bucket_bytes
            histogram[bucket] = histogram.get(bucket, 0) + 1
        return dict(sorted(histogram.items()))

    def send_rates(self):
        """Messages per second of local-clock time, per process."""
        rates = {}
        for process in self.trace.processes():
            events = self.trace.events_for(process)
            sends = [e for e in events if e.event == "send"]
            if len(sends) < 2:
                continue
            span_ms = sends[-1].local_time - sends[0].local_time
            if span_ms > 0:
                rates[process] = 1000.0 * (len(sends) - 1) / span_ms
        return rates

    def busiest_processes(self, n=5):
        ranked = sorted(
            self.per_process.values(),
            key=lambda s: s.bytes_sent + s.bytes_received,
            reverse=True,
        )
        return ranked[:n]

    def report(self):
        """A human-readable multi-line summary."""
        lines = ["Communication statistics"]
        totals = self.totals()
        lines.append(
            "  {events} events, {processes} processes on {machines} "
            "machines".format(**totals)
        )
        lines.append(
            "  {messages_sent} messages sent, {bytes_sent} bytes, "
            "{matched_pairs} send/receive pairs matched".format(**totals)
        )
        for (src, dst), (count, nbytes) in sorted(self.pair_traffic.items()):
            lines.append(
                "  {0} -> {1}: {2} messages, {3} bytes".format(
                    src, dst, count, nbytes
                )
            )
        return "\n".join(lines)
