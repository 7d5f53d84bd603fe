"""Communications statistics (one of the [Miller 84] analyses)."""

from collections import Counter, defaultdict


class ProcessStats:
    """Per-process counters."""

    def __init__(self, process):
        self.process = process
        self.event_counts = Counter()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.sockets_created = 0
        self.cpu_ms = 0

    def as_dict(self):
        return {
            "process": self.process,
            "events": dict(self.event_counts),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "sockets_created": self.sockets_created,
            "cpu_ms": self.cpu_ms,
        }


class CommunicationStatistics:
    """Summarize a trace: volumes, counts, per-pair traffic."""

    def __init__(self, trace, matcher=None):
        self.trace = trace
        self.matcher = matcher or trace.matcher()
        self.per_process = {}
        for process in trace.processes():
            stats = self.per_process[process] = ProcessStats(process)
            counts = stats.event_counts
            for event in trace.events_for(process):
                kind = event.event
                counts[kind] += 1
                if event.proc_time > stats.cpu_ms:
                    stats.cpu_ms = event.proc_time
                if kind == "send":
                    stats.bytes_sent += event.msg_length
                    stats.messages_sent += 1
                elif kind == "receive":
                    stats.bytes_received += event.msg_length
                    stats.messages_received += 1
                elif kind == "socket":
                    stats.sockets_created += 1
        #: (sender process, receiver process) -> [message count, bytes]
        self.pair_traffic = defaultdict(lambda: [0, 0])
        for pair in self.matcher.pairs:
            entry = self.pair_traffic[(pair.send.process, pair.recv.process)]
            entry[0] += 1
            entry[1] += pair.nbytes

    # ------------------------------------------------------------------

    def totals(self):
        return {
            "events": len(self.trace),
            "processes": len(self.per_process),
            "machines": len(self.trace.machines()),
            "messages_sent": sum(
                s.messages_sent for s in self.per_process.values()
            ),
            "bytes_sent": sum(s.bytes_sent for s in self.per_process.values()),
            "matched_pairs": len(self.matcher.pairs),
        }

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
