"""Windowed communication statistics: the cumulative counters of
:class:`~repro.analysis.stats.CommunicationStatistics` as a fold, plus
sliding-window rates the batch analysis has no notion of.

Cumulative state (per-process counters, pair traffic, totals) is the
post-mortem twin and must match it field for field at end of session.
Window state lives in two deques stamped with a monotone watermark
position; eviction pops the left end, aggregates are computed at
snapshot time by filtering on the cutoff, so out-of-order local
timestamps (skewed clocks) can delay eviction but never distort an
answer.  All snapshot keys are JSON-native: a snapshot must survive
the query RPC round-trip unchanged.
"""

from collections import Counter, deque


def process_key(machine, pid):
    return "{0}:{1}".format(machine, pid)


class WindowedStats:
    """Per-process counters plus a sliding window of recent activity."""

    def __init__(self, window_ms=500.0):
        self.window_ms = float(window_ms)
        # -- cumulative: the CommunicationStatistics twin --------------
        self.events = 0
        self.machines = set()
        self.per_process = {}  # "machine:pid" -> counter dict
        self.matched_pairs = 0
        self.pair_traffic = {}  # "sm:spid->rm:rpid" -> [count, bytes]
        self._pair_keys = {}  # (send.proc, recv.proc) -> that key
        # -- windowed --------------------------------------------------
        self.win_events = deque()  # (time, key, kind, length, machine)
        self.win_pairs = deque()  # (stamp, lag_ms, nbytes, pair key)

    # -- fold ----------------------------------------------------------

    def admit(self, key):
        """A process's cumulative counters, created on first sight (the
        engine keeps them on ``event.proc.stats``)."""
        stats = self.per_process.get(key)
        if stats is None:
            stats = self.per_process[key] = {
                "events": Counter(),
                "bytes_sent": 0,
                "bytes_received": 0,
                "messages_sent": 0,
                "messages_received": 0,
                "sockets_created": 0,
                "cpu_ms": 0,
            }
        return stats

    def update(self, event, watermark):
        key = event.proc.key
        stats = event.proc.stats
        kind = event.event
        stats["events"][kind] += 1
        if event.proc_time > stats["cpu_ms"]:
            stats["cpu_ms"] = event.proc_time
        if kind == "send":
            stats["bytes_sent"] += event.msg_length
            stats["messages_sent"] += 1
        elif kind == "receive":
            stats["bytes_received"] += event.msg_length
            stats["messages_received"] += 1
        elif kind == "socket":
            stats["sockets_created"] += 1
        self.machines.add(event.machine)
        self.events += 1
        self.win_events.append(
            (event.local_time, key, kind, event.msg_length, event.machine)
        )
        self.evict(watermark)

    def on_pair(self, send, recv, nbytes, watermark):
        self.matched_pairs += 1
        procs = (send.proc, recv.proc)
        pair_key = self._pair_keys.get(procs)
        if pair_key is None:
            pair_key = self._pair_keys[procs] = "{0}->{1}".format(
                send.proc.key, recv.proc.key
            )
        entry = self.pair_traffic.get(pair_key)
        if entry is None:
            entry = self.pair_traffic[pair_key] = [0, 0]
        entry[0] += 1
        entry[1] += nbytes
        # Stamped with the watermark at match time (monotone), not the
        # event times: a datagram may be claimed long after both sides
        # arrived.  The raw lag keeps the skew in -- that *is* the
        # measurement.
        self.win_pairs.append(
            (watermark, recv.local_time - send.local_time, nbytes, pair_key)
        )

    def evict(self, watermark):
        cutoff = watermark - self.window_ms
        win_events = self.win_events
        while win_events and win_events[0][0] <= cutoff:
            win_events.popleft()
        win_pairs = self.win_pairs
        while win_pairs and win_pairs[0][0] <= cutoff:
            win_pairs.popleft()

    # -- answers -------------------------------------------------------

    def totals(self):
        """Identical shape and values to CommunicationStatistics.totals."""
        return {
            "events": self.events,
            "processes": len(self.per_process),
            "machines": len(self.machines),
            "messages_sent": sum(
                s["messages_sent"] for s in self.per_process.values()
            ),
            "bytes_sent": sum(
                s["bytes_sent"] for s in self.per_process.values()
            ),
            "matched_pairs": self.matched_pairs,
        }

    def per_process_dict(self):
        return {
            key: dict(stats, events=dict(stats["events"]))
            for key, stats in self.per_process.items()
        }

    def snapshot(self, watermark):
        cutoff = watermark - self.window_ms
        w_count = 0
        w_sends = 0
        w_send_bytes = 0
        w_recv_bytes = 0
        active = set()
        per_machine = Counter()
        for time, key, kind, length, machine in self.win_events:
            if time <= cutoff:
                continue
            w_count += 1
            active.add(key)
            per_machine[machine] += 1
            if kind == "send":
                w_sends += 1
                w_send_bytes += length
            elif kind == "receive":
                w_recv_bytes += length
        p_count = 0
        p_bytes = 0
        lag_sum = 0.0
        lag_max = 0.0
        pair_rates = {}
        for stamp, lag, nbytes, pair_key in self.win_pairs:
            if stamp <= cutoff:
                continue
            p_count += 1
            p_bytes += nbytes
            lag_sum += lag
            if lag > lag_max:
                lag_max = lag
            rate = pair_rates.setdefault(
                pair_key, {"messages": 0, "bytes": 0}
            )
            rate["messages"] += 1
            rate["bytes"] += nbytes
        seconds = self.window_ms / 1000.0 if self.window_ms > 0 else 1.0
        return {
            "totals": self.totals(),
            "per_process": self.per_process_dict(),
            "pair_traffic": {
                key: list(entry) for key, entry in self.pair_traffic.items()
            },
            "window": {
                "window_ms": self.window_ms,
                "events": w_count,
                "rate_per_s": round(w_count / seconds, 3),
                "active_processes": len(active),
                "per_machine": {
                    str(machine): count
                    for machine, count in sorted(per_machine.items())
                },
                "messages_sent": w_sends,
                "bytes_sent": w_send_bytes,
                "bytes_received": w_recv_bytes,
                "pairs": {
                    "count": p_count,
                    "bytes": p_bytes,
                    "lag_mean_ms": round(lag_sum / p_count, 3)
                    if p_count
                    else 0.0,
                    "lag_max_ms": round(lag_max, 3),
                },
                "pair_rates": pair_rates,
            },
        }

    def state_size(self):
        return (
            len(self.win_events)
            + len(self.win_pairs)
            + len(self.per_process)
        )
