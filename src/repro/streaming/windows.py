"""Windowed communication statistics: sliding-window rates the batch
analysis has no notion of.

The cumulative counters (per process, per process pair, totals) are not
kept here: the causal fold counts them once, for the live ``stats``
reply and :class:`~repro.analysis.stats.CommunicationStatistics` alike.
Window state lives in two deques stamped with a monotone watermark
position; eviction pops the left end, aggregates are computed at
snapshot time by filtering on the cutoff, so out-of-order local
timestamps (skewed clocks) can delay eviction but never distort an
answer.  The fold only appends; the engine evicts before it reads the
window's size.  The cutoff only grows and eviction pops the longest
prefix at or below it, so evicting once before a read leaves the same
deques as evicting after every record.  All snapshot keys are
JSON-native: a snapshot must survive the query RPC round-trip
unchanged.
"""

from collections import Counter, deque

from repro.streaming.fold import sorted_machines


class WindowedStats:
    """A sliding window of recent events and matched pairs."""

    def __init__(self, window_ms=500.0):
        self.window_ms = float(window_ms)
        self.win_events = deque()  # (time, key, kind, length, machine)
        self.win_pairs = deque()  # (stamp, lag_ms, nbytes, pair key)
        self._pair_keys = {}  # (send.proc, recv.proc) -> "sm:spid->rm:rpid"

    # -- fold ----------------------------------------------------------

    def update(self, event):
        self.win_events.append(
            (event.local_time, event.proc.key, event.event, event.msg_length,
             event.machine)
        )

    def pair_key(self, procs):
        """``"sm:spid->rm:rpid"`` for ``(send.proc, recv.proc)``,
        formatted once per pair of processes, not per message."""
        key = self._pair_keys.get(procs)
        if key is None:
            key = self._pair_keys[procs] = "{0}->{1}".format(
                procs[0].key, procs[1].key
            )
        return key

    def on_pair(self, send, recv, nbytes, watermark):
        # Stamped with the watermark at match time (monotone), not the
        # event times: a datagram may be claimed long after both sides
        # arrived.  The raw lag keeps the skew in -- that *is* the
        # measurement.
        self.win_pairs.append(
            (watermark, recv.local_time - send.local_time, nbytes,
             self.pair_key((send.proc, recv.proc)))
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

    def snapshot(self, watermark):
        """The ``window`` half of the engine's ``stats`` reply."""
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
            "window_ms": self.window_ms,
            "events": w_count,
            "rate_per_s": round(w_count / seconds, 3),
            "active_processes": len(active),
            "per_machine": {
                str(machine): per_machine[machine]
                for machine in sorted_machines(per_machine)
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
        }

    def state_size(self):
        return len(self.win_events) + len(self.win_pairs)
