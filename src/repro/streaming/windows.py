"""Windowed communication statistics: sliding-window rates the batch
analysis has no notion of.

The cumulative counters (per process, per process pair, totals) are not
kept here: the causal fold counts them once, for the live ``stats``
reply and :class:`~repro.analysis.stats.CommunicationStatistics` alike.
Window state lives in two deques stamped with a monotone watermark
position.  The fold only appends; the engine evicts before it reads the
window's size.  The cutoff only grows and eviction pops the longest
prefix at or below it, so evicting once before a read leaves the same
deques as evicting after every record.

A sliding-window statistic is a fold whose step can be undone, so the
answers are running aggregates over the deques (event, send and byte
counts, per-process and per-machine counts, per-pair-key messages and
bytes) rather than a rescan.  They are brought up to date only when
the window is read: :meth:`WindowedStats.snapshot` counts the entries
appended since the last read and :meth:`WindowedStats.evict` uncounts
the counted entries it pops, each in C-level passes over the batch, so
appending costs nothing more than the append.  Until the first read
nothing is counted and eviction only pops.

Out-of-order local timestamps (skewed clocks) can leave an event whose
time is at or below the cutoff behind a newer head, where eviction
cannot reach it.  Only a *late* event -- one whose time is below an
earlier entry's -- can be stuck like that (any other event left behind
the head is at least as late as the head, which is past the cutoff).
A read notes the late events it counts and discounts the stale ones
from its reply only.  Pairs are stamped with the watermark, which
never decreases, so their eviction is exact.  The lag sum and maximum
are left folds over the pair deque (C-level ``functools.reduce`` and
``max``), so a float lag gives the bit-for-bit answer of a scan in
deque order.  Byte counts are integers (the codec and the log parser
only produce integer ``msgLength``), which makes their running sums
exact.  All snapshot keys are JSON-native: a snapshot
must survive the query RPC round-trip unchanged.
"""

from bisect import bisect_left
from collections import Counter, deque
from functools import reduce
from itertools import (
    accumulate, chain, compress, count, groupby, islice, repeat,
)
from operator import add, eq, itemgetter, le, lt

from repro.streaming.fold import sorted_machines

_TIME = itemgetter(0)  # an event's local time, a pair's stamp
_KEY = itemgetter(1)
_KIND = itemgetter(2)
_LENGTH = itemgetter(3)
_MACHINE = itemgetter(4)
_LAG = itemgetter(1)
_NBYTES = itemgetter(2)
_PAIR_KEY = itemgetter(3)


def _newest(entries, n):
    """The last ``n`` entries, oldest first, without walking the rest."""
    tail = list(islice(reversed(entries), n))
    tail.reverse()
    return tail


def _event_sums(events):
    """(sends, bytes sent, bytes received) over window events."""
    kinds = list(map(_KIND, events))
    lengths = list(map(_LENGTH, events))
    sent = list(compress(lengths, map(eq, kinds, repeat("send"))))
    received = compress(lengths, map(eq, kinds, repeat("receive")))
    return len(sent), sum(sent), sum(received)


def _shift(counts, tally, sign):
    """Add (``sign`` 1) or remove (-1) a :class:`Counter` ``tally``; a
    count that reaches zero leaves ``counts``."""
    for key, n in tally.items():
        left = counts.get(key, 0) + sign * n
        if left:
            counts[key] = left
        else:
            del counts[key]


class WindowedStats:
    """A sliding window of recent events and matched pairs."""

    def __init__(self, window_ms=500.0):
        self.window_ms = float(window_ms)
        self.win_events = deque()  # (time, key, kind, length, machine)
        self.win_pairs = deque()  # (stamp, lag_ms, nbytes, pair key)
        self._pair_keys = {}  # (send.proc, recv.proc) -> "sm:spid->rm:rpid"
        # Running aggregates over the counted entries: the leftmost
        # ``_counted`` events and ``_pairs_counted`` pairs.
        self._counted = 0
        self._seen = 0  # events ever counted: the next one's position
        self._high = float("-inf")  # latest counted event time
        self._late_at = []  # positions of counted late events ...
        self._late = []  # ... and the events, oldest first
        self._sends = 0
        self._bytes_sent = 0
        self._bytes_received = 0
        self._procs = {}  # process key -> events
        self._machines = {}  # machine -> events
        self._pairs_counted = 0
        self._pair_bytes = 0
        self._pair_rates = {}  # pair key -> [messages, bytes]

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
        win_pairs = self.win_pairs
        if not (self._counted or self._pairs_counted):
            # Nothing counted (a window never read): only pop.
            while win_events and win_events[0][0] <= cutoff:
                win_events.popleft()
            while win_pairs and win_pairs[0][0] <= cutoff:
                win_pairs.popleft()
            return
        gone = []
        while win_events and win_events[0][0] <= cutoff:
            gone.append(win_events.popleft())
        counted = self._counted
        if gone and counted:
            self._count_events(gone[:counted], -1)
            self._counted = max(counted - len(gone), 0)
        gone = []
        while win_pairs and win_pairs[0][0] <= cutoff:
            gone.append(win_pairs.popleft())
        counted = self._pairs_counted
        if gone and counted:
            self._count_pairs(gone[:counted], -1)
            self._pairs_counted = max(counted - len(gone), 0)

    # -- running aggregates --------------------------------------------

    def _count_events(self, events, sign):
        sends, sent, received = _event_sums(events)
        procs = Counter(map(_KEY, events))
        machines = Counter(map(_MACHINE, events))
        self._sends += sign * sends
        self._bytes_sent += sign * sent
        self._bytes_received += sign * received
        _shift(self._procs, procs, sign)
        _shift(self._machines, machines, sign)

    def _count_pairs(self, pairs, sign):
        self._pair_bytes += sign * sum(map(_NBYTES, pairs))
        rates = self._pair_rates
        for key, group in groupby(sorted(pairs, key=_PAIR_KEY), _PAIR_KEY):
            group = list(group)
            rate = rates.get(key)
            if rate is None:
                rate = rates[key] = [0, 0]
            rate[0] += sign * len(group)
            if rate[0]:
                rate[1] += sign * sum(map(_NBYTES, group))
            else:
                del rates[key]

    def _sync(self):
        """Count the events and pairs appended since the last read,
        noting the late events."""
        win_events = self.win_events
        fresh = len(win_events) - self._counted
        if fresh:
            new = _newest(win_events, fresh)
            times = list(map(_TIME, new))
            late = list(map(lt, times, accumulate(times, max,
                                                  initial=self._high)))
            self._count_events(new, 1)
            self._high = max(self._high, max(times))
            self._late_at += compress(count(self._seen), late)
            self._late += compress(new, late)
            self._seen += fresh
            self._counted = len(win_events)
        fresh = len(self.win_pairs) - self._pairs_counted
        if fresh:
            self._count_pairs(_newest(self.win_pairs, fresh), 1)
            self._pairs_counted = len(self.win_pairs)

    def _stale(self, cutoff):
        """The late events still in the window at or below ``cutoff``.
        Counted events leave from the left, so the first ``_seen -
        _counted`` positions are gone."""
        drop = bisect_left(self._late_at, self._seen - self._counted)
        del self._late_at[:drop], self._late[:drop]
        return list(compress(
            self._late, map(le, map(_TIME, self._late), repeat(cutoff))
        ))

    # -- answers -------------------------------------------------------

    def snapshot(self, watermark):
        """The ``window`` half of the engine's ``stats`` reply.

        Evicts first (the engine's ``state_size`` evicts at the same
        watermark right after, so no deque ends up different), then
        discounts the late events still stuck behind a newer head."""
        self.evict(watermark)
        self._sync()
        stale = self._stale(watermark - self.window_ms)
        w_count = len(self.win_events) - len(stale)
        w_sends = self._sends
        w_send_bytes = self._bytes_sent
        w_recv_bytes = self._bytes_received
        procs = self._procs
        per_machine = self._machines
        if stale:
            sends, sent, received = _event_sums(stale)
            w_sends -= sends
            w_send_bytes -= sent
            w_recv_bytes -= received
            procs = dict(procs)
            _shift(procs, Counter(map(_KEY, stale)), -1)
            per_machine = dict(per_machine)
            _shift(per_machine, Counter(map(_MACHINE, stale)), -1)
        win_pairs = self.win_pairs
        p_count = len(win_pairs)
        lag_sum = reduce(add, map(_LAG, win_pairs), 0.0)
        lag_max = max(chain((0.0,), map(_LAG, win_pairs)))
        seconds = self.window_ms / 1000.0 if self.window_ms > 0 else 1.0
        return {
            "window_ms": self.window_ms,
            "events": w_count,
            "rate_per_s": round(w_count / seconds, 3),
            "active_processes": len(procs),
            "per_machine": {
                str(machine): per_machine[machine]
                for machine in sorted_machines(per_machine)
            },
            "messages_sent": w_sends,
            "bytes_sent": w_send_bytes,
            "bytes_received": w_recv_bytes,
            "pairs": {
                "count": p_count,
                "bytes": self._pair_bytes,
                "lag_mean_ms": round(lag_sum / p_count, 3)
                if p_count
                else 0.0,
                "lag_max_ms": round(lag_max, 3),
            },
            "pair_rates": {
                key: {"messages": messages, "bytes": nbytes}
                for key, (messages, nbytes) in self._pair_rates.items()
            },
        }

    def state_size(self):
        return len(self.win_events) + len(self.win_pairs)
