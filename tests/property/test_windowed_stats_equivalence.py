"""Property test: the window's running aggregates against the rescan
they replaced.

``_old_snapshot`` is ``WindowedStats.snapshot`` as it was, kept here
verbatim as the oracle: one pass over both deques per read, filtering
on the cutoff without evicting.  The new snapshot evicts, counts what
arrived since the last read, uncounts what eviction popped and
discounts late events stuck behind a newer head.  Any interleaving of
appends, pairs, evictions, size reads and snapshots must give the same
reply (as sort-keyed JSON, so a float's type shows) and the same deques.
"""

import json
from collections import Counter
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.streaming.fold import sorted_machines
from repro.streaming.windows import WindowedStats


def _old_snapshot(self, watermark):
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


# ----------------------------------------------------------------------

class _Proc:
    """A process slot: hashed by identity, named by ``key``."""

    def __init__(self, key):
        self.key = key


_IDS = ("red", None, 1, 2, 2.5)
_PROCS = {
    (machine, pid): _Proc("{0}:{1}".format(machine, pid))
    for machine in _IDS
    for pid in (None, 7, 8.5, "p")
}

_TIMES = st.one_of(
    st.integers(min_value=-20, max_value=700),
    st.floats(min_value=-20.0, max_value=700.0, allow_nan=False),
)
_PROC = st.tuples(st.sampled_from(_IDS), st.sampled_from((None, 7, 8.5, "p")))

_OPS = st.one_of(
    st.tuples(
        st.just("update"),
        _TIMES,
        _PROC,
        st.sampled_from(("send", "receive", "fork", "socket", None)),
        st.integers(min_value=0, max_value=300),
    ),
    st.tuples(
        st.just("pair"),
        _TIMES,
        _TIMES,
        st.tuples(_PROC, _PROC),
        st.integers(min_value=0, max_value=300),
    ),
    st.tuples(st.just("evict")),
    st.tuples(st.just("size")),
    st.tuples(st.just("snapshot")),
)


def _event(time, process, kind, length):
    return SimpleNamespace(
        local_time=time, proc=_PROCS[process], event=kind,
        msg_length=length, machine=process[0],
    )


def _dump(reply):
    return json.dumps(reply, sort_keys=True)


def _run(ops, window_ms):
    """Drive the window under test and a reference copy through ``ops``
    with the engine's monotone watermark; the reference is read by the
    old rescan, then evicted as the engine's ``state_size`` does."""
    new = WindowedStats(window_ms)
    ref = WindowedStats(window_ms)
    watermark = 0.0
    for op in ops:
        kind = op[0]
        if kind == "update":
            event = _event(*op[1:])
            if event.local_time > watermark:
                watermark = event.local_time
            new.update(event)
            ref.update(event)
        elif kind == "pair":
            __, send_time, recv_time, (src, dst), nbytes = op
            send = _event(send_time, src, "send", nbytes)
            recv = _event(recv_time, dst, "receive", nbytes)
            new.on_pair(send, recv, nbytes, watermark)
            ref.on_pair(send, recv, nbytes, watermark)
        elif kind == "snapshot":
            expected = _dump(_old_snapshot(ref, watermark))
            assert _dump(new.snapshot(watermark)) == expected
            ref.evict(watermark)
            new.evict(watermark)
        else:
            ref.evict(watermark)
            new.evict(watermark)
            if kind == "size":
                assert new.state_size() == ref.state_size()
        assert new.win_events == ref.win_events
        assert new.win_pairs == ref.win_pairs
    assert _dump(new.snapshot(watermark)) == _dump(
        _old_snapshot(ref, watermark)
    )


# A late event stuck behind a newer head that an earlier read counted:
# at t=150 the head (t=100) survives the cutoff, the event behind it
# (t=10) does not; at t=185 both go.
_STUCK = [
    ("update", 0, ("red", 7), "send", 5),
    ("update", 100, (1, 7), "send", 9),
    ("snapshot",),
    ("update", 10, (2, None), "receive", 4),
    ("update", 150, (1, 7), "send", 3),
    ("snapshot",),
    ("update", 170, (2, 8.5), "receive", 6),
    ("snapshot",),
    ("update", 185, (1, 7), "fork", 0),
    ("snapshot",),
]

# A late event exactly at the cutoff is out of the window.
_AT_CUTOFF = [
    ("update", 100, (1, 7), "send", 9),
    ("snapshot",),
    ("update", 20, (2, 7), "receive", 4),
    ("update", 100, (1, 7), "send", 3),
    ("snapshot",),
]

# Float lags that cancel.  The 1e17 stamped first leaves alone, after
# the read that counted it with the rest: a running sum (1e17 + 0.75
# is 1e17, less 1e17 is 0), like a fold in any order but the deque's,
# ends at another mean.
_FLOAT_LAGS = [
    ("pair", 0.0, 1e17, ((1, 7), (2, 7)), 1),
    ("update", 50, (2, 7), "receive", 1),
    ("pair", 0.0, 1e17, ((1, 7), (2, 7)), 2),
    ("pair", 1e17, 0.0, ((2, 7), (1, 7)), 3),
    ("pair", 0.0, 0.5, ((1, 7), (2, 7)), 4),
    ("pair", 0.0, 0.25, ((2, 7), (1, 7)), 5),
    ("snapshot",),
    ("update", 520, (1, 7), "send", 1),
    ("snapshot",),
]


@given(
    st.lists(_OPS, max_size=120),
    st.sampled_from((0.0, 1.0, 25.0, 80.0, 500.0)),
)
@example(_STUCK, 80.0)
@example(_AT_CUTOFF, 80.0)
@example(_FLOAT_LAGS, 500.0)
@settings(max_examples=400, deadline=None)
def test_running_aggregates_answer_what_the_rescan_did(ops, window_ms):
    _run(ops, window_ms)


def test_never_read_window_counts_nothing():
    """Until the first read, eviction only pops: the post-mortem replay
    evicts every 256 records and never reads the window."""
    windows = WindowedStats(10.0)
    for time in range(100):
        windows.update(_event(time, (1, 7), "send", 4))
        windows.evict(float(time))
    assert windows._counted == 0 and windows._procs == {}
    assert len(windows.win_events) == 10
