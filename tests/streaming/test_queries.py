"""Unit tests for the continuous-query folds, driven directly with
synthetic events (no cluster)."""

import pytest

from repro.analysis.trace import Trace
from repro.streaming.engine import StreamEngine, serve_query
from repro.streaming.fold import Event
from repro.streaming.queries import (
    DEFAULT_QUERY_WINDOW_MS,
    QUERY_KINDS,
    make_query,
)


def _event(event="send", machine=1, pid=10, proc_seq=0, time=0.0,
           length=64, dest="red", in_matching=False, index=0):
    record = {
        "event": event,
        "machine": machine,
        "pid": pid,
        "cpuTime": time,
        "procTime": time,
        "msgLength": length,
        "destName": dest,
    }
    ev = Event(record, index)
    ev.proc_seq = proc_seq
    ev.in_matching = in_matching
    return ev


class Recorder:
    def __init__(self):
        self.firings = []

    def __call__(self, query, details):
        self.firings.append((query.qid, dict(details)))


def test_make_query_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_query(1, {"kind": "bogus"})
    with pytest.raises(ValueError):
        make_query(1, {})


def test_window_spelling_both_accepted():
    by_cli = make_query(1, {"kind": "quiet", "window": 200})
    by_api = make_query(1, {"kind": "quiet", "window_ms": 200})
    assert by_cli.window_ms == by_api.window_ms == 200.0
    assert make_query(1, {"kind": "quiet"}).window_ms == DEFAULT_QUERY_WINDOW_MS


def test_undelivered_fires_after_window_only():
    fire = Recorder()
    q = make_query(7, {"kind": "undelivered", "window_ms": 100})
    send = _event(time=50.0, in_matching=True)
    q.on_event(send, 50.0, fire)
    q.advance(120.0, fire)  # 50 + 100 > 120: still within the window
    assert fire.firings == []
    q.advance(151.0, fire)
    assert len(fire.firings) == 1
    qid, details = fire.firings[0]
    assert qid == 7
    assert details["process"] == "1:10"
    assert details["proc_seq"] == 0
    assert details["dest"] == "red"
    # fires once per send -- nothing left pending
    q.advance(1000.0, fire)
    assert len(fire.firings) == 1 and q.state_size() == 0


def test_undelivered_paired_send_never_fires():
    fire = Recorder()
    q = make_query(1, {"kind": "undelivered", "window_ms": 100})
    send = _event(time=50.0, in_matching=True)
    recv = _event(event="receive", machine=2, pid=20, time=60.0)
    q.on_event(send, 50.0, fire)
    q.on_pair(send, recv, 60.0, fire)
    q.advance(1000.0, fire)
    assert fire.firings == []


def test_undelivered_ignores_sends_outside_matching():
    fire = Recorder()
    q = make_query(1, {"kind": "undelivered", "window_ms": 100})
    q.on_event(_event(time=10.0, in_matching=False), 10.0, fire)
    assert q.state_size() == 0


def test_pattern_counts_within_window_and_rearms():
    fire = Recorder()
    q = make_query(2, {"kind": "pattern", "rule": "event=send,msgLength>=100",
                       "count": 2, "window_ms": 100})
    q.on_event(_event(time=10.0, length=128), 10.0, fire)
    q.on_event(_event(time=20.0, length=64), 20.0, fire)  # rule rejects
    assert fire.firings == []
    q.on_event(_event(time=30.0, length=256), 30.0, fire)
    assert len(fire.firings) == 1
    assert fire.firings[0][1] == {"rule": "event=send,msgLength>=100",
                                  "count": 2}
    # Edge triggered: a third match while the condition holds stays quiet.
    q.on_event(_event(time=40.0, length=300), 40.0, fire)
    assert len(fire.firings) == 1
    # Window drains, query re-arms, a new burst fires again.
    q.advance(500.0, fire)
    q.on_event(_event(time=600.0, length=128), 600.0, fire)
    q.on_event(_event(time=610.0, length=128), 610.0, fire)
    assert len(fire.firings) == 2


def test_quiet_fires_once_and_termproc_disarms():
    fire = Recorder()
    q = make_query(3, {"kind": "quiet", "window_ms": 100})
    q.on_event(_event(machine=1, pid=10, time=10.0), 10.0, fire)
    q.on_event(_event(machine=2, pid=20, time=15.0), 15.0, fire)
    q.on_event(_event(event="termproc", machine=2, pid=20, time=16.0),
               16.0, fire)
    q.advance(300.0, fire)
    # Only the live-but-silent process fires; the terminated one does not.
    assert [d["process"] for __, d in fire.firings] == ["1:10"]
    q.advance(400.0, fire)  # edge triggered: no repeat
    assert len(fire.firings) == 1
    # New activity re-arms it.
    q.on_event(_event(machine=1, pid=10, time=500.0), 500.0, fire)
    q.advance(900.0, fire)
    assert len(fire.firings) == 2


def test_rate_threshold_per_machine_with_event_filter():
    fire = Recorder()
    q = make_query(4, {"kind": "rate", "threshold": 3, "event": "send",
                       "window_ms": 100})
    for i in range(3):
        q.on_event(_event(machine=1, time=10.0 + i), 12.0 + i, fire)
        q.on_event(_event(event="receive", machine=2, time=10.0 + i),
                   12.0 + i, fire)
    assert len(fire.firings) == 1
    assert fire.firings[0][1] == {"machine": 1, "count": 3, "event": "send"}
    # Filtered-out events never count toward the threshold.
    assert all(d["machine"] == 1 for __, d in fire.firings)
    # After the window drains the same machine can fire again.
    q.advance(500.0, fire)
    for i in range(3):
        q.on_event(_event(machine=1, time=600.0 + i), 600.0 + i, fire)
    assert len(fire.firings) == 2


def test_query_kinds_constant_matches_factories():
    for kind in QUERY_KINDS:
        q = make_query(1, {"kind": kind})
        assert q.kind == kind
        assert q.describe()["kind"] == kind


def test_live_stats_orders_machines_like_the_trace_does():
    """A record without ``machine`` (a template that discards it) in
    the window beside one with it: sorting the window's machines raised
    ``TypeError``, and the ``stats`` reply was ``status: error``."""
    records = [
        {"event": "send", "machine": 10, "pid": 1, "cpuTime": 5},
        {"event": "send", "pid": 1, "cpuTime": 6},
        {"event": "send", "machine": 2, "pid": 1, "cpuTime": 7},
    ]
    engine = StreamEngine()
    for record in records:
        engine.update(record)
    reply = serve_query(engine, {"op": "stats"})
    assert reply["status"] == "ok"
    per_machine = reply["result"]["window"]["per_machine"]
    assert list(per_machine) == ["2", "10", "None"] == [
        str(machine) for machine in Trace(records).machines()
    ]
    assert sum(per_machine.values()) == 3
