"""Happens-before answers and clock digests on dense tuple clocks."""

from collections import deque

from repro.analysis.reference import reference_digest
from repro.analysis.trace import Trace
from repro.streaming.clocks import true_clock
from repro.streaming.engine import StreamEngine, clock_digest_add, serve_query
from repro.streaming.fold import CausalFold
from repro.streaming.twins import (
    batch_clock_digest,
    batch_digest,
    batch_pairs_digest,
    diff_digests,
    replay_engine,
)


def _record(event, machine, pid, time, **body):
    record = {"event": event, "machine": machine, "pid": pid,
              "cpuTime": time, "procTime": 0}
    record.update(body)
    return record


def _datagram_log():
    """m1/p10 sends a datagram m2/p20 receives; m3/p30 shows up last
    and talks to nobody."""
    return [
        _record("socket", 1, 10, 0, sock=7),
        _record("send", 1, 10, 10, sock=7, msgLength=64,
                destName="inet:green:6000"),
        _record("receive", 2, 20, 20, sock=7, msgLength=64,
                sourceName="inet:red:6000"),
        _record("socket", 3, 30, 30, sock=7),
        _record("send", 1, 10, 40, sock=7, msgLength=32,
                destName="inet:green:6000"),
    ]


def test_happens_before_on_dense_clocks():
    engine = replay_engine(_datagram_log())
    send, recv, late = (1, 10, 1), (2, 20, 0), (3, 30, 0)
    assert engine.fold.clocks.clock_of(*send) == (2,)
    assert engine.fold.clocks.clock_of(*recv) == (2, 1)  # no trailing zero
    assert engine.fold.clocks.clock_of(*late) == (0, 0, 1)
    assert engine.happens_before(send, recv) is True
    assert engine.happens_before(recv, send) is False
    assert engine.happens_before(recv, recv) is False  # self
    # The receive's clock is shorter than the late process's component:
    # it has seen nothing of that process.
    assert engine.happens_before(late, recv) is False
    assert engine.happens_before((9, 99, 0), recv) is False  # never seen
    assert engine.happens_before(send, (2, 20, 5)) is None  # unresolved
    # Program order shares the predecessor's clock, then writes its own
    # component: the first send's clock is untouched by the second.
    assert engine.fold.clocks.clock_of(1, 10, 2) == (3,)
    assert engine.fold.clocks.clock_of(*send) == (2,)


def test_happens_before_reports_evicted_clocks_as_unknown():
    engine = StreamEngine(clock_history=2)
    for record in _datagram_log():
        engine.update(record)
    assert engine.happens_before((1, 10, 1), (2, 20, 0)) is None
    assert engine.happens_before((3, 30, 0), (1, 10, 2)) is False


def test_hb_query_op_round_trips_json_triples():
    engine = replay_engine(_datagram_log())

    def ask(a, b):
        reply = serve_query(engine, {"op": "hb", "a": a, "b": b})
        assert reply["status"] == "ok"
        return reply["happens_before"]

    assert ask([1, 10, 1], [2, 20, 0]) is True
    assert ask([3, 30, 0], [2, 20, 0]) is False
    assert ask([2, 20, 0], [2, 20, 0]) is False
    assert ask([1, 10, 1], [2, 20, 7]) is None


def test_clock_digest_ignores_trailing_zero_components():
    dense = clock_digest_add(0, 2, 20, 0, (2, 1))
    assert dense == clock_digest_add(0, 2, 20, 0, (2, 1, 0, 0, 0))
    assert dense != clock_digest_add(0, 2, 20, 0, (2, 1, 0, 1))
    assert dense != clock_digest_add(0, 2, 20, 0, (2, 0, 1))
    assert dense != clock_digest_add(0, 2, 20, 1, (2, 1))
    # commutative: emission order cannot matter
    other = (1, 10, 1, (2,))
    assert clock_digest_add(dense, *other) == clock_digest_add(
        clock_digest_add(0, *other), 2, 20, 0, (2, 1)
    )


def test_records_without_machine_or_pid_fold_like_the_batch_twin():
    """A garbage or salvaged record has no integer identity to pack;
    both sides must fall back the same way instead of raising."""
    records = _datagram_log()
    records.insert(2, {"event": "send", "cpuTime": 15, "msgLength": 8})
    records.append({"event": "termproc", "machine": "red", "pid": None,
                    "cpuTime": 50})
    online = replay_engine(records).finalize().digest()
    assert online["clocks_resolved"] == len(records)
    assert "None:None" in online["per_process"]
    trace = Trace(records)
    assert online["clock_digest"] == batch_clock_digest(trace)
    assert online["pairs_digest"] == batch_pairs_digest(trace)
    assert diff_digests(online, batch_digest(trace)) == []
    assert diff_digests(online, reference_digest(trace)) == []


def test_replay_equals_batch_on_the_datagram_log():
    records = _datagram_log()
    online = replay_engine(records).finalize().digest()
    assert diff_digests(online, batch_digest(Trace(records))) == []


def test_non_positive_history_keeps_no_clocks():
    """The post-mortem view collects clocks through ``on_resolve`` and
    wants no window: nothing may even pass through the history."""
    inserts = []

    class Watched(deque):
        def append(self, entry):
            inserts.append(entry)
            deque.append(self, entry)

    engine = StreamEngine(clock_history=0)
    engine.fold.clocks._history = Watched()
    for record in _datagram_log():
        engine.update(record)
    assert engine.finalize().digest()["clocks_resolved"] == 5
    assert inserts == []
    assert engine.fold.clocks.clock_of(1, 10, 1) is None
    assert engine.happens_before((1, 10, 1), (2, 20, 0)) is None


def _counted_fold():
    """A fold whose clock queue and unresolved map record every event
    put in them (counted, never timed)."""
    queued, readied = [], []

    class Unresolved(dict):
        def __setitem__(self, index, event):
            queued.append(index)
            dict.__setitem__(self, index, event)

    class Ready(deque):
        def append(self, event):
            readied.append(event.index)
            deque.append(self, event)

    fold = CausalFold(on_pair=lambda *pair: None, on_clock=lambda *ev: None)
    fold.clocks._unresolved = Unresolved()
    fold.clocks.ready = Ready()
    return fold, queued, readied


def test_an_event_behind_a_resolved_predecessor_resolves_inside_feed():
    fold, queued, readied = _counted_fold()
    kinds = ("socket", "fork", "send", "dup")
    for index in range(200):
        proc = 1 + index % 3
        event = fold.update(_record(
            kinds[index % 4], proc, 10 * proc, index, sock=7, msgLength=8,
            destName="inet:blue:6000"))
        assert event.clock is not None
    assert queued == readied == []
    assert fold.clocks.resolved == 200


def test_only_receives_and_what_waits_behind_them_are_queued():
    fold, queued, readied = _counted_fold()
    fold.update(_record("socket", 1, 10, 0, sock=7))
    # The receive is committed before its send: it waits for the
    # matcher, and its process's next events wait for it.
    recv = fold.update(_record("receive", 2, 20, 1, sock=7, msgLength=64,
                               sourceName="inet:red:6000"))
    behind = [fold.update(_record("fork", 2, 20, 2 + i)) for i in range(3)]
    other = fold.update(_record("fork", 3, 30, 5))
    assert true_clock(recv) is None
    assert [true_clock(e) for e in behind] == [None] * 3
    assert true_clock(other) is not None
    send = fold.update(_record("send", 1, 10, 6, sock=7, msgLength=64,
                               destName="inet:green:6000"))
    assert true_clock(send) == (2,) and true_clock(recv) == (2, 1)
    assert true_clock(behind[-1]) == (2, 4)
    expect = [recv.index] + [event.index for event in behind]
    assert queued == readied == expect
    assert fold.clocks.state_size() == 0
