"""The pending-send index does work proportional to what a receive
could match, not to everything outstanding (counted, never timed)."""

from repro.streaming import matching
from repro.streaming.engine import StreamEngine
from repro.streaming.fold import Event
from repro.streaming.matching import OnlineMatcher


def _send(length, dest="inet:red:6000"):
    return {"event": "send", "machine": 1, "pid": 10, "sock": 7,
            "msgLength": length, "destName": dest}


def _recv(length, source="inet:green:6000"):
    return {"event": "receive", "machine": 2, "pid": 20, "sock": 7,
            "msgLength": length, "sourceName": source}


def _counting(monkeypatch):
    """Count every claim attempt: a send looking for a receive, and a
    candidate pair being checked."""
    calls = {"try_claim": 0, "compatible": 0}
    try_claim = OnlineMatcher._try_claim
    compatible = matching._compatible

    def counted_try_claim(self, send):
        calls["try_claim"] += 1
        return try_claim(self, send)

    def counted_compatible(send, recv, host_ids):
        calls["compatible"] += 1
        return compatible(send, recv, host_ids)

    monkeypatch.setattr(OnlineMatcher, "_try_claim", counted_try_claim)
    monkeypatch.setattr(matching, "_compatible", counted_compatible)
    return calls


def _matcher():
    pairs = []
    matcher = OnlineMatcher(
        on_pair=lambda send, recv, nbytes: pairs.append(
            (send.index, recv.index)
        ),
        on_recv_done=lambda recv: None,
    )
    return matcher, pairs


def test_receives_of_another_length_do_not_retry_outstanding_sends(
    monkeypatch,
):
    calls = _counting(monkeypatch)
    matcher, pairs = _matcher()
    n_sends, n_recvs = 300, 200
    records = [_send(64)] * n_sends + [_recv(128)] * n_recvs
    for index, record in enumerate(records):
        matcher.update(Event(record, index))
    # One attempt per send on arrival, none per receive: the old
    # rotate-everything drain made n_sends * n_recvs more.
    assert calls["try_claim"] + calls["compatible"] <= n_sends + n_recvs
    assert pairs == []
    assert matcher.outstanding_sends == n_sends
    assert matcher.state_size() == n_sends + n_recvs
    assert [send.index for send in matcher.pending_send_events()] == list(
        range(n_sends)
    )
    matcher.finalize()  # the one full pass: once per pending send
    assert calls["try_claim"] == 2 * n_sends
    assert matcher.outstanding_sends == n_sends
    assert matcher.unmatched_recvs == n_recvs


def test_a_receive_goes_to_the_earliest_pending_send_of_its_length(
    monkeypatch,
):
    calls = _counting(monkeypatch)
    matcher, pairs = _matcher()
    records = (
        [_send(64)] * 50 + [_send(128)] * 3 + [_recv(128)] * 2 + [_recv(64)]
    )
    for index, record in enumerate(records):
        matcher.update(Event(record, index))
    assert pairs == [(50, 53), (51, 54), (0, 55)]
    assert calls["compatible"] == 3  # each receive: first candidate fits
    assert matcher.outstanding_sends == 50
    assert matcher.state_size() == 50


def test_snapshot_reports_the_outstanding_send_counter():
    engine = StreamEngine()
    for record in [_send(64)] * 5 + [_recv(64)] * 2:
        engine.update(record)
    assert engine.snapshot()["state"]["outstanding_sends"] == 3
    assert engine.snapshot()["totals"]["matched_pairs"] == 2
