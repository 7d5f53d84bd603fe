"""Happens-before deduction and clock-skew estimation (Section 4.1)."""

import pytest

from repro.analysis.matching import MessageMatcher
from repro.analysis.ordering import HappensBefore, estimate_clock_skews
from tests.analysis.harness import TraceBuilder, two_process_stream_trace


def test_program_order_within_a_process():
    trace = two_process_stream_trace()
    hb = HappensBefore(trace)
    client = trace.events_for((1, 10))
    assert hb.happens_before(client[0], client[1])
    assert hb.happens_before(client[0], client[2])
    assert not hb.happens_before(client[1], client[0])


def test_send_happens_before_matched_receive():
    trace = two_process_stream_trace()
    hb = HappensBefore(trace)
    send = trace.by_type("send")[0]
    recv = trace.by_type("receive")[0]
    assert hb.happens_before(send, recv)


def test_transitivity_across_machines():
    """client connect -> ... -> client's final receive passes through
    the server."""
    trace = two_process_stream_trace()
    hb = HappensBefore(trace)
    connect = trace.by_type("connect")[0]
    final_recv = trace.events_for((1, 10))[-1]
    server_send = trace.by_type("send")[1]
    assert hb.happens_before(connect, server_send)
    assert hb.happens_before(server_send, final_recv)


def test_concurrent_events_detected():
    b = TraceBuilder()
    b.send(1, 10, 100, sock=1, nbytes=5, dest="inet:x:1")
    b.send(2, 20, 100, sock=1, nbytes=7, dest="inet:y:1")
    trace = b.build()
    hb = HappensBefore(trace)
    a, c = trace.events[0], trace.events[1]
    assert hb.concurrent(a, c)
    assert not hb.concurrent(a, a)


def test_ordered_fraction_high_for_pingpong():
    """All cross-machine pairs are deducible except connect-vs-accept
    (the two completions race the handshake and are truly concurrent):
    7 of 9 pairs ordered."""
    trace = two_process_stream_trace()
    hb = HappensBefore(trace)
    assert hb.ordered_fraction() == pytest.approx(7 / 9)


def test_ordered_fraction_zero_without_communication():
    b = TraceBuilder()
    b.send(1, 10, 100, sock=1, nbytes=5, dest="inet:x:1")
    b.send(2, 20, 100, sock=2, nbytes=7, dest="inet:y:1")
    hb = HappensBefore(b.build())
    assert hb.ordered_fraction() == 0.0


def test_graph_is_acyclic():
    import networkx as nx

    trace = two_process_stream_trace()
    hb = HappensBefore(trace)
    assert nx.is_directed_acyclic_graph(hb.graph)


def test_consistent_global_order_respects_happens_before():
    trace = two_process_stream_trace()
    hb = HappensBefore(trace)
    order = hb.consistent_global_order()
    position = {event.index: i for i, event in enumerate(order)}
    for pair in hb.matcher.pairs:
        assert position[pair.send.index] < position[pair.recv.index]
    for process in trace.processes():
        events = trace.events_for(process)
        for earlier, later in zip(events, events[1:]):
            assert position[earlier.index] < position[later.index]


def _skewed_pingpong(offset_b=1000, rtt=4, rounds=4):
    """Messages bounce between machine 1 (true clock) and machine 2
    (clock ahead by offset_b); one-way delay rtt/2."""
    b = TraceBuilder()
    cn, sn = "inet:red:1024", "inet:green:5000"
    b.connect(1, 10, 0, sock=400, sock_name=cn, peer_name=sn)
    b.accept(2, 20, offset_b + 1, sock=500, new_sock=510, sock_name=sn, peer_name=cn)
    t = 2
    for __ in range(rounds):
        b.send(1, 10, t, sock=400, nbytes=8)
        b.receive(2, 20, t + rtt // 2 + offset_b, sock=510, nbytes=8, source=cn)
        b.send(2, 20, t + rtt // 2 + offset_b, sock=510, nbytes=8)
        b.receive(1, 10, t + rtt, sock=400, nbytes=8, source=sn)
        t += rtt
    return b.build()


def test_causality_violations_detected_under_skew():
    trace = _skewed_pingpong(offset_b=-1000)  # B's clock behind
    hb = HappensBefore(trace)
    violations = hb.violates_causality()
    # Every A->B message appears received "before" it was sent.
    assert len(violations) >= 4


def test_no_causality_violations_with_true_clocks():
    trace = _skewed_pingpong(offset_b=0)
    hb = HappensBefore(trace)
    assert hb.violates_causality() == []


def test_skew_estimation_recovers_relative_offset():
    offset = 1000
    trace = _skewed_pingpong(offset_b=offset)
    skews = estimate_clock_skews(trace)
    assert skews[1] == 0.0  # reference machine
    assert skews[2] == pytest.approx(offset, abs=5)


def test_skew_estimation_with_no_bidirectional_traffic():
    b = TraceBuilder()
    b.send(1, 10, 100, sock=1, nbytes=5, dest="inet:x:1")
    skews = estimate_clock_skews(b.build())
    assert skews == {1: 0.0}


def test_skew_corrected_order_interleaves_properly():
    trace = _skewed_pingpong(offset_b=5000)
    hb = HappensBefore(trace)
    order = hb.consistent_global_order()
    events = [e.event for e in order]
    # Sends and receives alternate rather than clustering by machine.
    first_half = events[: len(events) // 2]
    assert "send" in first_half and "receive" in first_half


def test_vector_clocks_are_padded_to_every_process_in_the_trace():
    """The fold's clocks stop at their last nonzero component; the view
    pads them to ``len(trace.processes())``, and an event whose dense
    clock is shorter than another process's component index has simply
    seen nothing of that process."""
    b = TraceBuilder()
    b.send(1, 10, 10, sock=7, nbytes=64, dest="inet:green:6000")
    b.receive(2, 20, 20, sock=7, nbytes=64, source="inet:red:6000")
    b.send(3, 30, 30, sock=7, nbytes=5, dest="inet:nowhere:1")
    b.send(1, 10, 40, sock=7, nbytes=32, dest="inet:green:6000")
    trace = b.build()
    hb = HappensBefore(trace)
    send, recv, late, again = trace.events
    assert hb.matcher.clocks[recv.index] == (1, 1)  # dense: two wide
    assert [hb.vector_clock(e) for e in trace] == [
        (1, 0, 0), (1, 1, 0), (0, 0, 1), (2, 0, 0)
    ]
    assert hb.happens_before(send, recv)
    assert not hb.happens_before(late, recv)  # component 2 >= len (1, 1)
    assert not hb.happens_before(late, again)
    assert not hb.happens_before(recv, late)
    assert hb.concurrent(late, recv)
    assert hb.ordered_fraction() == pytest.approx(1 / 5)
