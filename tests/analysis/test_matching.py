"""Send/receive matching: connection discovery, stream byte-ranges,
datagram FIFO (Section 4.1's recipient recovery)."""

from repro.analysis.matching import MessageMatcher
from tests.analysis.harness import TraceBuilder, two_process_stream_trace


def test_connection_discovered_from_connect_accept_names():
    trace = two_process_stream_trace()
    matcher = MessageMatcher(trace)
    assert len(matcher.connections) == 1
    conn = matcher.connections[0]
    assert conn.initiator == (1, 400)
    assert conn.acceptor == (2, 510)


def test_stream_sends_match_receives_both_directions():
    trace = two_process_stream_trace()
    matcher = MessageMatcher(trace)
    pairs = {(p.send.process, p.recv.process, p.nbytes) for p in matcher.pairs}
    assert ((1, 10), (2, 20), 100) in pairs
    assert ((2, 20), (1, 10), 50) in pairs
    assert matcher.matched_fraction() == 1.0


def test_stream_matching_handles_coalesced_reads():
    """Two 100-byte sends read as one 200-byte receive: both sends
    pair with that receive."""
    b = TraceBuilder()
    cn, sn = "inet:red:1024", "inet:green:5000"
    b.connect(1, 10, 100, sock=400, sock_name=cn, peer_name=sn)
    b.accept(2, 20, 101, sock=500, new_sock=510, sock_name=sn, peer_name=cn)
    b.send(1, 10, 102, sock=400, nbytes=100)
    b.send(1, 10, 103, sock=400, nbytes=100)
    b.receive(2, 20, 110, sock=510, nbytes=200, source=cn)
    matcher = MessageMatcher(b.build())
    recv_pairs = [p for p in matcher.pairs]
    assert len(recv_pairs) == 2
    assert sum(p.nbytes for p in recv_pairs) == 200


def test_stream_matching_handles_split_reads():
    """One 200-byte send read as two 100-byte receives."""
    b = TraceBuilder()
    cn, sn = "inet:red:1024", "inet:green:5000"
    b.connect(1, 10, 100, sock=400, sock_name=cn, peer_name=sn)
    b.accept(2, 20, 101, sock=500, new_sock=510, sock_name=sn, peer_name=cn)
    b.send(1, 10, 102, sock=400, nbytes=200)
    b.receive(2, 20, 110, sock=510, nbytes=100, source=cn)
    b.receive(2, 20, 111, sock=510, nbytes=100, source=cn)
    matcher = MessageMatcher(b.build())
    assert len(matcher.pairs) == 2
    sends = {p.send.index for p in matcher.pairs}
    assert len(sends) == 1


def test_unreceived_send_reported_unmatched():
    b = TraceBuilder()
    cn, sn = "inet:red:1024", "inet:green:5000"
    b.connect(1, 10, 100, sock=400, sock_name=cn, peer_name=sn)
    b.accept(2, 20, 101, sock=500, new_sock=510, sock_name=sn, peer_name=cn)
    b.send(1, 10, 102, sock=400, nbytes=100)
    b.receive(2, 20, 105, sock=510, nbytes=100, source=cn)
    b.send(1, 10, 106, sock=400, nbytes=64)  # never read
    matcher = MessageMatcher(b.build())
    assert len(matcher.pairs) == 1
    assert [e.index for e in matcher.unmatched_sends] == [4]
    assert matcher.matched_fraction() == 0.5


def test_datagram_fifo_matching_with_host_mapping():
    b = TraceBuilder()
    # A connect event on machine 1 teaches the matcher that literal
    # host "red" is machine id 1 (sockName is the local bound name).
    b.connect(1, 10, 90, sock=300, sock_name="inet:red:1024", peer_name="inet:green:9")
    b.send(1, 10, 100, sock=301, nbytes=64, dest="inet:green:6000")
    b.send(1, 10, 101, sock=301, nbytes=32, dest="inet:green:6000")
    b.receive(2, 20, 105, sock=600, nbytes=64, source="inet:red:1025")
    b.receive(2, 20, 106, sock=600, nbytes=32, source="inet:red:1025")
    matcher = MessageMatcher(b.build())
    dgram_pairs = [
        p for p in matcher.pairs if p.send.name("destName") is not None
    ]
    assert len(dgram_pairs) == 2
    assert dgram_pairs[0].send.index < dgram_pairs[1].send.index  # FIFO


def test_datagram_length_mismatch_not_matched():
    b = TraceBuilder()
    b.send(1, 10, 100, sock=301, nbytes=64, dest="inet:green:6000")
    b.receive(2, 20, 105, sock=600, nbytes=100, source="inet:red:1025")
    matcher = MessageMatcher(b.build())
    assert matcher.pairs == []
    assert len(matcher.unmatched_sends) == 1
    assert len(matcher.unmatched_recvs) == 1


def test_lost_datagram_stays_unmatched():
    b = TraceBuilder()
    b.send(1, 10, 100, sock=301, nbytes=64, dest="inet:green:6000")
    b.send(1, 10, 101, sock=301, nbytes=64, dest="inet:green:6000")
    b.receive(2, 20, 110, sock=600, nbytes=64, source="inet:red:1025")
    matcher = MessageMatcher(b.build())
    assert len(matcher.pairs) == 1
    assert len(matcher.unmatched_sends) == 1


def test_one_sided_trace_still_groups_server_traffic():
    """Only the server was metered (acquire case): its connection end
    is still recorded."""
    b = TraceBuilder()
    sn, cn = "inet:green:5000", "inet:red:1024"
    b.accept(2, 20, 101, sock=500, new_sock=510, sock_name=sn, peer_name=cn)
    b.receive(2, 20, 105, sock=510, nbytes=10, source=cn)
    matcher = MessageMatcher(b.build())
    assert len(matcher.connections) == 1
    assert matcher.connections[0].initiator is None


def test_one_sided_stream_traffic_never_pairs_with_itself():
    """Server-only trace: the unmetered client's events were never
    recorded, so the server's stream traffic has no counterpart.  It
    must not pair with itself; half-connection traffic is *unknowable*
    rather than *lost*, so it also stays out of the unmatched lists
    (which report losses within fully-known connections) -- but every
    send still counts against matched_fraction."""
    b = TraceBuilder()
    sn, cn = "inet:green:5000", "inet:red:1024"
    b.accept(2, 20, 101, sock=500, new_sock=510, sock_name=sn, peer_name=cn)
    b.receive(2, 20, 105, sock=510, nbytes=10, source=cn)
    b.send(2, 20, 106, sock=510, nbytes=6)
    matcher = MessageMatcher(b.build())
    assert matcher.pairs == []
    assert matcher.unmatched_sends == []
    assert matcher.unmatched_recvs == []
    assert matcher.matched_fraction() == 0.0


def test_client_only_trace_has_no_connection_and_unmatched_receives():
    """Client-only trace: a connect with no matching accept discovers
    no connection at all, so the receive falls through to the datagram
    pool and is reported unmatched."""
    b = TraceBuilder()
    cn, sn = "inet:red:1024", "inet:green:5000"
    b.connect(1, 10, 100, sock=400, sock_name=cn, peer_name=sn)
    b.send(1, 10, 102, sock=400, nbytes=100)
    b.receive(1, 10, 109, sock=400, nbytes=50, source=sn)
    matcher = MessageMatcher(b.build())
    assert matcher.connections == []
    assert matcher.pairs == []
    assert [e.index for e in matcher.unmatched_recvs] == [2]
    assert matcher.matched_fraction() == 0.0


def test_repeated_connections_with_same_names_pair_fifo():
    """Two successive connections reusing the same (name, peer) pair
    (a client reconnect from the same port) pair up first-to-first."""
    b = TraceBuilder()
    cn, sn = "inet:red:1024", "inet:green:5000"
    b.connect(1, 10, 100, sock=400, sock_name=cn, peer_name=sn)
    b.connect(1, 10, 110, sock=401, sock_name=cn, peer_name=sn)
    b.accept(2, 20, 101, sock=500, new_sock=510, sock_name=sn, peer_name=cn)
    b.accept(2, 20, 111, sock=500, new_sock=511, sock_name=sn, peer_name=cn)
    matcher = MessageMatcher(b.build())
    assert [c.initiator for c in matcher.connections] == [(1, 400), (1, 401)]
    assert [c.acceptor for c in matcher.connections] == [(2, 510), (2, 511)]


def test_datagram_with_unknown_dest_host_still_matches_fifo():
    """A datagram whose destination host never appears in any socket
    name cannot be narrowed to a machine; it still pairs with the
    earliest same-length receive anywhere."""
    b = TraceBuilder()
    b.send(1, 10, 100, sock=301, nbytes=64, dest="inet:unknown:6000")
    b.receive(2, 20, 105, sock=600, nbytes=64)
    matcher = MessageMatcher(b.build())
    assert len(matcher.pairs) == 1
    assert matcher.pairs[0].recv.index == 1


def test_connections_follow_accept_order_whichever_side_is_logged_first():
    """One entry per accept, in accept order: a one-sided accept, then
    a connection whose accept reached the log before its connect."""
    b = TraceBuilder()
    sn = "inet:green:5000"
    b.accept(2, 20, 100, sock=500, new_sock=510, sock_name=sn,
             peer_name="inet:grey:77")  # the client was never metered
    b.accept(2, 20, 101, sock=500, new_sock=511, sock_name=sn,
             peer_name="inet:red:1024")
    b.connect(1, 10, 102, sock=400, sock_name="inet:red:1024", peer_name=sn)
    matcher = MessageMatcher(b.build())
    assert [c.acceptor for c in matcher.connections] == [(2, 510), (2, 511)]
    assert [c.initiator for c in matcher.connections] == [None, (1, 400)]
    assert [c.initiator_name for c in matcher.connections] == [
        "inet:grey:77", "inet:red:1024"
    ]
    assert {c.acceptor_name for c in matcher.connections} == {sn}


def _datagram_before_its_hosts_accept():
    """A datagram for "green" is logged before the accept that says
    which machine green is; an unrelated same-length receive on a
    third machine (its send was never logged) was committed first."""
    b = TraceBuilder()
    b.receive(3, 30, 90, sock=600, nbytes=64, source="inet:red:1025")
    b.receive(2, 20, 95, sock=600, nbytes=64, source="inet:red:1025")
    b.send(1, 10, 100, sock=301, nbytes=64, dest="inet:green:6000")
    b.accept(2, 20, 110, sock=500, new_sock=510, sock_name="inet:green:5000",
             peer_name="inet:grey:77")
    return b


def test_post_mortem_matcher_routes_by_hosts_learned_later_in_the_log():
    from repro.analysis.reference import ReferenceAnalysis, reference_digest
    from repro.streaming.engine import StreamEngine
    from repro.streaming.twins import batch_digest

    b = _datagram_before_its_hosts_accept()
    trace = b.build()
    matcher = MessageMatcher(trace)
    # The finished log knows green is machine 2: the send pairs with
    # the receive there, and the stray on machine 3 stays unmatched.
    assert [(p.send.index, p.recv.index) for p in matcher.pairs] == [(2, 1)]
    assert [e.index for e in matcher.unmatched_recvs] == [0]
    reference = ReferenceAnalysis(trace)
    assert [(p.send.index, p.recv.index) for p in reference.pairs] == [(2, 1)]
    assert [e.index for e in reference.unmatched_recvs] == [0]
    assert batch_digest(trace) == reference_digest(trace)
    # A live stream had not seen the accept when the send arrived: it
    # keeps the documented arrival-order answer (earliest same-length
    # receive anywhere).
    pairs = []
    engine = StreamEngine()
    engine.fold.on_pair = lambda send, recv, nbytes: pairs.append(
        (send.index, recv.index)
    )
    for record in b.records:
        engine.update(record)
    assert pairs == [(2, 0)]
