"""Controller/daemon wire protocol (Figure 3.6)."""

from repro import guestlib
from repro.core.cluster import Cluster
from repro.daemon import protocol
from repro.kernel import defs, errno


def test_create_request_and_reply_keep_figure_3_6_numbers():
    assert protocol.CREATE_REQ == 11
    assert protocol.CREATE_REPLY == 18


def test_every_request_has_a_distinct_reply():
    replies = list(protocol.REPLY_FOR.values())
    assert len(set(replies)) == len(replies)
    for req, reply in protocol.REPLY_FOR.items():
        assert req != reply


def test_encode_decode_round_trip():
    payload = protocol.encode(
        protocol.CREATE_REQ,
        filename="A",
        params=["x", "y"],
        filter_host="blue",
        filter_port=1234,
        meter_flags=7,
        control_host="yellow",
        control_port=4321,
    )
    msg_type, body = protocol.decode(payload)
    assert msg_type == protocol.CREATE_REQ
    assert body["filename"] == "A"
    assert body["params"] == ["x", "y"]
    assert body["filter_port"] == 1234


def test_error_reply():
    msg_type, body = protocol.decode(protocol.error_reply("ENOENT: A"))
    assert msg_type == protocol.ERROR_REPLY
    assert not protocol.is_ok(body)
    assert "ENOENT" in body["status"]


def test_is_ok():
    __, body = protocol.decode(protocol.encode(protocol.CREATE_REPLY, status="ok"))
    assert protocol.is_ok(body)


def test_notifications_are_not_replies():
    assert protocol.TERMINATION_NOTIFY not in protocol.REPLY_FOR.values()
    assert protocol.OUTPUT_NOTIFY not in protocol.REPLY_FOR.values()


def _exchange_from_yellow(cluster, address, **kwargs):
    """Run one ``protocol.exchange`` in a bare guest on yellow; returns
    its result and how many descriptors the guest gained."""
    result = {}

    def client(sys, argv):
        result["reply"] = yield from protocol.exchange(
            sys, address, protocol.encode(protocol.PING_REQ), 500.0, **kwargs
        )
        yield sys.sleep(10_000)  # stay alive so the fd table can be read

    proc = cluster.spawn("yellow", client, uid=100, program_name="exchanger")
    before = len(proc.fds)
    cluster.run_until(lambda: "reply" in result)
    return result["reply"], len(proc.fds) - before


def _silent_server(cluster, received):
    """A guest on red that accepts, reads one frame and hangs up."""
    holder = {}

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 0))
        yield sys.listen(fd, 8)
        holder["port"] = (yield sys.getsockname(fd)).port
        while True:
            conn, __ = yield sys.accept(fd)
            received.append((yield from guestlib.recv_frame(sys, conn)))
            yield sys.close(conn)

    cluster.spawn("red", server, uid=100, program_name="silent")
    cluster.run_until(lambda: "port" in holder)
    return ("red", holder["port"])


def test_exchange_without_reply_returns_once_the_frame_is_delivered():
    cluster = Cluster(seed=5)
    received = []
    address = _silent_server(cluster, received)
    reply, leaked = _exchange_from_yellow(cluster, address, reply=False)
    assert reply == (None, None)
    assert leaked == 0
    cluster.run_until(lambda: received)
    assert protocol.decode(received[0])[0] == protocol.PING_REQ


def test_exchange_with_a_peer_that_hangs_up_returns_no_payload_and_no_error():
    cluster = Cluster(seed=5)
    received = []
    address = _silent_server(cluster, received)
    reply, leaked = _exchange_from_yellow(cluster, address)
    assert reply == (None, None)
    assert leaked == 0
    assert len(received) == 1


def test_exchange_refused_connect_returns_the_error_and_closes_the_socket():
    cluster = Cluster(seed=5)
    (payload, err), leaked = _exchange_from_yellow(cluster, ("red", 4999))
    assert payload is None
    assert err.errno == errno.ECONNREFUSED
    assert leaked == 0
