"""Stream socket semantics (Section 3.1): connection establishment,
reliable ordered byte streams, flow control, teardown."""

import pytest

from repro.kernel import defs
from repro.kernel.errno import SyscallError
from repro.net.addresses import InternetName, PairName, UnixName
from tests.conftest import run_guests, simple_stream_server


def _client(server_host, port, payloads, received, reads=None):
    def main(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, (server_host, port)
        )
        for payload in payloads:
            yield sys.write(fd, payload)
        expected = sum(len(p) for p in payloads)
        got = b""
        while len(got) < expected:
            data = yield sys.read(fd, reads or 4096)
            if not data:
                break
            got += data
        received.append(got)
        yield sys.close(fd)
        yield sys.exit(0)

    return main


def test_connect_accept_transfer_roundtrip(cluster):
    received = []
    run_guests(
        cluster,
        ("red", simple_stream_server(5000), ()),
        ("green", _client("red", 5000, [b"hello world"], received), ()),
    )
    assert received == [b"hello world"]


def test_stream_is_a_byte_stream_without_message_boundaries(cluster):
    """Messages coalesce: many small writes can satisfy one big read."""
    received = []
    payloads = [b"aa", b"bb", b"cc", b"dd"]
    run_guests(
        cluster,
        ("red", simple_stream_server(5000), ()),
        ("green", _client("red", 5000, payloads, received), ()),
    )
    assert received == [b"aabbccdd"]


def test_stream_preserves_order_and_content_for_large_transfer(cluster):
    """Bigger than the 4096-byte socket buffer: exercises flow control.
    Uses shutdown(2) half-close so the sink knows when the upload ends
    (a full echo of 16 KiB through two 4 KiB buffers would deadlock on
    a real BSD too)."""
    payload = bytes(range(256)) * 64  # 16 KiB
    uploaded = []
    reply = []

    def sink(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 5)
        conn, __ = yield sys.accept(fd)
        got = b""
        while True:
            data = yield sys.read(conn, 4096)
            if not data:
                break
            got += data
        uploaded.append(got)
        yield sys.write(conn, b"got %d" % len(got))
        yield sys.close(conn)
        yield sys.exit(0)

    def uploader(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("red", 5000)
        )
        yield sys.write(fd, payload)
        yield sys.shutdown(fd, "w")
        reply.append((yield sys.read(fd, 100)))
        yield sys.close(fd)
        yield sys.exit(0)

    run_guests(
        cluster,
        ("red", sink, ()),
        ("green", uploader, ()),
        max_events=3_000_000,
    )
    assert uploaded == [payload]
    assert reply == [b"got %d" % len(payload)]


def test_connect_to_unbound_port_refused(cluster):
    errors = []

    def client(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield sys.connect(fd, ("red", 9999))
        except SyscallError as err:
            errors.append(err.errno)
        yield sys.exit(0)

    run_guests(cluster, ("green", client, ()))
    from repro.kernel import errno

    assert errors == [errno.ECONNREFUSED]


def test_connect_before_listen_refused(cluster):
    """bind alone is not enough; the pending queue needs listen()."""
    errors = []

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.sleep(200)  # bound but never listening
        yield sys.exit(0)

    def client(sys, argv):
        yield sys.sleep(20)
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield sys.connect(fd, ("red", 5000))
        except SyscallError as err:
            errors.append(err.errno)
        yield sys.exit(0)

    run_guests(cluster, ("red", server, ()), ("green", client, ()))
    from repro.kernel import errno

    assert errors == [errno.ECONNREFUSED]


def test_backlog_limits_pending_connections(cluster):
    """Connections beyond the listen backlog are refused until accepts
    drain the queue."""
    outcomes = []

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 2)
        yield sys.sleep(500)  # let clients pile up
        yield sys.exit(0)

    def client(sys, argv):
        yield sys.sleep(10)
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield sys.connect(fd, ("red", 5000))
            outcomes.append("ok")
        except SyscallError:
            outcomes.append("refused")
        yield sys.exit(0)

    run_guests(
        cluster,
        ("red", server, ()),
        ("green", client, ()),
        ("green", client, ()),
        ("green", client, ()),
        ("green", client, ()),
    )
    assert outcomes.count("ok") == 2
    assert outcomes.count("refused") == 2


def test_read_returns_eof_after_peer_close(cluster):
    results = []

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 5)
        conn, __ = yield sys.accept(fd)
        yield sys.write(conn, b"bye")
        yield sys.close(conn)
        yield sys.exit(0)

    def client(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("red", 5000)
        )
        first = yield sys.read(fd, 100)
        second = yield sys.read(fd, 100)
        results.append((first, second))
        yield sys.exit(0)

    run_guests(cluster, ("red", server, ()), ("green", client, ()))
    assert results == [(b"bye", b"")]


def test_write_after_peer_close_is_epipe(cluster):
    errors = []

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 5)
        conn, __ = yield sys.accept(fd)
        yield sys.close(conn)
        yield sys.exit(0)

    def client(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("red", 5000)
        )
        yield sys.sleep(50)  # let the close arrive
        try:
            yield sys.write(fd, b"anyone there?")
        except SyscallError as err:
            errors.append(err.errno)
        yield sys.exit(0)

    run_guests(cluster, ("red", server, ()), ("green", client, ()))
    from repro.kernel import errno

    assert errors == [errno.EPIPE]


def test_accept_returns_peer_name(cluster):
    names = []

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 5)
        __, peer = yield sys.accept(fd)
        names.append(peer)
        yield sys.exit(0)

    def client(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("red", 5000)
        )
        yield sys.exit(0)

    run_guests(cluster, ("red", server, ()), ("green", client, ()))
    assert isinstance(names[0], InternetName)
    assert names[0].host == "green"


def test_getsockname_getpeername(cluster):
    names = {}

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 5)
        conn, __ = yield sys.accept(fd)
        names["server_sock"] = yield sys.getsockname(conn)
        names["server_peer"] = yield sys.getpeername(conn)
        yield sys.exit(0)

    def client(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("red", 5000)
        )
        names["client_sock"] = yield sys.getsockname(fd)
        names["client_peer"] = yield sys.getpeername(fd)
        yield sys.exit(0)

    run_guests(cluster, ("red", server, ()), ("green", client, ()))
    assert names["client_peer"] == names["server_sock"]
    assert names["server_peer"] == names["client_sock"]


def test_getpeername_on_unconnected_socket_fails(cluster):
    errors = []

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield sys.getpeername(fd)
        except SyscallError as err:
            errors.append(err.errno)
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    from repro.kernel import errno

    assert errors == [errno.ENOTCONN]


def test_unix_domain_streams_work_locally(cluster):
    received = []

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.bind(fd, "/tmp/srv")
        yield sys.listen(fd, 5)
        conn, peer = yield sys.accept(fd)
        data = yield sys.read(conn, 100)
        received.append((data, peer))
        yield sys.exit(0)

    def client(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_UNIX, defs.SOCK_STREAM, "/tmp/srv"
        )
        yield sys.write(fd, b"local")
        yield sys.exit(0)

    run_guests(cluster, ("red", server, ()), ("red", client, ()))
    assert received[0][0] == b"local"


def test_socketpair_is_connected_both_ways(cluster):
    results = []

    def guest(sys, argv):
        a, b = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.write(a, b"ping")
        results.append((yield sys.read(b, 100)))
        yield sys.write(b, b"pong")
        results.append((yield sys.read(a, 100)))
        name_a = yield sys.getsockname(a)
        results.append(name_a)
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    assert results[0] == b"ping"
    assert results[1] == b"pong"
    assert isinstance(results[2], PairName)


def test_socketpair_inherited_by_fork_connects_children(cluster):
    """Section 3.1: "processes can use socket pairs to set up
    communication between their children in a simple way"."""
    results = []

    def child_writer(sys, argv):
        yield sys.write(int(argv[0]), b"from child")
        yield sys.exit(0)

    def parent(sys, argv):
        a, b = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.fork(child_writer, [str(b)])
        yield sys.close(b)
        results.append((yield sys.read(a, 100)))
        yield sys.exit(0)

    run_guests(cluster, ("red", parent, ()))
    assert results == [b"from child"]


def test_bind_rejects_port_in_use(cluster):
    errors = []

    def guest(sys, argv):
        fd1 = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd1, ("", 5000))
        fd2 = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield sys.bind(fd2, ("", 5000))
        except SyscallError as err:
            errors.append(err.errno)
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    from repro.kernel import errno

    assert errors == [errno.EADDRINUSE]


def test_bind_rejects_foreign_host(cluster):
    errors = []

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield sys.bind(fd, ("green", 5000))  # we are on red
        except SyscallError as err:
            errors.append(err.errno)
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    from repro.kernel import errno

    assert errors == [errno.EADDRNOTAVAIL]


def test_socket_released_when_last_descriptor_closes(cluster):
    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        dup_fd = yield sys.dup(fd)
        yield sys.bind(fd, ("", 5000))
        yield sys.close(fd)
        # still referenced by the dup: the binding survives
        fd2 = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield sys.bind(fd2, ("", 5000))
            raise AssertionError("port should still be bound")
        except SyscallError:
            pass
        yield sys.close(dup_fd)
        # last reference gone: the port is free again
        fd3 = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd3, ("", 5000))
        yield sys.exit(0)

    (proc,) = run_guests(cluster, ("red", guest, ()))
    assert proc.exit_reason == defs.EXIT_NORMAL


def test_listen_on_datagram_socket_rejected(cluster):
    errors = []

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.bind(fd, ("", 5000))
        try:
            yield sys.listen(fd, 5)
        except SyscallError as err:
            errors.append(err.errno)
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    from repro.kernel import errno

    assert errors == [errno.EOPNOTSUPP]


def test_connect_to_unknown_host_unreachable(cluster):
    errors = []

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield sys.connect(fd, ("mars", 5000))
        except SyscallError as err:
            errors.append(err.errno)
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    from repro.kernel import errno

    assert errors == [errno.ENETUNREACH]


def test_unix_names_do_not_cross_machines(cluster):
    """UNIX-domain communication is machine-local in 4.2BSD."""
    outcomes = []

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.bind(fd, "/tmp/srv")
        yield sys.listen(fd, 5)
        yield sys.sleep(100)
        yield sys.exit(0)

    def client(sys, argv):
        yield sys.sleep(20)
        fd = yield sys.socket(defs.AF_UNIX, defs.SOCK_STREAM)
        try:
            yield sys.connect(fd, "/tmp/srv")
            outcomes.append("connected")
        except SyscallError:
            outcomes.append("refused")
        yield sys.exit(0)

    run_guests(cluster, ("red", server, ()), ("green", client, ()))
    assert outcomes == ["refused"]


def test_accept_out_of_descriptors_leaves_the_connection_pending(cluster):
    """EMFILE from accept() neither accepts nor refuses: the connection
    stays queued (and no file-table entry leaks), so the same accept
    succeeds once the caller has closed something."""
    from repro.kernel import errno

    seen = {}
    table = cluster.machine("red").file_table

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 2)
        fillers = []
        while True:
            try:
                fillers.append((yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)))
            except SyscallError as err:
                assert err.errno == errno.EMFILE
                break
        yield sys.select([fd])  # the client is in the backlog
        entries = table.live_count()
        try:
            yield sys.accept(fd)
        except SyscallError as err:
            seen["errno"] = err.errno
        seen["leaked"] = table.live_count() - entries
        yield sys.close(fillers.pop())
        conn, __ = yield sys.accept(fd)
        seen["data"] = yield sys.read(conn, 16)
        yield sys.exit(0)

    def client(sys, argv):
        yield sys.sleep(10)
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.connect(fd, ("red", 5000))
        yield sys.write(fd, b"hello")
        yield sys.exit(0)

    run_guests(cluster, ("red", server, ()), ("green", client, ()))
    assert seen == {"errno": errno.EMFILE, "leaked": 0, "data": b"hello"}
