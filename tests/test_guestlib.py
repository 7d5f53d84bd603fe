"""Guest-side helper library."""

import pytest

from repro import guestlib
from repro.kernel import defs
from repro.kernel.errno import SyscallError
from tests.conftest import run_guests


def test_read_whole_file(cluster):
    cluster.machine("red").fs.install("/etc/data", b"abc\ndef\n", mode=0o644)
    out = []

    def guest(sys, argv):
        out.append((yield from guestlib.read_whole_file(sys, "/etc/data")))
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    assert out == ["abc\ndef\n"]


def test_read_optional_file_absent_returns_none(cluster):
    out = []

    def guest(sys, argv):
        out.append((yield from guestlib.read_optional_file(sys, "/nope")))
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    assert out == [None]


def test_write_text_creates_and_appends(cluster):
    def guest(sys, argv):
        yield from guestlib.write_text(sys, "/tmp/t", "one\n")
        yield from guestlib.write_text(sys, "/tmp/t", "two\n", mode="a")
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    node = cluster.machine("red").fs.node("/tmp/t")
    assert bytes(node.data) == b"one\ntwo\n"


def test_read_line_buffers_across_calls(cluster):
    lines = []

    def writer(sys, argv):
        yield sys.write(int(argv[0]), b"first\nsec")
        yield sys.sleep(10)
        yield sys.write(int(argv[0]), b"ond\nlast")
        yield sys.close(int(argv[0]))
        yield sys.exit(0)

    def reader(sys, argv):
        a, b = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.fork(writer, [str(b)])
        yield sys.close(b)
        buffered = [b""]
        while True:
            line = yield from guestlib.read_line(sys, a, buffered)
            if line is None:
                break
            lines.append(line)
        yield sys.exit(0)

    run_guests(cluster, ("red", reader, ()))
    assert lines == ["first", "second", "last"]


def test_frames_round_trip(cluster):
    got = []

    def peer(sys, argv):
        fd = int(argv[0])
        payload = yield from guestlib.recv_frame(sys, fd)
        yield from guestlib.send_frame(sys, fd, b"re:" + payload)
        yield sys.exit(0)

    def main(sys, argv):
        a, b = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.fork(peer, [str(b)])
        yield sys.close(b)
        yield from guestlib.send_frame(sys, a, b"hello")
        got.append((yield from guestlib.recv_frame(sys, a)))
        yield sys.exit(0)

    run_guests(cluster, ("red", main, ()))
    assert got == [b"re:hello"]


def test_recv_frame_eof_returns_none(cluster):
    got = []

    def main(sys, argv):
        a, b = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.close(b)
        got.append((yield from guestlib.recv_frame(sys, a)))
        yield sys.exit(0)

    run_guests(cluster, ("red", main, ()))
    assert got == [None]


def test_json_frames(cluster):
    got = []

    def main(sys, argv):
        a, b = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_STREAM)
        yield from guestlib.send_json(sys, a, {"x": [1, 2], "y": "z"})
        got.append((yield from guestlib.recv_json(sys, b)))
        yield sys.exit(0)

    run_guests(cluster, ("red", main, ()))
    assert got == [{"x": [1, 2], "y": "z"}]


def test_connect_retry_eventually_succeeds(cluster):
    def late_server(sys, argv):
        yield sys.sleep(100)  # listen late
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 5)
        conn, __ = yield sys.accept(fd)
        yield sys.exit(0)

    def client(sys, argv):
        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("red", 5000)
        )
        yield sys.exit(0)

    server, client_proc = run_guests(
        cluster, ("red", late_server, ()), ("green", client, ())
    )
    assert client_proc.exit_reason == defs.EXIT_NORMAL


def test_connect_retry_gives_up(cluster):
    errors = []

    def client(sys, argv):
        try:
            yield from guestlib.connect_retry(
                sys,
                defs.AF_INET,
                defs.SOCK_STREAM,
                ("red", 5999),
                attempts=3,
                backoff_ms=5,
            )
        except SyscallError as err:
            errors.append(err.errno)
        yield sys.exit(0)

    run_guests(cluster, ("green", client, ()))
    from repro.kernel import errno

    assert errors == [errno.ECONNREFUSED]


def test_connect_retry_does_not_wait_after_its_last_attempt(cluster):
    """Three refused attempts make two jittered backoff sleeps (one
    ``random`` draw each), not three: the raise follows the last
    attempt at once."""
    waits = []
    raised_after = []

    class Counted:
        def __init__(self, sys):
            self._sys = sys

        def __getattr__(self, name):
            call = getattr(self._sys, name)
            if name not in ("random", "sleep"):
                return call

            def counted(*args):
                waits.append(name)
                return call(*args)

            return counted

    def client(sys, argv):
        try:
            yield from guestlib.connect_retry(
                Counted(sys),
                defs.AF_INET,
                defs.SOCK_STREAM,
                ("red", 5999),
                attempts=3,
                backoff_ms=5,
            )
        except SyscallError:
            raised_after.append(list(waits))
        yield sys.exit(0)

    run_guests(cluster, ("green", client, ()))
    assert raised_after == [["random", "sleep", "random", "sleep"]]


def test_read_exactly(cluster):
    got = []

    def main(sys, argv):
        a, b = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.write(a, b"0123456789")
        got.append((yield from guestlib.read_exactly(sys, b, 4)))
        got.append((yield from guestlib.read_exactly(sys, b, 6)))
        yield sys.close(a)
        got.append((yield from guestlib.read_exactly(sys, b, 5)))  # EOF
        yield sys.exit(0)

    run_guests(cluster, ("red", main, ()))
    assert got == [b"0123", b"456789", None]


def test_recv_frame_deadline_half_a_frame_then_silence(cluster):
    """A peer that sends half a frame and then goes quiet, without
    hanging up, costs the reader its deadline and no more."""
    got = []

    def main(sys, argv):
        a, b = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.write(a, (10).to_bytes(4, "big") + b"hello")
        start = yield sys.gettimeofday()
        try:
            yield from guestlib.recv_frame(sys, b, timeout_ms=100.0)
        except SyscallError as err:
            got.append(err.errno)
        got.append((yield sys.gettimeofday()) - start)
        yield sys.exit(0)

    run_guests(cluster, ("red", main, ()))
    from repro.kernel import errno

    assert got[0] == errno.ETIMEDOUT
    assert 100.0 <= got[1] < 110.0
