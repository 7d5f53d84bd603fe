"""Pinned syscall sequences of the control plane's shared helpers.

Every syscall a guest makes costs simulated time, so the exact requests
the frame readers and the retry loops issue are part of every schedule.
These tests drive the helpers outside the simulator with a recording
stand-in for ``sys`` and pin, request by request, what each one asks
the kernel for: the frame readers with and without a deadline,
``connect_retry`` against two refusals and then an accept, and each of
the three retry users (``connect_retry``, ``Daemon._notify``,
``Controller.rpc``) at exhaustion.
"""

import pytest

from repro import guestlib
from repro.controller.control import Controller
from repro.daemon import protocol
from repro.daemon.meterdaemon import Daemon
from repro.kernel import defs, errno
from repro.kernel.errno import SyscallError


class RecordingSys:
    """Stands in for a guest's ``sys``: a syscall is the tuple
    (name, args, kwargs) the guest yields."""

    def __getattr__(self, name):
        def request(*args, **kwargs):
            return name, args, kwargs

        return request


class Script:
    """Answers requests: ``gettimeofday`` is a clock that advances 1 ms
    per call, ``random`` is 0.5, ``read`` pops ``chunks``, ``select``
    pops ``ready`` (default: the fd is ready), ``connect`` pops
    ``connects`` (an errno raises, None accepts), ``socket`` hands out
    fds from 5 up.  Every request is logged in ``calls``."""

    def __init__(self, chunks=(), ready=(), connects=()):
        self.chunks = list(chunks)
        self.ready = list(ready)
        self.connects = list(connects)
        self.clock = 0.0
        self.next_fd = 5
        self.calls = []

    def answer(self, name, args, kwargs):
        self.calls.append((name, args, kwargs))
        if name == "gettimeofday":
            now, self.clock = self.clock, self.clock + 1.0
            return now
        if name == "random":
            return 0.5
        if name == "read":
            return self.chunks.pop(0)
        if name == "select":
            fds = args[0]
            return (list(fds) if not self.ready or self.ready.pop(0) else []), []
        if name == "socket":
            self.next_fd += 1
            return self.next_fd
        if name == "connect":
            refusal = self.connects.pop(0) if self.connects else None
            if refusal is not None:
                raise SyscallError(refusal)
        return None

    def names(self):
        return [name for name, __, __ in self.calls]

    def args_of(self, wanted):
        return [args for name, args, __ in self.calls if name == wanted]

    def kwargs_of(self, wanted):
        return [kwargs for name, __, kwargs in self.calls if name == wanted]


def drive(gen, script):
    """Run a guest sub-generator to its end against ``script``; returns
    its value, or the SyscallError it raised."""
    reply, error = None, None
    while True:
        try:
            request = gen.throw(error) if error is not None else gen.send(reply)
        except StopIteration as stop:
            return stop.value
        except SyscallError as err:
            return err
        reply, error = None, None
        try:
            reply = script.answer(*request)
        except SyscallError as err:
            error = err


def frame(payload):
    return len(payload).to_bytes(4, "big") + payload


# ---------------------------------------------------------------------------
# Frame readers
# ---------------------------------------------------------------------------


def test_read_exactly_reads_until_the_count():
    script = Script(chunks=[b"abc", b"def"])
    got = drive(guestlib.read_exactly(RecordingSys(), 3, 6), script)
    assert got == b"abcdef"
    assert script.names() == ["read", "read"]
    assert script.args_of("read") == [(3, 6), (3, 3)]


def test_read_exactly_eof_mid_count_is_none():
    script = Script(chunks=[b"ab", b""])
    assert drive(guestlib.read_exactly(RecordingSys(), 3, 6), script) is None
    assert script.names() == ["read", "read"]


def test_read_exactly_with_a_deadline_selects_before_each_read():
    script = Script(chunks=[b"abc", b"def"])
    got = drive(
        guestlib.read_exactly(RecordingSys(), 3, 6, timeout_ms=100.0), script
    )
    assert got == b"abcdef"
    assert script.names() == [
        "gettimeofday",
        "gettimeofday", "select", "read",
        "gettimeofday", "select", "read",
    ]
    # The budget shrinks with the clock: deadline 0 + 100.
    assert script.kwargs_of("select") == [{"timeout_ms": 99.0}, {"timeout_ms": 98.0}]


def test_recv_frame_reads_header_then_payload():
    script = Script(chunks=[b"\x00\x00", b"\x00\x05", b"hel", b"lo"])
    assert drive(guestlib.recv_frame(RecordingSys(), 3), script) == b"hello"
    assert script.names() == ["read"] * 4
    assert script.args_of("read") == [(3, 4), (3, 2), (3, 5), (3, 2)]


def test_recv_frame_refuses_an_absurd_length_after_the_header():
    script = Script(chunks=[b"\xff\xff\xff\xff"])
    assert drive(guestlib.recv_frame(RecordingSys(), 3), script) is None
    assert script.names() == ["read"]


def test_recv_frame_with_a_deadline():
    script = Script(chunks=[frame(b"hello")[:4], b"hello"])
    got = drive(guestlib.recv_frame(RecordingSys(), 3, timeout_ms=100.0), script)
    assert got == b"hello"
    assert script.names() == [
        "gettimeofday",  # the frame's start
        "gettimeofday",  # the header's deadline
        "gettimeofday", "select", "read",
        "gettimeofday",  # what is left of the budget
        "gettimeofday",  # the payload's deadline
        "gettimeofday", "select", "read",
    ]
    # Header: deadline 1 + 100, now 2.  Payload: budget 100 - (3 - 0)
    # from 4, now 5.
    assert script.kwargs_of("select") == [{"timeout_ms": 99.0}, {"timeout_ms": 96.0}]


def test_recv_frame_with_a_deadline_refuses_an_absurd_length():
    script = Script(chunks=[b"\xff\xff\xff\xff"])
    got = drive(guestlib.recv_frame(RecordingSys(), 3, timeout_ms=100.0), script)
    assert got is None
    assert script.names() == ["gettimeofday", "gettimeofday", "gettimeofday",
                              "select", "read"]


def test_recv_frame_deadline_expires_mid_payload():
    script = Script(chunks=[frame(b"hello")[:4], b"he"], ready=[True, True, False])
    got = drive(guestlib.recv_frame(RecordingSys(), 3, timeout_ms=100.0), script)
    assert isinstance(got, SyscallError) and got.errno == errno.ETIMEDOUT
    assert script.names() == [
        "gettimeofday",
        "gettimeofday",
        "gettimeofday", "select", "read",
        "gettimeofday",
        "gettimeofday",
        "gettimeofday", "select", "read",
        "gettimeofday", "select",
    ]


# ---------------------------------------------------------------------------
# The retry users
# ---------------------------------------------------------------------------


def _connect(**kwargs):
    return guestlib.connect_retry(
        RecordingSys(), defs.AF_INET, defs.SOCK_STREAM, ("red", 5000), **kwargs
    )


def test_connect_retry_two_refusals_then_an_accept():
    refused = errno.ECONNREFUSED
    script = Script(connects=[refused, refused, None])
    assert drive(_connect(), script) == 8
    assert script.names() == [
        "socket", "connect", "close", "random", "sleep",
        "socket", "connect", "close", "random", "sleep",
        "socket", "connect",
    ]
    # Jitter 0.5 scales each wait by 0.75; the wait doubles from 20 ms.
    assert script.args_of("sleep") == [(15.0,), (30.0,)]
    assert script.args_of("close") == [(6,), (7,)]


def test_connect_retry_at_exhaustion():
    script = Script(connects=[errno.ECONNREFUSED] * 3)
    err = drive(_connect(attempts=3, backoff_ms=5.0), script)
    assert isinstance(err, SyscallError) and err.errno == errno.ECONNREFUSED
    assert "failed after 3 attempts" in str(err)
    assert script.names() == [
        "socket", "connect", "close", "random", "sleep",
        "socket", "connect", "close", "random", "sleep",
        "socket", "connect", "close",
    ]
    assert script.args_of("sleep") == [(3.75,), (7.5,)]


def test_connect_retry_does_not_retry_a_hard_error():
    script = Script(connects=[errno.EACCES])
    err = drive(_connect(), script)
    assert isinstance(err, SyscallError) and err.errno == errno.EACCES
    assert script.names() == ["socket", "connect", "close"]


def test_daemon_notify_at_exhaustion_gives_up_silently():
    script = Script(connects=[errno.ECONNREFUSED] * 4)
    daemon = Daemon(RecordingSys())
    assert drive(daemon._notify(("yellow", 1024), b"x"), script) is None
    attempt = ["socket", "connect", "close"]
    wait = ["random", "sleep"]
    assert script.names() == attempt + wait + attempt + wait + attempt + wait + attempt
    # 25 ms doubling, capped at 200, jittered by 0.75.
    assert script.args_of("sleep") == [(18.75,), (37.5,), (75.0,)]


def test_controller_rpc_at_exhaustion_degrades_the_machine():
    script = Script(connects=[errno.ECONNREFUSED] * 3)
    controller = Controller(RecordingSys())
    ok, body = drive(controller.rpc("red", protocol.PING_REQ), script)
    assert not ok
    assert body == {"status": "no meterdaemon on 'red' (ECONNREFUSED)"}
    attempt = ["socket", "connect", "close"]
    wait = ["random", "sleep"]
    assert script.names() == (
        ["gettimeofday"]
        + attempt + wait + attempt + wait + attempt
        + ["gettimeofday", "write"]  # the degradation warning
    )
    assert script.args_of("sleep") == [(30.0,), (60.0,)]
    assert controller.health.is_degraded("red")
    assert b"marking machine degraded" in script.args_of("write")[0][1]


def test_controller_rpc_to_a_degraded_machine_tries_once():
    script = Script(connects=[errno.ECONNREFUSED] * 4)
    controller = Controller(RecordingSys())
    drive(controller.rpc("red", protocol.PING_REQ), script)
    del script.calls[:]
    ok, __ = drive(controller.rpc("red", protocol.PING_REQ), script)
    assert not ok
    assert script.names() == ["gettimeofday", "socket", "connect", "close",
                              "gettimeofday"]


@pytest.mark.parametrize("hard", [errno.EACCES, errno.EINVAL])
def test_controller_rpc_does_not_retry_a_hard_error(hard):
    script = Script(connects=[hard])
    controller = Controller(RecordingSys())
    ok, __ = drive(controller.rpc("red", protocol.PING_REQ), script)
    assert not ok
    assert script.names() == ["gettimeofday", "socket", "connect", "close",
                              "gettimeofday", "write"]
