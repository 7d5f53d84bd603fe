"""The controller/daemon wire protocol (Figure 3.6).

"The exchange is structured as a remote procedure call": the controller
opens a stream connection to a daemon, sends one request, waits for the
one reply, and both sides close.  Each message has a numeric *type* and
a variable *body*; Figure 3.6 shows type 11 (create request: filename,
parameter list, filter port/host, meter flags, control port/host) and
type 18 (create reply: pid, status).

We keep the paper's type numbers for create, number the other
operations in the same style, and encode bodies as JSON inside a
4-byte-length frame (the 1984 implementation used a hand-packed C
struct; JSON carries the same named fields without a second codec --
see DESIGN.md, substitutions).
"""

import json

from repro import guestlib
from repro.kernel import defs
from repro.kernel.errno import SyscallError

# Request types (Figure 3.6 numbers create requests from 11).
CREATE_REQ = 11
CREATE_FILTER_REQ = 12
SETFLAGS_REQ = 13
SIGNAL_REQ = 14
ACQUIRE_REQ = 15
UNMETER_REQ = 16
GETLOG_REQ = 17

STDIN_REQ = 25  # deliver bytes to a child's standard input (3.5.2)

# Recovery-layer requests: liveness probe, daemon census, meter
# reconnection after a filter relaunch, and child adoption after a
# controller restart (resume).
PING_REQ = 27
STATUS_REQ = 32
REMETER_REQ = 34
ADOPT_REQ = 36

# Reply types (create reply is 18 in Figure 3.6).
CREATE_REPLY = 18
CREATE_FILTER_REPLY = 19
SETFLAGS_REPLY = 20
SIGNAL_REPLY = 21
ACQUIRE_REPLY = 22
UNMETER_REPLY = 23
GETLOG_REPLY = 24
STDIN_REPLY = 26
PING_REPLY = 28
ERROR_REPLY = 29
STATUS_REPLY = 33
REMETER_REPLY = 35
ADOPT_REPLY = 37

# Daemon-initiated notifications (daemon connects to the controller's
# notification socket; Section 3.5.1's one exception to the RPC flow).
TERMINATION_NOTIFY = 30
OUTPUT_NOTIFY = 31
FILTER_RESTART_NOTIFY = 38  # a supervised filter was relaunched

# Live-analysis requests: the daemon relays a query to the streaming
# engine inside a local filter (repro.streaming) and returns its reply.
STATS_REQ = 39
WATCH_REQ = 41
STATS_REPLY = 40
WATCH_REPLY = 42

REPLY_FOR = {
    CREATE_REQ: CREATE_REPLY,
    CREATE_FILTER_REQ: CREATE_FILTER_REPLY,
    SETFLAGS_REQ: SETFLAGS_REPLY,
    SIGNAL_REQ: SIGNAL_REPLY,
    ACQUIRE_REQ: ACQUIRE_REPLY,
    UNMETER_REQ: UNMETER_REPLY,
    GETLOG_REQ: GETLOG_REPLY,
    STDIN_REQ: STDIN_REPLY,
    PING_REQ: PING_REPLY,
    STATUS_REQ: STATUS_REPLY,
    REMETER_REQ: REMETER_REPLY,
    ADOPT_REQ: ADOPT_REPLY,
    STATS_REQ: STATS_REPLY,
    WATCH_REQ: WATCH_REPLY,
}

OK = "ok"


def encode(msg_type, **body):
    """Build the wire payload for one protocol message."""
    return json.dumps({"type": msg_type, "body": body}).encode("ascii")


def decode(payload):
    """Parse a payload into ``(type, body dict)``."""
    message = json.loads(payload.decode("ascii"))
    return message["type"], message["body"]


def error_reply(reason):
    return encode(ERROR_REPLY, status=str(reason))


def is_ok(body):
    return body.get("status") == OK


def exchange(sys, address, request, deadline_ms, reply=True):
    """One frame out and, unless ``reply`` is false (a notification),
    one frame back, over a fresh stream connection to ``address``: the
    single socket/connect/send/[recv]/close both ends of the protocol
    use.  Returns ``(payload, None)`` -- payload None when no reply was
    asked for or the peer hung up without answering -- or
    ``(None, error)`` for the SyscallError that ended the attempt."""
    payload = error = None
    fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
    try:
        yield sys.connect(fd, address, deadline_ms)
        yield from guestlib.send_frame(sys, fd, request)
        if reply:
            payload = yield from guestlib.recv_frame(sys, fd, timeout_ms=deadline_ms)
    except SyscallError as err:
        error = err
    # Not in a ``finally``: the kernel close()s a killed guest's
    # generator, and a yield while it unwinds is an error.
    yield sys.close(fd)
    return payload, error
