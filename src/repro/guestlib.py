"""Guest-side convenience subroutines.

Guest programs are generators, so shared helpers are sub-generators
used with ``yield from``::

    text = yield from guestlib.read_whole_file(sys, "descriptions")

Nothing here is privileged; everything reduces to plain syscalls.
"""

import json

from repro.kernel import errno
from repro.kernel.errno import SyscallError


def read_whole_file(sys, path):
    """Open, read to EOF, close; returns the content as text."""
    fd = yield sys.open(path, "r")
    chunks = []
    while True:
        data = yield sys.read(fd, 4096)
        if not data:
            break
        chunks.append(data)
    yield sys.close(fd)
    return b"".join(chunks).decode("ascii", "replace")


def read_whole_bytes(sys, path):
    """Open, read to EOF, close; returns the raw bytes (binary files
    such as trace-store segments).  None if the file is absent."""
    try:
        fd = yield sys.open(path, "r")
    except SyscallError as err:
        if err.errno == errno.ENOENT:
            return None
        raise
    chunks = []
    while True:
        data = yield sys.read(fd, 65536)
        if not data:
            break
        chunks.append(data)
    yield sys.close(fd)
    return b"".join(chunks)


def read_optional_file(sys, path):
    """Like :func:`read_whole_file` but returns None if absent."""
    try:
        text = yield from read_whole_file(sys, path)
    except SyscallError as err:
        if err.errno == errno.ENOENT:
            return None
        raise
    return text


def write_text(sys, path, text, mode="w"):
    """Create/append a text file."""
    fd = yield sys.open(path, mode)
    yield sys.write(fd, text.encode("ascii"))
    yield sys.close(fd)


def read_exactly(sys, fd, nbytes):
    """Read exactly ``nbytes`` from a stream; returns None at EOF."""
    parts = []
    remaining = nbytes
    while remaining > 0:
        data = yield sys.read(fd, remaining)
        if not data:
            return None
        parts.append(data)
        remaining -= len(data)
    return b"".join(parts)


def read_exactly_timeout(sys, fd, nbytes, timeout_ms):
    """Like :func:`read_exactly` but with a deadline: raises
    ``SyscallError(ETIMEDOUT)`` if the bytes do not arrive in time.

    The deadline is enforced with select-with-timeout against a
    ``gettimeofday`` budget, so a peer that stops talking mid-frame
    cannot wedge the caller forever.
    """
    start = yield sys.gettimeofday()
    deadline = start + timeout_ms
    parts = []
    remaining = nbytes
    while remaining > 0:
        now = yield sys.gettimeofday()
        budget = deadline - now
        if budget <= 0:
            raise SyscallError(errno.ETIMEDOUT, "read deadline expired")
        ready, __ = yield sys.select([fd], timeout_ms=budget)
        if fd not in ready:
            raise SyscallError(errno.ETIMEDOUT, "read deadline expired")
        data = yield sys.read(fd, remaining)
        if not data:
            return None
        parts.append(data)
        remaining -= len(data)
    return b"".join(parts)


def read_line(sys, fd, buffered):
    """Read one newline-terminated line.

    ``buffered`` is a single-element list carrying leftover bytes
    across calls (generators cannot keep closure state for the caller).
    Returns the line without the newline, or None at EOF.
    """
    while b"\n" not in buffered[0]:
        data = yield sys.read(fd, 1024)
        if not data:
            if buffered[0]:
                line, buffered[0] = buffered[0], b""
                return line.decode("ascii", "replace")
            return None
        buffered[0] += data
    line, __, buffered[0] = buffered[0].partition(b"\n")
    return line.decode("ascii", "replace")


#: Errnos worth retrying: the peer may come (back) up, the partition
#: may heal.  Anything else is a hard programming or permission error.
TRANSIENT_ERRNOS = frozenset(
    {
        errno.ECONNREFUSED,
        errno.ECONNRESET,
        errno.ETIMEDOUT,
        errno.ENETUNREACH,
        errno.EPIPE,
    }
)


def backoff_sleep(sys, delay_ms):
    """Sleep ``delay_ms`` scaled by a seeded-random factor in [0.5, 1.0]
    (decorrelates retry storms without hurting reproducibility: the
    jitter comes from the simulator's own RNG via ``random(2)``)."""
    jitter = yield sys.random()
    yield sys.sleep(delay_ms * (0.5 + 0.5 * jitter))


def connect_retry(
    sys,
    domain,
    type_,
    name,
    attempts=50,
    backoff_ms=20.0,
    max_backoff_ms=320.0,
    timeout_ms=None,
):
    """Create a socket and connect, retrying on transient errors.

    Workload processes of a job all start at once (startjob), so a
    client can race its server's listen(); real 4.2BSD programs retried
    exactly like this.  The wait between attempts doubles from
    ``backoff_ms`` up to ``max_backoff_ms``, jittered by the simulator
    RNG so many retriers do not stampede in lockstep.  Returns the
    connected fd; on exhaustion raises a ``SyscallError`` naming the
    destination and the attempt count, with no wait after the last
    attempt.
    """
    last_err = None
    delay = backoff_ms
    for attempt in range(attempts):
        fd = yield sys.socket(domain, type_)
        try:
            yield sys.connect(fd, name, timeout_ms)
            return fd
        except SyscallError as err:
            last_err = err
            yield sys.close(fd)
            if err.errno not in TRANSIENT_ERRNOS:
                raise
            if attempt + 1 < attempts:
                yield from backoff_sleep(sys, delay)
                delay = min(delay * 2.0, max_backoff_ms)
    raise SyscallError(
        last_err.errno,
        "connect to {0!r} failed after {1} attempts".format(name, attempts),
    )


def send_frame(sys, fd, payload):
    """Write a 4-byte-length-prefixed frame (controller/daemon RPC)."""
    header = len(payload).to_bytes(4, "big")
    yield sys.write(fd, header + payload)


#: Frames above this are junk, not protocol traffic: refuse instead of
#: blocking forever waiting for gigabytes that will never come.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def recv_frame(sys, fd):
    """Read one length-prefixed frame; returns None at EOF or when the
    claimed length is absurd (a non-protocol peer)."""
    header = yield from read_exactly(sys, fd, 4)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        return None
    payload = yield from read_exactly(sys, fd, length)
    return payload


def recv_frame_timeout(sys, fd, timeout_ms):
    """Like :func:`recv_frame` but raises ``SyscallError(ETIMEDOUT)``
    when the whole frame has not arrived within ``timeout_ms``."""
    start = yield sys.gettimeofday()
    header = yield from read_exactly_timeout(sys, fd, 4, timeout_ms)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        return None
    now = yield sys.gettimeofday()
    budget = timeout_ms - (now - start)
    if budget <= 0:
        raise SyscallError(errno.ETIMEDOUT, "read deadline expired")
    payload = yield from read_exactly_timeout(sys, fd, length, budget)
    return payload


def send_json(sys, fd, obj):
    """One JSON object as a frame (workload wire format)."""
    yield from send_frame(sys, fd, json.dumps(obj).encode("ascii"))


def recv_json(sys, fd):
    """Read one JSON frame; returns None at EOF."""
    payload = yield from recv_frame(sys, fd)
    if payload is None:
        return None
    return json.loads(payload.decode("ascii"))
