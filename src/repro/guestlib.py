"""Guest-side convenience subroutines.

Guest programs are generators, so shared helpers are sub-generators
used with ``yield from``::

    text = yield from guestlib.read_whole_file(sys, "descriptions")

Nothing here is privileged; everything reduces to plain syscalls.
"""

import json

from repro.kernel import errno
from repro.kernel.errno import SyscallError


def _read_to_eof(sys, path, chunk_bytes):
    """Open, read to EOF in ``chunk_bytes`` reads, close; the raw bytes."""
    fd = yield sys.open(path, "r")
    chunks = []
    while True:
        data = yield sys.read(fd, chunk_bytes)
        if not data:
            break
        chunks.append(data)
    yield sys.close(fd)
    return b"".join(chunks)


def read_whole_file(sys, path):
    """Open, read to EOF, close; returns the content as text."""
    data = yield from _read_to_eof(sys, path, 4096)
    return data.decode("ascii", "replace")


def read_whole_bytes(sys, path):
    """Open, read to EOF, close; returns the raw bytes (binary files
    such as trace-store segments).  None if the file is absent."""
    try:
        return (yield from _read_to_eof(sys, path, 65536))
    except SyscallError as err:
        if err.errno == errno.ENOENT:
            return None
        raise


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


def read_exactly(sys, fd, nbytes, timeout_ms=None):
    """Read exactly ``nbytes`` from a stream; returns None at EOF.

    With ``timeout_ms`` each read waits in a select against a
    ``gettimeofday`` budget and ``SyscallError(ETIMEDOUT)`` is raised
    when the bytes do not arrive in time, so a peer that stops talking
    mid-frame cannot wedge the caller forever.
    """
    if timeout_ms is not None:
        deadline = (yield sys.gettimeofday()) + timeout_ms
    parts = []
    remaining = nbytes
    while remaining > 0:
        if timeout_ms is not None:
            budget = deadline - (yield sys.gettimeofday())
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


def retry(sys, attempts, backoff_ms, max_backoff_ms, attempt, *args, **kwargs):
    """Run ``attempt(*args, **kwargs)``, a sub-generator returning
    ``(result, error)``, until it succeeds, fails with an errno outside
    :data:`TRANSIENT_ERRNOS`, or has run ``attempts`` times; returns the
    last ``(result, error)`` and leaves giving up to the caller.

    The wait between attempts doubles from ``backoff_ms`` up to
    ``max_backoff_ms``, scaled by a seeded-random factor in [0.5, 1.0]
    (decorrelates retry storms without hurting reproducibility: the
    jitter comes from the simulator's own RNG via ``random(2)``).
    There is no wait after the last attempt.
    """
    delay = backoff_ms
    for tried in range(1, attempts + 1):
        result, error = yield from attempt(*args, **kwargs)
        if error is None or error.errno not in TRANSIENT_ERRNOS:
            break
        if tried < attempts:
            jitter = yield sys.random()
            yield sys.sleep(delay * (0.5 + 0.5 * jitter))
            delay = min(delay * 2.0, max_backoff_ms)
    return result, error


def dial(sys, domain, type_, name, timeout_ms):
    """Create a socket and connect it; a failed connect closes the
    socket before the error propagates, so it costs no descriptor."""
    fd = yield sys.socket(domain, type_)
    try:
        yield sys.connect(fd, name, timeout_ms)
    except SyscallError:
        yield sys.close(fd)
        raise
    return fd


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
    """:func:`dial`, retried on transient errors by :func:`retry`.

    Workload processes of a job all start at once (startjob), so a
    client can race its server's listen(); real 4.2BSD programs retried
    exactly like this.  Returns the connected fd; a hard error is
    raised as it is, and exhaustion raises a ``SyscallError`` naming
    the destination and the attempt count.
    """

    def attempt():
        try:
            return (yield from dial(sys, domain, type_, name, timeout_ms)), None
        except SyscallError as err:
            return None, err

    fd, err = yield from retry(sys, attempts, backoff_ms, max_backoff_ms, attempt)
    if err is None:
        return fd
    if err.errno not in TRANSIENT_ERRNOS:
        raise err
    raise SyscallError(
        err.errno,
        "connect to {0!r} failed after {1} attempts".format(name, attempts),
    )


def send_frame(sys, fd, payload):
    """Write a 4-byte-length-prefixed frame (controller/daemon RPC)."""
    header = len(payload).to_bytes(4, "big")
    yield sys.write(fd, header + payload)


#: Frames above this are junk, not protocol traffic: refuse instead of
#: blocking forever waiting for gigabytes that will never come.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def recv_frame(sys, fd, timeout_ms=None):
    """Read one length-prefixed frame; returns None at EOF or when the
    claimed length is absurd (a non-protocol peer).  With
    ``timeout_ms`` the whole frame must arrive within it, or
    ``SyscallError(ETIMEDOUT)`` is raised."""
    if timeout_ms is not None:
        start = yield sys.gettimeofday()
    header = yield from read_exactly(sys, fd, 4, timeout_ms)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        return None
    if timeout_ms is not None:
        timeout_ms -= (yield sys.gettimeofday()) - start
        if timeout_ms <= 0:
            raise SyscallError(errno.ETIMEDOUT, "read deadline expired")
    return (yield from read_exactly(sys, fd, length, timeout_ms))


def send_json(sys, fd, obj):
    """One JSON object as a frame (workload wire format)."""
    yield from send_frame(sys, fd, json.dumps(obj).encode("ascii"))


def recv_json(sys, fd):
    """Read one JSON frame; returns None at EOF."""
    payload = yield from recv_frame(sys, fd)
    if payload is None:
        return None
    return json.loads(payload.decode("ascii"))
