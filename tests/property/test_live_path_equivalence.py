"""Property tests: the live path's one-pass code against the code it
replaced.

Each replaced function is kept here verbatim (``_old_*``) as the
oracle: the log-line formatter, ``select(2)``'s two-pass descriptor
walk, and the trace store's per-call discard-mask loop.  The new code
must compute exactly what the old did -- same line, same ready list,
same ``EBADF``, same wait queues in the same order, same bytes.
"""

from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering.records import format_record
from repro.kernel import defs, errno
from repro.kernel.errno import SyscallError
from repro.kernel.file_table import FileTableEntry
from repro.kernel.filesystem import OpenFile
from repro.kernel.process import Proc
from repro.kernel.socket import Socket
from repro.kernel.sysproc import ProcessCalls
from repro.kernel.tty import Terminal
from repro.kernel.waitq import WaitQueue
from repro.metering.messages import (
    BODY_FIELDS,
    HEADER_BYTES,
    MessageCodec,
    field_layout,
    record_fields,
)
from repro.net.addresses import InternetName, PairName, UnixName
from repro.tracestore.format import zero_masked_bytes

#: The maskable header fields' wire offsets, spelled out as the replaced
#: mask loop had them (size and traceType are never zeroed).
_MASKABLE_HEADER_OFFSETS = {
    "machine": (4, 2),
    "cpuTime": (8, 4),
    "procTime": (16, 4),
}

# ----------------------------------------------------------------------
# format_record
# ----------------------------------------------------------------------


def _old_format_record(record, field_order=None):
    """Render a record dict to its log line."""
    if field_order is None:
        keys = list(record)
    else:
        keys = [key for key in field_order if key in record]
        keys += [key for key in record if key not in keys]
    return " ".join("{0}={1}".format(key, record[key]) for key in keys)


_KEYS = st.sampled_from(
    ["event", "size", "machine", "cpuTime", "pid", "pc", "sock", "destName",
     "msgLength", "x", "y=z"]
)
_VALUES = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False),
    st.none(),
    st.just(""),
    st.text(alphabet="ab=:/.-0", max_size=8),
)


@given(
    st.dictionaries(_KEYS, _VALUES, max_size=10),
    st.one_of(st.none(), st.lists(_KEYS, unique=True, max_size=12)),
)
@settings(max_examples=300, deadline=None)
def test_format_record_matches_the_replaced_formatter(record, order):
    """Orders naming each key at most once -- missing keys included --
    give the old line exactly (a key named twice is pinned apart in
    tests/filtering/test_records.py)."""
    assert format_record(record, order) == _old_format_record(record, order)


# ----------------------------------------------------------------------
# select(2)
# ----------------------------------------------------------------------


class _Kernel(ProcessCalls):
    """Just enough of a Machine for ``sys_select``: a clock, the meter's
    loss queue, and a ``block`` that records the queues it was given."""

    BLOCKED = "blocked"

    def __init__(self):
        self.sim = SimpleNamespace(now=10.0)
        self.meter = SimpleNamespace(
            lost_meters=deque(), lost_wait=WaitQueue("meter-loss")
        )
        self.blocked_on = None

    def block(self, proc, request, queues):
        self.blocked_on = list(queues)
        return self.BLOCKED

    def _schedule_timeout_wake(self, proc, delay_ms):
        proc.wake_deadline = self.sim.now + delay_ms


class _OldKernel(_Kernel):
    def sys_select(self, proc, request):
        read_fds, timeout_ms, want_children, want_meter_loss = request.args
        if want_meter_loss and proc.uid != 0:
            raise SyscallError(
                errno.EPERM, "select(want_meter_loss) is root-only"
            )
        if timeout_ms is not None and proc.wake_deadline is None:
            self._schedule_timeout_wake(proc, timeout_ms)

        entries = [(fd, proc.lookup_fd(fd)) for fd in read_fds]
        ready = [
            fd for fd, entry in entries if self._entry_readable(entry)
        ]
        events = []
        if want_children:
            while proc.child_events:
                events.append(proc.child_events.popleft())
        if want_meter_loss:
            while self.meter.lost_meters:
                events.append(self.meter.lost_meters.popleft())
        if ready or events:
            return (ready, events)
        if timeout_ms is not None and self.sim.now + 1e-9 >= proc.wake_deadline:
            return ([], [])

        queues = [self._entry_read_queue(entry) for __, entry in entries]
        queues = [queue for queue in queues if queue is not None]
        if want_children:
            queues.append(proc.child_wait)
        if want_meter_loss:
            queues.append(self.meter.lost_wait)
        return self.block(proc, request, queues)

    @staticmethod
    def _entry_readable(entry):
        obj = entry.obj
        if entry.kind in ("socket", "tty"):
            return obj.readable()
        return True  # plain files never block

    @staticmethod
    def _entry_read_queue(entry):
        if entry.kind in ("socket", "tty"):
            return entry.obj.rd_wait
        return None


_SLOT_KINDS = [
    "dgram_ready",
    "dgram_idle",
    "stream_eof",
    "stream_idle",
    "tty_ready",
    "tty_idle",
    "file",
    "closed",
]


def _object(kind):
    if kind.startswith("dgram"):
        sock = Socket(None, defs.AF_INET, defs.SOCK_DGRAM)
        if kind == "dgram_ready":
            sock.recv_queue.append((b"x", None))
            sock.recv_bytes = 1
        return sock
    if kind.startswith("stream"):
        sock = Socket(None, defs.AF_INET, defs.SOCK_STREAM)
        if kind == "stream_eof":
            sock.state = "connected"
            sock.peer_closed = True
        return sock
    if kind.startswith("tty"):
        tty = Terminal()
        if kind == "tty_ready":
            tty.push_line("ls")
        return tty
    node = SimpleNamespace(data=bytearray(b"abc"))
    return OpenFile(node, "r")


def _build(case, kernel_class):
    """A kernel and a process holding the drawn descriptor table, plus a
    label for every wait queue so two builds can be compared."""
    slots, read_fds, timeout_ms, want_children, want_loss, backlog = case
    kernel = kernel_class()
    proc = Proc(None, pid=7, uid=0, program_name="guest")
    labels = {
        id(proc.child_wait): "children",
        id(kernel.meter.lost_wait): "meter-loss",
    }
    for fd, kind in enumerate(slots):
        if kind == "closed":
            continue
        obj = _object(kind)
        proc.fds[fd] = FileTableEntry(0x1000 + 16 * fd, obj)
        if hasattr(obj, "rd_wait"):
            labels[id(obj.rd_wait)] = fd
    if backlog:
        proc.child_events.append({"pid": 9, "status": 0})
        kernel.meter.lost_meters.append(("red", 9))
    request = SimpleNamespace(
        args=(list(read_fds), timeout_ms, want_children, want_loss)
    )
    return kernel, proc, request, labels


def _outcome(case, kernel_class):
    kernel, proc, request, labels = _build(case, kernel_class)
    try:
        result = kernel.sys_select(proc, request)
    except SyscallError as err:
        return ("error", err.errno)
    if result is _Kernel.BLOCKED:
        return ("blocked", [labels[id(queue)] for queue in kernel.blocked_on])
    return ("returned", result, proc.wake_deadline)


@st.composite
def _select_cases(draw):
    slots = draw(st.lists(st.sampled_from(_SLOT_KINDS), min_size=1, max_size=8))
    read_fds = draw(
        st.lists(st.integers(min_value=0, max_value=len(slots)), max_size=8)
    )
    timeout_ms = draw(st.sampled_from([None, 0, 5.0]))
    return (
        slots,
        read_fds,
        timeout_ms,
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.booleans()),
    )


@given(_select_cases())
@settings(max_examples=400, deadline=None)
def test_one_pass_select_matches_the_two_pass_walk(case):
    assert _outcome(case, _Kernel) == _outcome(case, _OldKernel)


def test_select_reports_ebadf_even_after_a_ready_fd():
    case = (["dgram_ready", "closed"], [0, 1], None, False, False, False)
    assert _outcome(case, _Kernel) == ("error", errno.EBADF)
    assert _outcome(case, _OldKernel) == ("error", errno.EBADF)


def test_select_blocks_on_every_waitable_fd_in_order():
    case = (
        ["file", "dgram_idle", "tty_idle", "stream_idle"],
        [3, 1, 2],
        None,
        True,
        True,
        False,
    )
    expected = ("blocked", [3, 1, 2, "children", "meter-loss"])
    assert _outcome(case, _Kernel) == expected
    assert _outcome(case, _OldKernel) == expected


# ----------------------------------------------------------------------
# zero_masked_bytes
# ----------------------------------------------------------------------


def _old_zero_masked_bytes(raw, event, mask):
    """Zero the wire bytes of every masked field (reduction really does
    remove the data, not just the key).  size and traceType survive so
    the payload stays a decodable meter message."""
    if not mask:
        return raw
    buf = bytearray(raw)
    for i, name in enumerate(record_fields(event)):
        if not mask & (1 << i):
            continue
        span = _MASKABLE_HEADER_OFFSETS.get(name)
        if span is not None:
            offset, length = span
            buf[offset : offset + length] = b"\x00" * length
            continue
        for field_name, body_offset, length, __ in field_layout(event):
            if field_name == name:
                offset = HEADER_BYTES + body_offset
                buf[offset : offset + length] = b"\x00" * length
                break
    return bytes(buf)


_CODEC = MessageCodec({1: "red", 2: "green"})
_NAMES = [
    None,
    InternetName("red", 5100, 1),
    UnixName("/tmp/sock"),
    PairName(77),
]


@st.composite
def _masked_messages(draw):
    event = draw(st.sampled_from(sorted(BODY_FIELDS)))
    longs = st.integers(min_value=-(2**31), max_value=2**31 - 1)
    body = {}
    for name, kind in BODY_FIELDS[event]:
        if kind == "long":
            body[name] = draw(longs)
        else:
            body[name] = draw(st.sampled_from(_NAMES))
    raw = _CODEC.encode(
        event,
        machine=draw(st.integers(min_value=0, max_value=2**15 - 1)),
        cpu_time=draw(longs),
        proc_time=draw(longs),
        **body
    )
    bits = len(record_fields(event))
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    return raw, event, mask


@given(_masked_messages())
@settings(max_examples=400, deadline=None)
def test_cached_mask_spans_zero_the_same_bytes(case):
    raw, event, mask = case
    assert zero_masked_bytes(raw, event, mask) == _old_zero_masked_bytes(
        raw, event, mask
    )
