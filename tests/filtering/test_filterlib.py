"""The filter-side library: MeterInbox state handling."""

from repro.filtering.filterlib import MeterInbox


def test_last_child_events_defined_before_first_wait():
    """A filter may consult last_child_events before its first wait()
    (e.g. a startup path that polls for children): it must exist and
    be empty, not raise AttributeError."""
    inbox = MeterInbox()
    assert inbox.last_child_events == []


def test_fds_lists_listener_then_connections():
    inbox = MeterInbox(listen_fd=3)
    inbox.buffers[7] = b""
    inbox.buffers[9] = b""
    assert inbox.fds() == [3, 7, 9]


def test_inbox_out_of_descriptors_stops_accepting_until_a_connection_closes(cluster):
    """accept()'s EMFILE must not kill the filter: the inbox counts the
    refusal, leaves the listening socket out of its select set while
    it has no descriptor to give, and accepts the waiting connection
    once one of its own closes."""
    from repro.kernel import defs
    from tests.conftest import run_guests

    inbox = MeterInbox(listen_fd=3)
    snapshots = []

    def filter_guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        assert fd == inbox.listen_fd
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 2)
        for __ in range(defs.NOFILE - 5):  # room for one connection only
            yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        while inbox.connections_accepted < 2:
            yield from inbox.wait(sys)
            snapshots.append(
                (inbox.connections_accepted, inbox.accepts_refused, inbox.fds()[0])
            )
        yield sys.exit(0)

    def meter(hold_ms):
        def main(sys, argv):
            yield sys.sleep(10)
            fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
            yield sys.connect(fd, ("red", 5000))
            yield sys.sleep(hold_ms)
            yield sys.exit(0)

        return main

    run_guests(
        cluster,
        ("red", filter_guest, ()),
        ("green", meter(100), ()),
        ("blue", meter(300), ()),
    )
    first_conn = 3 + defs.NOFILE - 5 + 1
    assert snapshots == [
        (1, 0, 3),  # first meter accepted
        (1, 1, first_conn),  # second refused: listener out of the set
        (1, 1, 3),  # first meter hung up: listening again
        (2, 1, 3),  # the waiting connection is accepted after all
    ]


# ---------------------------------------------------------------------------
# Framing: _feed reassembles meter messages from arbitrary stream chunks.
# ---------------------------------------------------------------------------

import struct

from repro.filtering.filterlib import MAX_METER_MESSAGE
from repro.metering.messages import MessageCodec

_codec = MessageCodec({1: "red", 2: "green"})


def _message(i=0):
    return _codec.encode(
        "fork", machine=1, cpu_time=100 + i, proc_time=10, pid=500 + i, newPid=600 + i
    )


def _fed(inbox, fd, data):
    out = []
    corrupt = inbox._feed(fd, data, out)
    return out, corrupt


def test_feed_single_exact_message_passes_through():
    inbox = MeterInbox()
    inbox.buffers[4] = b""
    msg = _message()
    out, corrupt = _fed(inbox, 4, msg)
    assert not corrupt
    assert out == [msg]
    assert out[0] is msg  # exact reads are not re-copied
    assert inbox.buffers[4] == b""


def test_feed_batch_of_messages_in_one_read():
    inbox = MeterInbox()
    inbox.buffers[4] = b""
    msgs = [_message(i) for i in range(50)]
    out, corrupt = _fed(inbox, 4, b"".join(msgs))
    assert not corrupt
    assert out == msgs
    assert inbox.buffers[4] == b""


def test_feed_reassembles_across_chunk_boundaries():
    inbox = MeterInbox()
    inbox.buffers[4] = b""
    msgs = [_message(i) for i in range(7)]
    stream = b"".join(msgs)
    out = []
    # Feed in ugly 11-byte chunks: every message straddles a boundary.
    for start in range(0, len(stream), 11):
        chunk_out, corrupt = _fed(inbox, 4, stream[start : start + 11])
        assert not corrupt
        out.extend(chunk_out)
    assert out == msgs
    assert inbox.buffers[4] == b""


def test_feed_keeps_partial_tail_buffered():
    inbox = MeterInbox()
    inbox.buffers[4] = b""
    msg = _message()
    out, corrupt = _fed(inbox, 4, msg + msg[:10])
    assert not corrupt
    assert out == [msg]
    assert inbox.buffers[4] == msg[:10]
    out, corrupt = _fed(inbox, 4, msg[10:])
    assert not corrupt
    assert out == [msg]


def test_feed_flags_garbage_size_as_corrupt():
    inbox = MeterInbox()
    for bad_size in (0, 5, MAX_METER_MESSAGE + 1, -3):
        inbox.buffers[4] = b""
        data = struct.pack(">i", bad_size) + b"x" * 60
        out, corrupt = _fed(inbox, 4, data)
        assert corrupt
        assert out == []


def test_feed_short_prefix_waits_for_size_word():
    inbox = MeterInbox()
    inbox.buffers[4] = b""
    out, corrupt = _fed(inbox, 4, b"\x00\x00")
    assert not corrupt
    assert out == []
    assert inbox.buffers[4] == b"\x00\x00"
