"""Pinned cases of the writer's record intake: a payload too short to
be a message is refused by name, and a bare header indexes as pid 0,
through ``append`` and ``append_many`` alike."""

import pytest

from repro.metering import messages
from repro.tracestore import StoreReader, StoreWriter, collect_ops
from repro.tracestore import format as sformat

SEND = messages.EVENT_TYPES["send"]


def _header(machine=2, cpu_time=70, trace_type=SEND, pid=9):
    return messages.HEADER_PID.pack(28, machine, cpu_time, 0, trace_type, pid)


@pytest.mark.parametrize("length", [0, 1, messages.HEADER_BYTES - 1])
def test_a_payload_shorter_than_a_header_is_a_value_error(length):
    writer = StoreWriter("s")
    with pytest.raises(ValueError, match=r"\b%d bytes" % length):
        writer.append(b"\x01" * length)
    with pytest.raises(ValueError, match=r"\b%d bytes" % length):
        writer.append_many([(_header(), 0), (b"\x01" * length, 0), (_header(), 0)])
    # The record before the short one stayed queued; nothing after it.
    assert writer.records_appended == 1
    writer.close()
    store = collect_ops({}, writer)
    (data,) = store.values()
    assert sformat.parse_footer(bytes(data))["records"] == 1


@pytest.mark.parametrize("extra", [0, 1, 3])
def test_a_header_only_payload_indexes_as_pid_0(extra):
    bare = _header()[: messages.HEADER_BYTES + extra]
    single = StoreWriter("s")
    single.append(bare)
    single.close()
    batched = StoreWriter("s")
    batched.append_many([(bare, 0)])
    batched.close()
    ops = single.pending_ops()
    assert ops == batched.pending_ops()
    data = b"".join(op[2] for op in ops if op[0] == "write")
    footer = sformat.parse_footer(data)
    assert footer["pids"] == {"2:0": 1}
    assert footer["machines"] == {"2": 1}
    assert (footer["t_min"], footer["t_max"]) == (70, 70)
    assert footer["events"] == {"send": 1}


def test_a_segment_of_markers_only_has_no_time_bounds():
    writer = StoreWriter("s")
    writer.append_marker(messages.encode_batch_marker(1, 2, 3))
    writer.close()
    store = collect_ops({}, writer)
    footer = sformat.parse_footer(bytes(store["s.seg00000"]))
    assert footer["records"] == 0
    assert (footer["t_min"], footer["t_max"]) == (None, None)
    assert StoreReader.from_bytes(store).records() == []
