"""Unit tests for the Appendix-A meter message codecs."""

import pytest

from repro.metering import messages
from repro.metering.messages import (
    EVENT_TYPES,
    HEADER_BYTES,
    MessageCodec,
    decode_stream,
    message_length,
    peek_size,
)
from repro.net.addresses import InternetName, PairName, UnixName


@pytest.fixture
def codec():
    return MessageCodec({1: "red", 2: "green"})


def test_header_is_24_bytes():
    assert HEADER_BYTES == 24


def test_struct_sizes_match_the_c_layouts():
    """4-byte longs, 16-byte NAMEs, as in the Appendix-A structs."""
    assert message_length("send") == 24 + 5 * 4 + 16  # 60
    assert message_length("receive") == 60
    assert message_length("accept") == 24 + 6 * 4 + 32  # 80
    assert message_length("connect") == 24 + 5 * 4 + 32  # 76
    assert message_length("dup") == 24 + 16
    assert message_length("fork") == 24 + 12
    assert message_length("receivecall") == 24 + 12
    assert message_length("socket") == 24 + 24
    assert message_length("termproc") == 24 + 12
    assert message_length("destsocket") == 24 + 12


def test_send_is_trace_type_1_accept_is_8():
    """Figure 3.2 shows SEND as type 1; the Figure 3.4 rule
    "type=8, sockName=peerName" is accept-shaped."""
    assert EVENT_TYPES["send"] == 1
    assert EVENT_TYPES["accept"] == 8


def test_send_round_trip(codec):
    dest = InternetName("green", 7777, 2)
    raw = codec.encode(
        "send",
        machine=1,
        cpu_time=1234,
        proc_time=50,
        pid=2117,
        pc=42,
        sock=0x1010,
        msgLength=100,
        destName=dest,
        **codec.name_lengths(destName=dest)
    )
    assert len(raw) == message_length("send")
    record = codec.decode(raw)
    assert record["event"] == "send"
    assert record["machine"] == 1
    assert record["cpuTime"] == 1234
    assert record["procTime"] == 50
    assert record["pid"] == 2117
    assert record["pc"] == 42
    assert record["sock"] == 0x1010
    assert record["msgLength"] == 100
    assert record["destNameLen"] == 8
    assert record["destName"] == "inet:green:7777"


def test_accept_round_trip_with_two_names(codec):
    sock_name = InternetName("red", 5000, 1)
    peer_name = InternetName("green", 1024, 2)
    raw = codec.encode(
        "accept",
        machine=1,
        cpu_time=10,
        proc_time=0,
        pid=2117,
        pc=3,
        sock=0x1000,
        newSock=0x1010,
        sockName=sock_name,
        peerName=peer_name,
        **codec.name_lengths(sockName=sock_name, peerName=peer_name)
    )
    record = codec.decode(raw)
    assert record["sockName"] == "inet:red:5000"
    assert record["peerName"] == "inet:green:1024"
    assert record["newSock"] == 0x1010


def test_missing_name_encodes_zero_length(codec):
    """A stream write has no recipient name: "the length of the name is
    specified as zero" (Section 4.1)."""
    raw = codec.encode(
        "send",
        machine=1,
        cpu_time=0,
        proc_time=0,
        pid=1,
        pc=1,
        sock=1,
        msgLength=10,
        destName=None,
        **codec.name_lengths(destName=None)
    )
    record = codec.decode(raw)
    assert record["destNameLen"] == 0
    assert record["destName"] == ""


def test_unix_and_pair_names_survive(codec):
    for name, expect in (
        (UnixName("/usr/tmp/a"), "unix:/usr/tmp/a"),
        (PairName(7), "pair:7"),
    ):
        raw = codec.encode(
            "connect",
            machine=1,
            cpu_time=0,
            proc_time=0,
            pid=1,
            pc=1,
            sock=1,
            sockName=name,
            peerName=None,
            **codec.name_lengths(sockName=name, peerName=None)
        )
        assert codec.decode(raw)["sockName"] == expect


def test_all_event_types_round_trip(codec):
    for event in EVENT_TYPES:
        body = {
            name: 3 for name, kind in messages.BODY_FIELDS[event] if kind == "long"
        }
        raw = codec.encode(event, machine=2, cpu_time=9, proc_time=0, **body)
        record = codec.decode(raw)
        assert record["event"] == event
        assert record["size"] == message_length(event) == len(raw)


def test_decode_rejects_short_and_truncated(codec):
    raw = codec.encode(
        "fork", machine=1, cpu_time=0, proc_time=0, pid=1, pc=1, newPid=2
    )
    with pytest.raises(ValueError):
        codec.decode(raw[:10])
    with pytest.raises(ValueError):
        codec.decode(raw[:-2])


def test_decode_rejects_unknown_trace_type(codec):
    raw = bytearray(
        codec.encode(
            "fork", machine=1, cpu_time=0, proc_time=0, pid=1, pc=1, newPid=2
        )
    )
    raw[20:24] = (77).to_bytes(4, "big")
    with pytest.raises(ValueError):
        codec.decode(bytes(raw))


def test_batch_marker_roundtrip(codec):
    raw = messages.encode_batch_marker(3, 2117, 9)
    assert len(raw) == messages.MARKER_BYTES
    assert messages.is_batch_marker(raw)
    assert messages.parse_batch_marker(raw) == (3, 2117, 9)
    record = codec.decode(raw)
    assert record["event"] == "batchmark"
    assert record["pid"] == 2117
    assert record["seq"] == 9
    assert record["traceType"] == messages.BATCH_MARKER_TYPE


def test_decode_stream_skips_batch_markers(codec):
    event = codec.encode(
        "fork", machine=1, cpu_time=0, proc_time=0, pid=1, pc=1, newPid=2
    )
    raw = messages.encode_batch_marker(1, 1, 0) + event
    records, leftover = messages.decode_stream(raw, codec)
    assert leftover == b""
    assert [r["event"] for r in records] == ["fork"]


def test_peek_size(codec):
    raw = codec.encode(
        "fork", machine=1, cpu_time=0, proc_time=0, pid=1, pc=1, newPid=2
    )
    assert peek_size(raw) == len(raw)
    assert peek_size(b"\x00\x00") is None


def test_decode_stream_splits_concatenated_messages(codec):
    one = codec.encode(
        "fork", machine=1, cpu_time=0, proc_time=0, pid=1, pc=1, newPid=2
    )
    two = codec.encode(
        "receivecall", machine=1, cpu_time=1, proc_time=0, pid=1, pc=2, sock=5
    )
    records, leftover = decode_stream(one + two, codec)
    assert [r["event"] for r in records] == ["fork", "receivecall"]
    assert leftover == b""


def test_decode_stream_keeps_partial_tail(codec):
    one = codec.encode(
        "fork", machine=1, cpu_time=0, proc_time=0, pid=1, pc=1, newPid=2
    )
    records, leftover = decode_stream(one + one[:7], codec)
    assert len(records) == 1
    assert leftover == one[:7]


def test_field_layout_matches_figure_3_2_send_line():
    """Figure 3.2: pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10
    destNameLen,16,4,10 destName,20,16,16."""
    layout = messages.field_layout("send")
    assert layout == [
        ("pid", 0, 4, 10),
        ("pc", 4, 4, 10),
        ("sock", 8, 4, 10),
        ("msgLength", 12, 4, 10),
        ("destNameLen", 16, 4, 10),
        ("destName", 20, 16, 16),
    ]


def test_precompiled_structs_agree_with_field_tables():
    """The whole-message struct per event must be exactly header +
    body as declared in BODY_FIELDS, or encode/decode silently shift."""
    from repro.metering.messages import (
        _EVENT_STRUCTS,
        HEADER_BYTES,
        body_length,
        message_length,
    )

    for event in EVENT_TYPES:
        assert _EVENT_STRUCTS[event].size == HEADER_BYTES + body_length(event)
        assert message_length(event) == _EVENT_STRUCTS[event].size


@pytest.mark.parametrize(
    "record",
    [{"event": "bogus", "pid": 1}, {"pid": 1}, {"traceType": 42, "pid": 1}],
    ids=["unknown-event", "no-type", "unknown-traceType"],
)
def test_encode_record_rejects_a_non_appendix_a_record(codec, record):
    """Like decode and wire_layout: ValueError, not a bare KeyError."""
    with pytest.raises(ValueError, match="not an Appendix-A record"):
        codec.encode_record(record)
