"""Byte-level invariants of the segment format."""

import pytest

from repro.metering.messages import EVENT_TYPES, MessageCodec, record_fields
from repro.tracestore import format as sformat

HOSTS = {1: "red", 2: "green"}
SEND = EVENT_TYPES["send"]
RECEIVE = EVENT_TYPES["receive"]


def _send(codec, i=0, machine=1, cpu_time=100):
    return codec.encode(
        "send",
        machine=machine,
        cpu_time=cpu_time,
        proc_time=10,
        pid=42,
        pc=i,
        sock=3,
        msgLength=64,
        destNameLen=0,
        destName=None,
    )


def test_segment_header_round_trip():
    header = sformat.segment_header()
    assert len(header) == sformat.SEGMENT_HEADER_BYTES
    assert sformat.parse_segment_header(header) == sformat.FORMAT_VERSION


def test_segment_header_rejects_junk():
    with pytest.raises(ValueError):
        sformat.parse_segment_header(b"NOPE\x00\x01\x00\x00")
    with pytest.raises(ValueError):
        sformat.parse_segment_header(b"RT")


def test_frames_round_trip_including_empty_payload():
    payloads = [b"", b"x", b"y" * 300]
    data = b"".join(sformat.encode_frame(p, mask=i) for i, p in enumerate(payloads))
    out = list(sformat.iter_frames(data, 0, len(data)))
    assert [(mask, payload) for __, mask, payload in out] == [
        (0, b""), (1, b"x"), (2, b"y" * 300)
    ]


def test_torn_tail_frame_is_dropped_not_fatal():
    data = sformat.encode_frame(b"whole") + sformat.encode_frame(b"torn-off")[:-3]
    out = list(sformat.iter_frames(data, 0, len(data)))
    assert [payload for __, __, payload in out] == [b"whole"]


def test_footer_round_trip():
    codec = MessageCodec(HOSTS)
    stats = sformat.SegmentStats(HOSTS)
    offset = sformat.SEGMENT_HEADER_BYTES
    for i in range(5):
        raw = _send(codec, i, machine=1 + i % 2, cpu_time=50 + i)
        stats.add(SEND, 1 + i % 2, 42, 50 + i, offset)
        offset += len(sformat.encode_frame(raw))
    footer = stats.footer(sformat.SEGMENT_HEADER_BYTES, offset)
    blob = sformat.encode_footer(footer)
    data = sformat.segment_header() + b"\x00" * 64 + blob
    parsed = sformat.parse_footer(data)
    assert parsed == footer
    assert parsed["records"] == 5
    assert parsed["t_min"] == 50 and parsed["t_max"] == 54
    assert parsed["machines"] == {"1": 3, "2": 2}
    assert parsed["pids"] == {"1:42": 3, "2:42": 2}
    assert parsed["hosts"] == {"1": "red", "2": "green"}


def test_corrupt_footer_reads_as_unsealed():
    stats = sformat.SegmentStats()
    stats.add(SEND, 1, 42, 10, 8)
    blob = sformat.encode_footer(stats.footer(8, 40))
    data = bytearray(sformat.segment_header() + b"\x00" * 32 + blob)
    data[-20] ^= 0xFF  # flip a footer byte: crc must catch it
    assert sformat.parse_footer(bytes(data)) is None
    assert sformat.parse_footer(b"") is None
    assert sformat.parse_footer(sformat.segment_header()) is None


def test_footer_matches_pushdown_predicates():
    stats = sformat.SegmentStats()
    stats.add(SEND, 1, 42, 100, 8)
    stats.add(RECEIVE, 2, 7, 200, 60)
    footer = stats.footer(8, 120)
    assert sformat.footer_matches(footer)
    assert sformat.footer_matches(footer, machines=[1])
    assert not sformat.footer_matches(footer, machines=[3])
    assert sformat.footer_matches(footer, events=["receive"])
    assert not sformat.footer_matches(footer, events=["fork"])
    assert sformat.footer_matches(footer, pids=[(2, 7)])
    assert not sformat.footer_matches(footer, pids=[(1, 7)])
    assert sformat.footer_matches(footer, t_min=150, t_max=250)
    assert not sformat.footer_matches(footer, t_min=201)
    assert not sformat.footer_matches(footer, t_max=99)


def test_discard_mask_round_trip():
    fields = record_fields("send")
    mask = sformat.discard_mask("send", {"pc", "destName"})
    assert sformat.masked_fields("send", mask) == ["pc", "destName"]
    assert sformat.masked_fields("send", 0) == []
    assert fields.index("pc") in [i for i in range(32) if mask & (1 << i)]


def test_zero_masked_bytes_zeroes_only_masked_fields():
    codec = MessageCodec(HOSTS)
    raw = _send(codec, i=9, cpu_time=77)
    mask = sformat.discard_mask("send", {"pc", "cpuTime"})
    zeroed = sformat.zero_masked_bytes(raw, "send", mask)
    record = codec.decode(zeroed)
    assert record["pc"] == 0 and record["cpuTime"] == 0
    # Unmasked fields survive untouched.
    assert record["pid"] == 42 and record["msgLength"] == 64
    assert record["traceType"] == codec.decode(raw)["traceType"]
    assert len(zeroed) == len(raw)
    # size and traceType are never zeroed, even if named.
    keep = sformat.zero_masked_bytes(
        raw, "send", sformat.discard_mask("send", {"size", "traceType"})
    )
    assert codec.decode(keep)["size"] == record["size"]
