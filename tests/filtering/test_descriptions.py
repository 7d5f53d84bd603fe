"""Event record descriptions (Figure 3.2)."""

import pytest

from repro.filtering.descriptions import (
    default_description_set,
    default_descriptions_text,
    parse_descriptions,
)
from repro.metering.messages import EVENT_TYPES, MessageCodec
from repro.net.addresses import InternetName


def test_default_text_parses():
    ds = parse_descriptions(default_descriptions_text())
    assert set(ds.by_type) == set(EVENT_TYPES.values())


def test_default_text_has_figure_3_2_send_line():
    text = default_descriptions_text()
    send_lines = [l for l in text.splitlines() if l.startswith("SEND")]
    assert send_lines == [
        "SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 "
        "destNameLen,16,4,10 destName,20,16,16"
    ]


def test_header_line_lists_standard_fields():
    text = default_descriptions_text()
    assert text.splitlines()[0] == "HEADER size machine cpuTime procTime traceType"


def test_descriptions_decode_matches_codec_decode():
    """The filter's description-driven decode and the kernel codec must
    agree on every field -- this IS the meter/filter protocol."""
    codec = MessageCodec({1: "red", 2: "green"})
    ds = default_description_set()
    dest = InternetName("green", 7777, 2)
    raw = codec.encode(
        "send",
        machine=1,
        cpu_time=55,
        proc_time=10,
        pid=2117,
        pc=9,
        sock=0x2030,
        msgLength=64,
        destName=dest,
        **codec.name_lengths(destName=dest)
    )
    via_codec = codec.decode(raw)
    via_descriptions = ds.decode_message(raw, {1: "red", 2: "green"})
    for key in ("machine", "cpuTime", "procTime", "pid", "pc", "sock",
                "msgLength", "destNameLen", "destName", "event"):
        assert via_descriptions[key] == via_codec[key], key


def test_all_events_decodable_via_descriptions():
    codec = MessageCodec()
    ds = default_description_set()
    from repro.metering import messages

    for event in EVENT_TYPES:
        body = {
            name: 5 for name, kind in messages.BODY_FIELDS[event] if kind == "long"
        }
        raw = codec.encode(event, machine=1, cpu_time=1, proc_time=0, **body)
        record = ds.decode_message(raw)
        assert record["event"] == event
        for name in body:
            assert record[name] == 5


def test_unknown_trace_type_raises():
    ds = default_description_set()
    raw = bytearray(60)
    raw[0:4] = (60).to_bytes(4, "big")
    raw[20:24] = (77).to_bytes(4, "big")
    with pytest.raises(ValueError):
        ds.decode_message(bytes(raw))


def test_bad_field_spec_raises():
    with pytest.raises(ValueError):
        parse_descriptions("SEND 1, pid,0,4\n")


def test_custom_description_subset():
    """A user can describe only the fields they care about."""
    ds = parse_descriptions("SEND 1, pid,0,4,10 msgLength,12,4,10\n")
    codec = MessageCodec()
    raw = codec.encode(
        "send",
        machine=1,
        cpu_time=0,
        proc_time=0,
        pid=7,
        pc=1,
        sock=2,
        msgLength=99,
        destName=None,
        destNameLen=0,
    )
    record = ds.decode_message(raw)
    assert record["pid"] == 7
    assert record["msgLength"] == 99
    assert "sock" not in record


def test_field_order_headers_first():
    ds = default_description_set()
    order = ds.field_order("send")
    assert order[:6] == ["event", "size", "machine", "cpuTime", "procTime", "traceType"]
    assert order[6:] == ["pid", "pc", "sock", "msgLength", "destNameLen", "destName"]


def _wire_of(codec, event, name):
    """One wire message of ``event`` with every long and NAME set."""
    from repro.metering import messages

    body, names = {}, {}
    for i, (field, kind) in enumerate(messages.BODY_FIELDS[event]):
        if kind == "name":
            names[field] = name
        elif not field.endswith("NameLen"):
            body[field] = -3 if field == "status" else 7 + i
    body.update(names)
    body.update(codec.name_lengths(**names))
    return codec.encode(event, machine=2, cpu_time=50, proc_time=10, **body)


def test_compiled_body_decode_matches_per_field_decode():
    """The shipped (Appendix-A) set decodes through the generated lane;
    it must read exactly what the description file interpreted field by
    field reads -- same values, same key order -- on every event."""
    hosts = {1: "red", 2: "green", 3: "blue"}
    ds = default_description_set()
    assert ds.appendix_a
    codec = MessageCodec(hosts)
    name = InternetName("green", 5100, 2)
    for event in EVENT_TYPES:
        raw = _wire_of(codec, event, name)
        fast = ds.decode_message(raw, hosts)
        reference = ds.decode_per_field(raw, hosts)
        assert fast == reference == codec.decode(raw)
        assert list(fast) == list(reference)
        # Another host table is another set of display strings.
        assert ds.decode_message(raw, {}) == ds.decode_per_field(raw, {})
        # The size header frames the message; trailing bytes beyond
        # the described layout are not the decoder's business.
        assert ds.decode_message(raw + b"\x00" * 8, hosts) == reference


def test_truncated_message_raises_on_both_lanes():
    """A message shorter than its event's layout is malformed, not a
    record of zeros."""
    codec = MessageCodec()
    raw = _wire_of(codec, "socket", None)
    short = (34).to_bytes(4, "big") + raw[4:34]
    ds = default_description_set()
    with pytest.raises(ValueError):
        ds.decode_message(short)
    with pytest.raises(ValueError):
        ds.decode_per_field(short)
    with pytest.raises(ValueError):
        codec.decode(short)
    # A NAME blob cut short is just as malformed as a missing long.
    send = _wire_of(codec, "send", InternetName("red", 1, 1))
    for lane in (ds.decode_message, ds.decode_per_field):
        with pytest.raises(ValueError):
            lane(send[:-1])


def test_irregular_description_falls_back_to_per_field_decode():
    """Edited descriptions are a different protocol: a subset, a 3-byte
    field or overlapping fields all take the per-field lane, which
    reads the file literally."""
    import struct

    codec = MessageCodec()
    subset = parse_descriptions("SEND 1, pid,0,4,10 msgLength,12,4,10\n")
    assert not subset.appendix_a
    raw = codec.encode(
        "send", machine=1, cpu_time=0, proc_time=0,
        pid=9, pc=1, sock=2, msgLength=77, destName=None, destNameLen=0,
    )
    record = subset.decode_message(raw)
    assert record == subset.decode_per_field(raw)
    assert (record["pid"], record["msgLength"]) == (9, 77)
    assert "sock" not in record

    ds = parse_descriptions("SEND 1, weird,1,3,10\n")
    assert not ds.appendix_a
    header = struct.pack(">ih2xi4xii", 64, 1, 50, 10, 1)
    raw = header + b"\x00\x01\x02\x03\x04\x05" + b"\x00" * 34
    record = ds.decode_message(raw)
    assert record["weird"] == 0x010203

    overlap = parse_descriptions("SEND 1, a,0,4,10 b,2,4,10\n")
    assert not overlap.appendix_a
    record = overlap.decode_message(raw)
    assert record["a"] == 0x00010203
    assert record["b"] == 0x02030405

    # The shipped file plus one event type of the user's own is edited
    # too: the generated lane knows nothing about type 42.
    extended = parse_descriptions(
        default_descriptions_text() + "MYEVENT 42, pid,0,4,10\n"
    )
    assert not extended.appendix_a
    mine = struct.pack(">ih2xi4xii", 28, 1, 50, 10, 42) + (5).to_bytes(4, "big")
    assert extended.decode_message(mine)["pid"] == 5
