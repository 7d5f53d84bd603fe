"""Property tests: the Appendix-A decoder reads arbitrary messages,
bare and store-framed, exactly as the description file read field by
field does, and framing never corrupts a stream."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering.descriptions import default_description_set
from repro.metering import messages
from repro.metering.messages import EVENT_TYPES, MessageCodec, decode_stream
from repro.net.addresses import InternetName, PairName, UnixName

HOSTS = {1: "red", 2: "green", 3: "blue", 4: "yellow"}

def _inet_name(host_id, port):
    # The wire form carries only the host id; keep host consistent.
    return InternetName(HOSTS[host_id], port, host_id)


_names = st.one_of(
    st.none(),
    st.builds(
        _inet_name,
        host_id=st.sampled_from(sorted(HOSTS)),
        port=st.integers(min_value=1, max_value=65535),
    ),
    st.builds(
        UnixName,
        path=st.text(
            alphabet="abcdefghij/._", min_size=1, max_size=14
        ),
    ),
    st.builds(PairName, unique_id=st.integers(min_value=1, max_value=2**31 - 1)),
)


def _message_strategy():
    longs = st.integers(min_value=-(2**31), max_value=2**31 - 1)

    @st.composite
    def build(draw):
        event = draw(st.sampled_from(sorted(EVENT_TYPES)))
        body = {}
        names = {}
        for field, kind in messages.BODY_FIELDS[event]:
            if kind == "long":
                if field.endswith("NameLen"):
                    continue  # derived below
                body[field] = draw(longs)
            else:
                names[field] = draw(_names)
        codec = MessageCodec(HOSTS)
        body.update(names)
        body.update(codec.name_lengths(**names))
        header = {
            "machine": draw(st.sampled_from(sorted(HOSTS))),
            "cpu_time": draw(st.integers(min_value=0, max_value=2**31 - 1)),
            "proc_time": draw(st.integers(min_value=0, max_value=10**6)),
        }
        return event, header, body

    return build()


@given(_message_strategy())
@settings(max_examples=200)
def test_encode_decode_round_trip(message):
    event, header, body = message
    codec = MessageCodec(HOSTS)
    raw = codec.encode(event, **dict(header, **body))
    record = codec.decode(raw)
    assert record["event"] == event
    assert record["machine"] == header["machine"]
    assert record["cpuTime"] == header["cpu_time"]
    assert record["procTime"] == header["proc_time"]
    for field, kind in messages.BODY_FIELDS[event]:
        if kind == "long":
            assert record[field] == body.get(field, 0) or field.endswith("NameLen")
        else:
            expected = body[field].display() if body[field] is not None else ""
            # UnixName paths are truncated to 14 bytes on the wire.
            if expected.startswith("unix:"):
                assert record[field] == "unix:" + expected[5:19]
            else:
                assert record[field] == expected


@given(
    _message_strategy(),
    st.binary(max_size=7),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100)
def test_codec_and_descriptions_always_agree(message, lead, mask, crc):
    """The codec, the description set's ``decode_message`` and the
    store's frame layout all run the one generated decoder; each reads
    exactly what the description file interpreted field by field
    (``decode_per_field``, the reference) reads -- same values, same
    key order."""
    event, header, body = message
    codec = MessageCodec(HOSTS)
    raw = codec.encode(event, **dict(header, **body))
    descriptions = default_description_set()
    reference = descriptions.decode_per_field(raw, HOSTS)
    via_codec = codec.decode(raw)
    via_descriptions = descriptions.decode_message(raw, HOSTS)
    for key, value in via_descriptions.items():
        if key == "size":
            continue
        assert via_codec[key] == value, key
    for record in (via_codec, via_descriptions):
        assert record == reference
        assert list(record) == list(reference)
    # The store-framed layout: the message behind a (length, mask,
    # crc32) frame header, at any offset in a buffer.
    buf = lead + struct.pack(">III", len(raw), mask, crc) + raw
    unpack, layouts = messages.frame_layout("III", len(raw))
    layout = layouts[EVENT_TYPES[event]]
    t = unpack(buf, len(lead))
    assert t[:3] == (len(raw), mask, crc)
    for name, index in layout.long_index.items():
        assert t[index] == reference[name], name
    framed = layout.mat(
        t, buf, len(lead) + layout.names_offset, messages.name_lookup(HOSTS)
    )
    assert framed == reference
    assert list(framed) == list(reference)


@given(st.lists(_message_strategy(), min_size=0, max_size=20), st.data())
@settings(max_examples=50)
def test_stream_framing_survives_arbitrary_chunking(batch, data):
    """Concatenate N messages, split at random boundaries, feed the
    chunks through incremental decode: same records out."""
    codec = MessageCodec(HOSTS)
    wire = b"".join(
        codec.encode(event, **dict(header, **body))
        for event, header, body in batch
    )
    # Random chunk boundaries.
    boundaries = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(wire)),
                max_size=10,
            )
        )
    )
    chunks = []
    prev = 0
    for boundary in boundaries + [len(wire)]:
        chunks.append(wire[prev:boundary])
        prev = boundary
    records = []
    buf = b""
    for chunk in chunks:
        buf += chunk
        recs, buf = decode_stream(buf, codec)
        records.extend(recs)
    assert buf == b""
    assert [r["event"] for r in records] == [event for event, __, __ in batch]
