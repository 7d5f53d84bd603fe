"""Property tests: the encoder's C-level fast path gives what the
per-field encoder gives.

``record_encoder(event)`` packs a whole record with one ``itemgetter``
and one ``Struct.pack`` and hands anything else to
``field_encoder(event)``, the per-field loop it wraps.  Over records of
all ten events -- fields absent, None, bools, floats, numeric and junk
strings, ints out of range, extra keys, every kind of NAME value --
both must return the same ``(payload, mask)`` or raise the same type
of error."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metering.messages import (
    BODY_FIELDS,
    EVENT_TYPES,
    MessageCodec,
    field_encoder,
    record_encoder,
    record_fields,
)
from repro.net.addresses import InternetName, PairName, UnixName

HOSTS = {1: "red", 2: "green", 3: "blue"}

_socket_names = st.one_of(
    st.builds(
        lambda host_id, port: InternetName(HOSTS[host_id], port, host_id),
        host_id=st.sampled_from(sorted(HOSTS)),
        port=st.integers(min_value=1, max_value=65535),
    ),
    st.builds(UnixName, path=st.text(alphabet="abc/._", min_size=1, max_size=14)),
    st.builds(PairName, unique_id=st.integers(min_value=1, max_value=2**31 - 1)),
)

_names = st.one_of(
    st.none(),
    st.just(""),
    _socket_names,
    st.builds(
        "inet:{0}:{1}".format,
        st.sampled_from(["red", "blue", "nosuchhost", "7"]),
        st.integers(min_value=0, max_value=70000),
    ),
    st.builds("unix:{0}".format, st.text(alphabet="ab/.", min_size=1, max_size=14)),
    st.builds("pair:{0}".format, st.integers(min_value=1, max_value=2**31 - 1)),
    st.sampled_from(["junk", "inet:", "inet:red:", "unix:", "pair:x"]),
)

_longs = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**15), max_value=2**15 - 1),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.integers(min_value=2**31, max_value=2**40),
    st.integers(min_value=-(2**40), max_value=-(2**31) - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(str),
    st.sampled_from(["", "0", "12", " 7 ", "x", "1.5", "0x10"]),
)

#: Longs every field's struct code takes (machine is a short).
_clean_longs = st.integers(min_value=-(2**15), max_value=2**15 - 1)

_ABSENT = object()


@st.composite
def _records(draw):
    """A record of ``event``: whole and clean (ints and NAMEs, as the
    live meter and a full text log write them), whole with any values,
    or with any fields absent; sometimes with extra keys."""
    event = draw(st.sampled_from(sorted(EVENT_TYPES)))
    kinds = dict(BODY_FIELDS[event])
    shape = draw(st.sampled_from(["clean", "whole", "any"]))
    record = {}
    for field in record_fields(event):
        if field in ("size", "traceType"):
            values = st.sampled_from([EVENT_TYPES[event], 0, "junk"])
        elif kinds.get(field) == "name":
            values = _names
        else:
            values = _clean_longs if shape == "clean" else _longs
        if shape == "any":
            values = st.one_of(values, st.just(_ABSENT))
        value = draw(values)
        if value is not _ABSENT:
            record[field] = value
    if shape == "clean" and draw(st.booleans()):
        # One field spoilt or dropped.
        field = draw(st.sampled_from(sorted(record)))
        value = draw(st.one_of(_longs, st.just(_ABSENT)))
        if value is _ABSENT:
            del record[field]
        else:
            record[field] = value
    if draw(st.booleans()):
        record["event"] = event
    for key in draw(st.lists(st.sampled_from(["extra", "seq", "note"]), max_size=2)):
        record[key] = draw(st.one_of(st.integers(), st.text(max_size=3)))
    return event, record


def _outcome(enc, record, name):
    try:
        return enc(record, name)
    except Exception as err:  # noqa: BLE001 - the type is the outcome
        return type(err)


@given(_records())
@settings(max_examples=600)
def test_fast_path_matches_the_per_field_encoder(drawn):
    event, record = drawn
    name = MessageCodec(HOSTS).name_wire_bytes
    expected = _outcome(field_encoder(event), record, name)
    assert _outcome(record_encoder(event), record, name) == expected
    # The codec's NAME memo is warm now: a second call agrees too.
    assert _outcome(record_encoder(event), record, name) == expected


@given(st.sampled_from(sorted(EVENT_TYPES)), st.data())
@settings(max_examples=200)
def test_whole_records_take_the_fast_path(event, data):
    """A whole record of ints and NAMEs is encoded in one pass: each
    NAME goes through ``name`` once (a fallback would map it twice),
    and the mask is 0 or just the traceType bit."""
    kinds = dict(BODY_FIELDS[event])
    record = {}
    for field in record_fields(event):
        if kinds.get(field) == "name":
            record[field] = data.draw(st.one_of(st.none(), _socket_names))
        elif field == "machine":
            record[field] = data.draw(st.integers(min_value=0, max_value=2**15 - 1))
        else:
            record[field] = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    if data.draw(st.booleans()):
        del record["traceType"]
    name = MessageCodec(HOSTS).name_wire_bytes
    calls = []

    def counting_name(value):
        calls.append(value)
        return name(value)

    payload, mask = record_encoder(event)(record, counting_name)
    assert (payload, mask) == field_encoder(event)(record, name)
    assert mask == (0 if "traceType" in record else 1 << 4)
    # Each NAME went through ``name`` once: no second, per-field pass.
    names = [f for f, kind in BODY_FIELDS[event] if kind == "name"]
    assert len(calls) == len(names)
