"""Property tests: the one generated encoder gives what the per-field
encoder gives.

``shape_encoder(event, keys)`` packs a record whose keys are ``keys``
with one ``itemgetter`` and one ``Struct.pack``, the absent fields and
the mask being constants of the shape, and hands anything else to
``field_encoder(event)``, the per-field loop it wraps;
``record_encoder(event)`` is the shape of a whole record, kept per
event.  Over records of all ten events -- fields absent, None, bools,
floats, numeric and junk strings, ints out of range, extra keys, every
kind of NAME value -- each must return the same ``(payload, mask)`` as
``field_encoder`` or raise the same type of error.  The pack's
``wire_pairs`` asks for a reduced shape only when a record has fewer
keys than a whole one."""

import sys
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metering import messages
from repro.metering.messages import (
    BODY_FIELDS,
    EVENT_TYPES,
    SHAPE_ENCODERS_MAX,
    WHOLE_RECORD_KEYS,
    MessageCodec,
    field_encoder,
    record_encoder,
    record_fields,
    shape_encoder,
)
from repro.net.addresses import InternetName, PairName, UnixName
from repro.tracestore import convert
from repro.tracestore.convert import wire_pairs

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
    with any fields absent, or clean with a whole record's key count
    where an extra key stands in for ``traceType`` or a dropped field;
    sometimes with extra keys."""
    event = draw(st.sampled_from(sorted(EVENT_TYPES)))
    kinds = dict(BODY_FIELDS[event])
    shape = draw(st.sampled_from(["clean", "whole", "any", "stand-in"]))
    record = {}
    for field in record_fields(event):
        if field in ("size", "traceType"):
            values = st.sampled_from([EVENT_TYPES[event], 0, "junk"])
        elif kinds.get(field) == "name":
            values = _names
        else:
            values = _clean_longs if shape in ("clean", "stand-in") else _longs
        if shape == "any":
            values = st.one_of(values, st.just(_ABSENT))
        value = draw(values)
        if value is not _ABSENT:
            record[field] = value
    if shape == "stand-in":
        missing = draw(st.one_of(
            st.just("traceType"), st.sampled_from(record_fields(event))
        ))
        del record[missing]
        record["event"] = event
        record[draw(st.sampled_from(["extra", "seq", "note"]))] = 0
        assert len(record) == WHOLE_RECORD_KEYS[event]
        return event, record
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


# The first full-Unicode ``st.text()`` draw builds Hypothesis's charmap
# cache, which outlasts the too_slow budget in a fresh checkout.
@given(_records())
@settings(max_examples=600, suppress_health_check=[HealthCheck.too_slow])
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
    NAME goes through ``name`` once (a fallback after ``pack`` would
    map it twice; one without ``traceType`` falls back at the fetch,
    before any), and the mask is 0 or just the traceType bit."""
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


@st.composite
def _reduced_records(draw):
    """A record of ``event`` with a random subset of its fields (the
    header's and ``event`` included), any values, sometimes extra
    keys, in a random key order."""
    event = draw(st.sampled_from(sorted(EVENT_TYPES)))
    kinds = dict(BODY_FIELDS[event])
    fields = record_fields(event) + ["event"]
    kept = draw(st.lists(st.sampled_from(fields), unique=True))
    record = {}
    for field in kept:
        if field in ("size", "traceType"):
            values = st.sampled_from([EVENT_TYPES[event], 0, "junk", None])
        elif field == "event":
            values = st.just(event)
        elif kinds.get(field) == "name":
            values = _names
        else:
            values = st.one_of(_clean_longs, _longs)
        record[field] = draw(values)
    if "event" not in record and "traceType" in record:
        record["traceType"] = EVENT_TYPES[event]  # the record names its event
    for key in draw(st.lists(st.sampled_from(["extra", "seq", "note"]), max_size=2)):
        record[key] = draw(st.one_of(st.integers(), st.text(max_size=3)))
    return event, record


@given(_reduced_records())
@settings(max_examples=600)
def test_shape_lane_matches_the_per_field_encoder(drawn):
    event, record = drawn
    codec = MessageCodec(HOSTS)
    name = codec.name_wire_bytes
    expected = _outcome(field_encoder(event), record, name)
    enc = shape_encoder(event, tuple(record))
    assert _outcome(enc, record, name) == expected
    assert _outcome(enc, record, name) == expected  # NAME memo warm
    # And as the pack routes it: a record that names its event.
    if "event" in record or "traceType" in record:
        try:
            got = wire_pairs([record], codec)
        except Exception as err:  # noqa: BLE001 - the type is the outcome
            got = type(err)
        assert got == (expected if isinstance(expected, type) else [expected])


@given(_records())
@settings(max_examples=300)
def test_whole_records_never_enter_the_shape_lane(drawn):
    """``wire_pairs`` routes by one ``len()`` test: a record with every
    field and ``event`` (extra keys or not) goes to ``record_encoder``,
    the whole shape, and the meter's ``encode`` never asks for any
    other shape."""
    event, record = drawn
    whole = (event, tuple(record_fields(event)))
    codec = MessageCodec(HOSTS)
    spy = mock.Mock(side_effect=shape_encoder)
    with mock.patch.object(convert, "shape_encoder", spy), \
            mock.patch.object(messages, "shape_encoder", spy):
        record["event"] = event
        try:
            wire_pairs([record], codec)
        except Exception:  # noqa: BLE001 - only the route is checked here
            pass
        reduced = [c.args for c in spy.call_args_list if c.args != whole]
        # Every field and ``event`` present: at least the whole count.
        assert bool(reduced) == (len(record) < WHOLE_RECORD_KEYS[event])
        spy.reset_mock()
        body = {
            field: 0 if kind == "long" else None
            for field, kind in BODY_FIELDS[event]
        }
        codec.encode(event, 1, 2, 3, **body)
        assert all(c.args == whole for c in spy.call_args_list)


def test_meter_encode_never_reaches_the_per_field_encoder():
    """The meter's body carries ``traceType``, so it is a whole shape:
    ``encode`` of every event, NAMEs present or not, runs
    ``field_encoder``'s generated code for none of them."""
    codec = MessageCodec(HOSTS)
    per_field = {field_encoder(event).__code__ for event in BODY_FIELDS}
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in per_field:
            runs.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for event, fields in BODY_FIELDS.items():
            for peer in (None, InternetName("red", 6100, 1)):
                body = {
                    field: 5 if kind == "long" else peer
                    for field, kind in fields
                }
                codec.encode(event, 1, 2, 3, **body)
    finally:
        sys.setprofile(previous)
    assert runs == []


def test_shape_caches_are_bounded():
    """More distinct shapes than the cache holds: the module cache
    keeps :data:`SHAPE_ENCODERS_MAX` of them, one ``wire_pairs``
    generates code for at most that many and hands the rest to
    ``field_encoder``, and every pair is still ``field_encoder``'s."""
    codec = MessageCodec(HOSTS)
    records = []
    for i in range(SHAPE_ENCODERS_MAX + 40):
        record = {
            "event": "send", "machine": 1, "cpuTime": i, "pid": 7,
            "destName": "inet:red:%d" % (6000 + i),
        }
        record["x%d" % i] = i  # a shape of its own
        records.append(record)
    encoders = {}
    pairs = wire_pairs(records, codec, encoders)
    slow = field_encoder("send")
    assert pairs == [slow(record, codec.name_wire_bytes) for record in records]
    assert len(encoders) == SHAPE_ENCODERS_MAX
    assert len(messages._SHAPE_ENCODERS) <= SHAPE_ENCODERS_MAX
    for record in records:
        enc = shape_encoder("send", tuple(record))
        assert enc(record, codec.name_wire_bytes) == slow(
            record, codec.name_wire_bytes
        )
    assert len(messages._SHAPE_ENCODERS) == SHAPE_ENCODERS_MAX
