"""Property tests: the generated per-event encoder is byte- and
mask-identical to the per-field loops it replaced.

The references below are those loops as they were: the live meter's
``MessageCodec.encode``, the pack's ``MessageCodec.encode_record`` and
the ``_MASK_BITS`` walk of ``tracestore.convert.wire_pairs``.  They
are deliberately naive (no memo, no generated code)."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metering import messages
from repro.metering.messages import (
    BODY_FIELDS,
    EVENT_NAMES,
    EVENT_TYPES,
    MessageCodec,
    record_encoder,
    record_fields,
)
from repro.net.addresses import (
    NO_NAME,
    InternetName,
    PairName,
    SocketName,
    UnixName,
    parse_name,
)
from repro.tracestore.convert import wire_pairs

HOSTS = {1: "red", 2: "green", 3: "blue"}
_LONGS = st.integers(min_value=-(2**31), max_value=2**31 - 1)


def _ref_display_wire_bytes(text, host_names):
    name = parse_name(text)
    if name is None:
        return NO_NAME
    if isinstance(name, InternetName) and name.host_id == 0:
        host_ids = {host: host_id for host_id, host in host_names.items()}
        host_id = host_ids.get(name.host)
        if host_id is None and name.host.isdigit():
            host_id = int(name.host)
        name.host_id = host_id or 0
    return name.wire_bytes()


def _ref_name_wire_bytes(value, host_names):
    if value is None or value == "":
        return NO_NAME
    if isinstance(value, SocketName):
        return value.wire_bytes()
    return _ref_display_wire_bytes(str(value), host_names)


def _ref_encode(event, machine, cpu_time, proc_time, **body):
    """The live meter's per-field encode loop."""
    packer = struct.Struct(messages._HEADER_FMT + "".join(
        "i" if kind == "long" else "16s" for __, kind in BODY_FIELDS[event]
    ))
    values = [packer.size, int(machine), int(cpu_time), int(proc_time),
              EVENT_TYPES[event]]
    for name, kind in BODY_FIELDS[event]:
        value = body.get(name)
        if kind == "long":
            values.append(int(value or 0))
        else:
            values.append(value.wire_bytes() if value is not None else NO_NAME)
    return packer.pack(*values)


def _ref_encode_record(record, host_names):
    """The pack's per-field encode_record loop."""
    event = record.get("event") or EVENT_NAMES[record["traceType"]]
    packer = struct.Struct(messages._HEADER_FMT + "".join(
        "i" if kind == "long" else "16s" for __, kind in BODY_FIELDS[event]
    ))
    values = [
        packer.size,
        int(record.get("machine") or 0),
        int(record.get("cpuTime") or 0),
        int(record.get("procTime") or 0),
        EVENT_TYPES[event],
    ]
    for name, kind in BODY_FIELDS[event]:
        if kind == "long":
            values.append(int(record.get(name) or 0))
        else:
            values.append(_ref_name_wire_bytes(record.get(name), host_names))
    return packer.pack(*values)


def _ref_mask(record):
    """The ``_MASK_BITS`` walk: every field but ``size`` the record
    lacks."""
    event = record.get("event") or EVENT_NAMES.get(record.get("traceType"))
    mask = 0
    for i, name in enumerate(record_fields(event)):
        if name != "size" and name not in record:
            mask |= 1 << i
    return mask


_socket_names = st.one_of(
    st.builds(
        lambda host_id, port: InternetName(HOSTS[host_id], port, host_id),
        host_id=st.sampled_from(sorted(HOSTS)),
        port=st.integers(min_value=1, max_value=65535),
    ),
    st.builds(UnixName, path=st.text(alphabet="abc/._", min_size=1, max_size=14)),
    st.builds(PairName, unique_id=st.integers(min_value=1, max_value=2**31 - 1)),
)

#: A NAME value in a text-log record: display strings over mapped,
#: unknown and digit hosts, the empty name, junk, and non-strings.
_record_names = st.one_of(
    st.none(),
    st.just(""),
    st.just(0),
    _socket_names,
    st.builds(
        "inet:{0}:{1}".format,
        st.sampled_from(["red", "green", "blue", "nosuchhost", "7", "12"]),
        st.integers(min_value=1, max_value=65535),
    ),
    st.builds("unix:{0}".format, st.text(alphabet="ab/.", min_size=1, max_size=14)),
    st.builds("pair:{0}".format, st.integers(min_value=1, max_value=2**31 - 1)),
    st.sampled_from(["junk", "inet:", "inet:red:", "unix:"]),
)

def _longs_in(ints):
    """A long value in a text-log record."""
    return st.one_of(st.none(), st.just(0), st.just(""), ints, ints.map(str))


_record_longs = _longs_in(_LONGS)
#: The header's machine is a 2-byte short on the wire.
_record_machines = _longs_in(st.integers(min_value=-(2**15), max_value=2**15 - 1))

_ABSENT = object()


@st.composite
def _records(draw):
    """A decoded-record dict over any of the ten events: each field
    missing, present-None, zero, empty or a value; typed by ``event``,
    by ``traceType`` or both."""
    event = draw(st.sampled_from(sorted(EVENT_TYPES)))
    record = {}
    typing = draw(st.sampled_from(["event", "traceType", "both"]))
    if typing != "traceType":
        record["event"] = event
    if typing != "event":
        record["traceType"] = EVENT_TYPES[event]
    kinds = dict(BODY_FIELDS[event])
    for field in record_fields(event):
        if field == "traceType":
            continue
        if kinds.get(field) == "name":
            values = _record_names
        elif field == "machine":
            values = _record_machines
        else:
            values = _record_longs
        value = draw(st.one_of(st.just(_ABSENT), values))
        if value is not _ABSENT:
            record[field] = value
    return event, record


def _outcome(func, *args):
    """``func(*args)``, or the type of the error it raised: junk
    display strings and out-of-range longs must fail the same way."""
    try:
        return func(*args)
    except (ValueError, struct.error) as err:
        return type(err)


@given(_records())
@settings(max_examples=400)
def test_generated_encoder_matches_the_per_field_loops(drawn):
    event, record = drawn
    codec = MessageCodec(HOSTS)
    payload = _outcome(_ref_encode_record, record, HOSTS)
    expected = payload if isinstance(payload, type) else (payload, _ref_mask(record))
    assert _outcome(record_encoder(event), record, codec.name_wire_bytes) == expected
    assert _outcome(codec.encode_record, record) == payload
    pairs = _outcome(wire_pairs, [record], codec)
    assert pairs == (expected if isinstance(payload, type) else [expected])
    # The codec's NAME memo answers a second time as it did the first.
    assert _outcome(codec.encode_record, record) == payload


@st.composite
def _meter_calls(draw):
    """Arguments of a live meter ``encode``: ints for longs (some left
    out), SocketName or None for NAMEs."""
    event = draw(st.sampled_from(sorted(EVENT_TYPES)))
    body = {}
    for field, kind in BODY_FIELDS[event]:
        if draw(st.booleans()) and field != "pid":
            continue
        if kind == "long":
            body[field] = draw(_LONGS)
        else:
            body[field] = draw(st.one_of(st.none(), _socket_names))
    header = {
        "machine": draw(st.sampled_from(sorted(HOSTS))),
        "cpu_time": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        "proc_time": draw(st.integers(min_value=0, max_value=10**6)),
    }
    return event, header, body


@given(_meter_calls())
@settings(max_examples=300)
def test_meter_encode_matches_the_per_field_loop(call):
    event, header, body = call
    codec = MessageCodec(HOSTS)
    assert codec.encode(event, **dict(header, **body)) == _ref_encode(
        event, **dict(header, **body)
    )

