"""Converting between legacy text logs and binary stores.

A text log line is a decoded record; packing re-encodes each record to
its Appendix-A wire message with the generated
:func:`~repro.metering.messages.shape_encoder` of its keys (for a whole
record the event's :func:`~repro.metering.messages.record_encoder`,
which the live meter shares) -- which also returns the discard mask of
reduced-away fields, so ``pack -> scan`` yields exactly the records
``parse_trace`` would.

Text logs carry host names only in display form ("inet:red:6101"), so
packing builds a host table from the names it sees, in a pass of its
own over the records; the assigned ids travel in each sealed segment's
footer and the reader's codec maps them back to the same display
strings.  The pack then reads the records once more, a chunk at a
time, and hands its writer's ops to the driver once per sealed segment
and at close.
"""

from itertools import islice

from repro.filtering.records import parse_trace
from repro.metering.messages import (
    BODY_FIELDS,
    SHAPE_ENCODERS_MAX,
    WHOLE_RECORD_KEYS,
    MessageCodec,
    field_encoder,
    record_encoder,
    record_event,
    shape_encoder,
)
from repro.tracestore import format as sformat
from repro.tracestore.writer import StoreWriter, collect_ops

#: event -> its NAME fields, in Appendix-A order.
_NAME_FIELDS = {
    event: tuple(name for name, kind in fields if kind == "name")
    for event, fields in BODY_FIELDS.items()
}


#: Records encoded and handed to the writer's batch loop at a time:
#: bounds the wire pairs held at once.  The writer's ops wait for the
#: driver until a chunk seals a segment, so beside its records a pack
#: holds the ops of one segment or of one chunk, whichever is more.
PACK_CHUNK_RECORDS = 256


def host_names_from_records(records):
    """Assign stable host ids, in name order, to every Internet host
    name that appears in a record's NAME-field display strings."""
    values = set()
    for record in records:
        # ``record_event(record)``, its first half read inline.
        event = record.get("event") or record_event(record)
        for name in _NAME_FIELDS.get(event, ()):
            values.add(record.get(name))
    hosts = set()
    for value in values:
        if isinstance(value, str) and value.startswith("inet:"):
            host = value.split(":")[1]
            if host and not host.isdigit():
                hosts.add(host)
    return {i + 1: host for i, host in enumerate(sorted(hosts))}


def wire_pairs(records, codec, encoders=None):
    """(payload, mask) per record; fields missing from the record are
    encoded as zero and flagged in the mask.  A record with a whole
    one's key count goes to its event's :func:`record_encoder` (the
    whole shape), one with fewer (a rule reduced it) to the
    :func:`shape_encoder` of its key tuple (past
    :data:`SHAPE_ENCODERS_MAX` entries, to :func:`field_encoder`, its
    oracle and fallback).  ``encoders`` (event -> (encoder,
    whole key count), and shape -> encoder) is the cache to fill,
    shared by the calls that encode one log a chunk at a time."""
    name = codec.name_wire_bytes
    if encoders is None:
        encoders = {}
    pairs = []
    for record in records:
        # ``record_event(record)``, its first half read inline.
        event = record.get("event") or record_event(record)
        entry = encoders.get(event)
        if entry is None:
            if event not in BODY_FIELDS:
                continue  # not an Appendix-A record; text logs may hold anything
            entry = encoders[event] = (
                record_encoder(event), WHOLE_RECORD_KEYS[event]
            )
        enc, whole = entry
        if len(record) < whole:
            shape = (event, *record)
            enc = encoders.get(shape)
            if enc is None:
                if len(encoders) < SHAPE_ENCODERS_MAX:
                    enc = encoders[shape] = shape_encoder(event, shape[1:])
                else:
                    enc = field_encoder(event)  # text logs may hold anything
        pairs.append(enc(record, name))
    return pairs


def pack_records(records, base, segment_bytes=sformat.DEFAULT_SEGMENT_BYTES,
                 host_names=None, writer_driver=None, compress=False):
    """Pack decoded records into a store.

    ``writer_driver(writer)`` applies the writer's ops to a medium
    (e.g. :func:`~repro.tracestore.writer.flush_to_files`) each time a
    segment seals and at close; without one, returns a dict path ->
    bytes.
    Returns (result, writer).  ``compress=True`` writes each sealed
    segment's data region as one zlib blob (``trace pack --compress``:
    offline packing is the one place the compressed writer's weaker
    crash-loss bound is free).
    """
    if host_names is None:
        if iter(records) is records:
            # A one-shot iterator: the host table takes a pass of its own.
            records = list(records)
        host_names = host_names_from_records(records)
    codec = MessageCodec(host_names)
    writer = StoreWriter(base, segment_bytes=segment_bytes,
                         host_names=host_names, compress=compress)
    sink = {}
    drive = writer_driver or (lambda w: collect_ops(sink, w))
    # Each chunk is encoded just before it is appended, in one pass of
    # ``records``' own iterator.
    encoders = {}
    sealed = 0
    remaining = iter(records)
    chunk = list(islice(remaining, PACK_CHUNK_RECORDS))
    while chunk:
        writer.append_many(wire_pairs(chunk, codec, encoders))
        if writer.segments_sealed != sealed:
            sealed = writer.segments_sealed
            drive(writer)
        chunk = list(islice(remaining, PACK_CHUNK_RECORDS))
    writer.close()
    drive(writer)
    if writer_driver is None:
        return {path: bytes(data) for path, data in sink.items()}, writer
    return None, writer


def pack_text(text, base, segment_bytes=sformat.DEFAULT_SEGMENT_BYTES,
              host_names=None, writer_driver=None, compress=False):
    """Pack a legacy text log (the ``trace pack`` CLI)."""
    return pack_records(
        parse_trace(text),
        base,
        segment_bytes=segment_bytes,
        host_names=host_names,
        writer_driver=writer_driver,
        compress=compress,
    )
