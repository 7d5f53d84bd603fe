"""Converting between legacy text logs and binary stores.

A text log line is a decoded record; packing re-encodes each record to
its Appendix-A wire message (via :meth:`MessageCodec.encode_record`)
and marks reduced-away fields in the frame's discard mask, so
``pack -> scan`` yields exactly the records ``parse_trace`` would.

Text logs carry host names only in display form ("inet:red:6101"), so
packing builds a host table from the names it sees; the assigned ids
travel in each sealed segment's footer and the reader's codec maps
them back to the same display strings.
"""

from repro.filtering.records import parse_trace
from repro.metering.messages import (
    BODY_FIELDS,
    EVENT_NAMES,
    MessageCodec,
    record_fields,
)
from repro.tracestore import format as sformat
from repro.tracestore.writer import StoreWriter, collect_ops

#: event -> ((field, discard-mask bit), ...) over the fields a record
#: can lack.  "size" is derived: always recomputed by encode_record.
_MASK_BITS = {
    event: tuple(
        (name, 1 << i)
        for i, name in enumerate(record_fields(event))
        if name != "size"
    )
    for event in BODY_FIELDS
}


def record_event(record):
    """The event a text-log record describes: its ``event`` field, or
    failing that the name of its ``traceType`` (None when neither)."""
    return record.get("event") or EVENT_NAMES.get(record.get("traceType"))


def host_names_from_records(records):
    """Assign stable host ids to every Internet host name that appears
    in a record's NAME-field display strings."""
    hosts = set()
    for record in records:
        event = record_event(record)
        if event not in BODY_FIELDS:
            continue
        for name, kind in BODY_FIELDS[event]:
            value = record.get(name)
            if kind == "name" and isinstance(value, str) and value.startswith("inet:"):
                host = value.split(":")[1]
                if host and not host.isdigit():
                    hosts.add(host)
    return {i + 1: host for i, host in enumerate(sorted(hosts))}


def wire_pairs(records, codec):
    """(payload, mask) per record; fields missing from the record are
    encoded as zero and flagged in the mask."""
    pairs = []
    for record in records:
        bits = _MASK_BITS.get(record_event(record))
        if bits is None:
            continue  # not an Appendix-A record; text logs may hold anything
        mask = 0
        for name, bit in bits:
            if name not in record:
                mask |= bit
        pairs.append((codec.encode_record(record), mask))
    return pairs


def pack_records(records, base, segment_bytes=sformat.DEFAULT_SEGMENT_BYTES,
                 host_names=None, writer_driver=None, compress=False):
    """Pack decoded records into a store.

    ``writer_driver(writer)`` applies the writer's ops to a medium
    (e.g. :func:`~repro.tracestore.writer.flush_to_files`); without
    one, returns a dict path -> bytes.  Returns (result, writer).
    ``compress=True`` writes each sealed segment's data region as one
    zlib blob (``trace pack --compress``: offline packing is the one
    place the compressed writer's weaker crash-loss bound is free).
    """
    if host_names is None:
        host_names = host_names_from_records(records)
    codec = MessageCodec(host_names)
    writer = StoreWriter(base, segment_bytes=segment_bytes,
                         host_names=host_names, compress=compress)
    sink = {} if writer_driver is None else None
    for payload, mask in wire_pairs(records, codec):
        writer.append(payload, mask)
        if writer_driver is None:
            collect_ops(sink, writer)
        else:
            writer_driver(writer)
    writer.close()
    if writer_driver is None:
        collect_ops(sink, writer)
        return {path: bytes(data) for path, data in sink.items()}, writer
    writer_driver(writer)
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
