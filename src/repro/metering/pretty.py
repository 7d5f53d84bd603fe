"""Annotated hexdumps of meter messages.

A debugging aid for the wire protocol itself: render a raw meter
message byte-for-byte with each field labelled, the way one would
check the Appendix-A layouts against a real trace::

    >>> print(annotate_message(raw))
    send message, 60 bytes
      [ 0: 4] size         0000003c = 60
      [ 4: 6] machine          0001 = 1
      ...
"""

from repro.metering import messages
from repro.metering.messages import (
    EVENT_NAMES,
    HEADER_BYTES,
    HEADER_SPANS,
    peek_size,
    peek_trace_type,
)
from repro.net.addresses import decode_name


def _int_of(raw):
    return int.from_bytes(raw, "big", signed=True)


def _row(label, offset, chunk, value):
    return "  [{0:>3}:{1:>3}] {2:<13} {3:<32} = {4}".format(
        offset, offset + len(chunk), label, chunk.hex(), value
    )


def annotate_message(raw, host_names=None):
    """Render one raw meter message as an annotated hexdump."""
    if len(raw) < HEADER_BYTES:
        raise ValueError("short meter message: %d bytes" % len(raw))
    trace_type = peek_trace_type(raw)
    event = EVENT_NAMES.get(trace_type)
    if event is None:
        raise ValueError("unknown traceType %d" % trace_type)
    lines = ["{0} message, {1} bytes".format(event, peek_size(raw))]
    for label, offset, nbytes in HEADER_SPANS:
        chunk = raw[offset : offset + nbytes]
        lines.append(_row(label, offset, chunk, _int_of(chunk)))
    for name, offset, nbytes, base in messages.field_layout(event):
        absolute = HEADER_BYTES + offset
        chunk = raw[absolute : absolute + nbytes]
        if base == 16 and nbytes == 16:
            decoded = decode_name(chunk, host_names or {})
            value = decoded.display() if decoded is not None else "(no name)"
        else:
            value = _int_of(chunk)
        lines.append(_row(name, absolute, chunk, value))
    return "\n".join(lines)


def annotate_stream(raw, host_names=None, limit=None):
    """Annotate every message in a concatenated meter byte stream."""
    blocks = []
    offset = 0
    count = 0
    while offset + 4 <= len(raw):
        size = peek_size(raw, offset)
        if size <= 0 or offset + size > len(raw):
            break
        blocks.append(annotate_message(raw[offset : offset + size], host_names))
        offset += size
        count += 1
        if limit is not None and count >= limit:
            break
    return "\n\n".join(blocks)
