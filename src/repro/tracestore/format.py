"""The on-disk trace-store format: segments, frames, index footers.

A *store* is a family of fixed-capacity segment files sharing a base
path::

    /usr/tmp/f1.store.seg00000      (sealed: footer + trailer present)
    /usr/tmp/f1.store.seg00001      (sealed)
    /usr/tmp/f1.store.seg00002      (open tail: recovered by scanning)

Each segment is::

    +--------+----------------------------+--------+---------+
    | header |  record frames (appended)  | footer | trailer |
    +--------+----------------------------+--------+---------+

- header (8 bytes): magic "RTS1", version u16, flags u16 (bit 0:
  the data region is one zlib-compressed blob, see below);
- frame: payload length u32, discard mask u32, crc32 u32, payload --
  the CRC covers length, mask, *and* payload, so a flipped bit anywhere
  in the frame (including its own length field) is detectable; the
  payload is the record's Appendix-A wire message, byte for byte;
- footer: a JSON index of the segment (record count, min/max header
  cpuTime, per-machine / per-(machine,pid) / per-event-type record
  counts, per-event first/last byte offsets, the host-name map used to
  display NAME fields);
- trailer (12 bytes): footer length u32, footer crc32 u32, magic
  "RTSX".

Only sealed segments carry a footer; a segment interrupted by a crash
simply ends mid-frame and is recovered by scanning frames until the
bytes run out (record framing is self-delimiting, so everything the
writer flushed survives).  The footer lets a reader skip a whole
segment when a predicate cannot match any record in it -- that is the
predicate pushdown the streaming analyses rely on.  A segment whose
footer or trailer bytes were damaged reads as unsealed, but its frames
still end where its footer starts (:func:`footer_start`).

Because a sealed segment always ends exactly on a frame boundary, any
bytes left over after its last frame -- a short stub or a frame that
overruns the region -- are damage, not a torn tail; only *unsealed*
segments may legitimately end mid-frame.  One walk reads frames,
:func:`salvage_frames`: it yields every frame whose CRC verifies,
every byte range it had to skip to reach the next one (a *gap*), and
an unsealed segment's torn tail.  A strict read is that same walk
refusing to skip: it raises at the first gap, after yielding every
frame before it; a salvage read counts the gap as loss.  (The batch
scan's fused lane is a faster walk of CRC-verified sealed regions;
this walk is its reference.)

There is one format, version 2.  Version 1 (no per-frame CRC) existed
for two days and no store of it outlived its process; a version-1
header is rejected like any other unsupported version.

A sealed segment's footer also carries ``data_crc32``: one CRC32 over
the whole frame region as written.  One region checksum pass (C speed)
replaces per-frame CRC verification on the batch scan's fast lane; a
mismatch drops the segment back to the per-frame walk, which localizes
the damage exactly as before, and so does a footer without the field.

Compressed segments (header flag bit 0x1, ``trace pack --compress``):
the data region on disk is a single zlib blob holding the frame bytes
that would otherwise sit between header and footer.  The footer's
``data_start``/``data_end`` describe the *uncompressed* frame region
(in the same coordinates as an uncompressed segment: frames start
right after the 8-byte header), ``raw_bytes``/``stored_bytes`` give
both sizes, and ``data_crc32`` covers the uncompressed frame bytes.
Predicate pushdown skips a compressed segment without ever inflating
it.  Compression buffers a whole segment in memory until seal, so it
trades the writer's bounded crash-loss guarantee for size -- it is for
offline packing, not live filters.

The discard mask is a bitmap over :func:`repro.metering.messages.
record_fields`: bit *i* set means field *i* was discarded by a
reduction rule (Figure 3.4's ``#`` prefix).  Masked field bytes are
zeroed in the stored payload and the field is dropped again on decode,
so a store round-trips exactly what the text log would have kept.
"""

import json
import struct
import zlib
from collections import Counter

from repro.metering.messages import (  # discard masks re-exported
    EVENT_NAMES,
    HEADER_BYTES,
    HEADER_OFFSETS,
    discard_mask,
    field_layout,
    masked_fields,
)
from repro.tracestore.errors import BadSegmentHeaderError

SEGMENT_MAGIC = b"RTS1"
TRAILER_MAGIC = b"RTSX"
#: The segment format (per-frame CRC32); the only one read or written.
FORMAT_VERSION = 2

#: Header flag bit: the data region is one zlib-compressed blob.
FLAG_COMPRESSED = 0x1

_HEADER_STRUCT = struct.Struct(">4sHH")
SEGMENT_HEADER_BYTES = _HEADER_STRUCT.size  # 8
_FRAME_STRUCT = struct.Struct(">III")
_FRAME_CRC_HEAD = struct.Struct(">II")  # the header bytes the CRC covers
_FRAME_CRC_HEAD_BYTES = _FRAME_CRC_HEAD.size  # 8
_CRC_STRUCT = struct.Struct(">I")
FRAME_OVERHEAD_BYTES = _FRAME_STRUCT.size  # 12
_TRAILER_STRUCT = struct.Struct(">II4s")
TRAILER_BYTES = _TRAILER_STRUCT.size  # 12

#: Default segment capacity (data bytes before the segment is sealed).
DEFAULT_SEGMENT_BYTES = 64 * 1024

#: Upper bound a salvage scan accepts for a candidate frame's payload
#: length: real payloads are whole meter messages (tens of bytes), so
#: anything bigger than a segment is noise, not a frame.
MAX_SALVAGE_PAYLOAD = 1 << 20


def segment_header(flags=0):
    return _HEADER_STRUCT.pack(SEGMENT_MAGIC, FORMAT_VERSION, flags)


def segment_flags(data):
    """The header flag word (0 when the header is unreadable)."""
    if len(data) < SEGMENT_HEADER_BYTES:
        return 0
    return _HEADER_STRUCT.unpack_from(data, 0)[2]


def parse_segment_header(data, path=None):
    """Validate a segment's first bytes; returns the format version.
    Raises :class:`BadSegmentHeaderError` (a ``ValueError``)."""
    if len(data) < SEGMENT_HEADER_BYTES:
        raise BadSegmentHeaderError(
            "short segment: %d bytes" % len(data), path=path
        )
    magic, version, __ = _HEADER_STRUCT.unpack_from(data, 0)
    if magic != SEGMENT_MAGIC:
        raise BadSegmentHeaderError(
            "not a trace-store segment (magic %r)" % magic,
            path=path,
            foreign=True,
        )
    if version != FORMAT_VERSION:
        raise BadSegmentHeaderError(
            "unsupported segment version %d" % version, path=path
        )
    return version


# ----------------------------------------------------------------------
# Record frames
# ----------------------------------------------------------------------


def _frame_crc(head, payload):
    """The per-frame checksum: CRC32 over the length and mask words as
    stored (``head``), then the payload.  The writer's batch loop
    inlines the same two calls; its property test holds its frames to
    :func:`encode_frame`'s."""
    return zlib.crc32(payload, zlib.crc32(head))


def encode_frame(payload, mask=0):
    """One record frame."""
    head = _FRAME_CRC_HEAD.pack(len(payload), mask)
    return head + _CRC_STRUCT.pack(_frame_crc(head, payload)) + payload


def _read_frame(data, offset, end):
    """Parse one frame at ``offset``; returns (mask, payload, next
    offset, error) where error is None, "torn" (incomplete tail bytes)
    or "crc" (checksum mismatch).  The stored CRC is checked against
    one over the stored length and mask words and payload: the same
    verdict as re-encoding the frame and comparing bytes, since every
    other byte of the re-encoding comes from that same slice.  A payload
    cut short by the end of ``data`` cannot re-encode to its stored
    length word, so it fails the check too."""
    if offset + FRAME_OVERHEAD_BYTES > end:
        return None, None, end, "torn"
    length, mask, crc = _FRAME_STRUCT.unpack_from(data, offset)
    body_start = offset + FRAME_OVERHEAD_BYTES
    next_offset = body_start + length
    if next_offset > end:
        return None, None, end, "torn"
    payload = bytes(data[body_start:next_offset])
    head = data[offset : offset + _FRAME_CRC_HEAD_BYTES]
    if len(payload) != length or _frame_crc(head, payload) != crc:
        return None, None, next_offset, "crc"
    return mask, payload, next_offset, None


def salvage_frames(data, start, end, sealed=False):
    """The one reference walk of a frame region ``data[start:end]``.

    Yields ``("frame", offset, mask, payload)`` for every frame whose
    CRC verifies, ``("gap", gap_start, gap_end)`` for every byte range
    no verifiable frame covers, and -- only when the region is not
    ``sealed`` -- at most one trailing ``("torn", tail_start, end)``:
    an incomplete last frame with a plausible length word, straight
    after a verified one (a crash mid-append: expected loss, not
    damage).  A sealed region ends on a frame boundary, so anything
    left over there, short or overrunning, is a gap.  After a bad
    frame the walk slides forward one byte at a time until a
    candidate frame's CRC verifies; a trailing region with no
    verifiable frame is one gap.  ``end`` may lie past the end of
    ``data`` (a sealed compressed region that inflated only in part):
    the walk stops where ``data`` does, and the missing bytes join the
    trailing gap.  A strict read refuses the first gap
    (:meth:`~repro.tracestore.reader.StoreReader.scan`); a salvage
    read counts it as loss.
    """
    limit = min(end, len(data))
    offset = start
    gap_start = None
    while offset < limit:
        mask, payload, next_offset, error = _read_frame(data, offset, limit)
        if error is None:
            if gap_start is not None:
                yield "gap", gap_start, offset
                gap_start = None
            yield "frame", offset, mask, payload
            offset = next_offset
            continue
        if error == "torn" and gap_start is None and not sealed:
            if offset + 4 > limit:
                candidate_length = None  # too short even for a length
            else:
                candidate_length = struct.unpack_from(">I", data, offset)[0]
            if candidate_length is None or candidate_length <= MAX_SALVAGE_PAYLOAD:
                # Straight out of valid frames into an incomplete one
                # with a plausible length: a torn tail, not noise.
                yield "torn", offset, end
                return
        if gap_start is None:
            gap_start = offset
        offset += 1
    if gap_start is None and offset < end:
        gap_start = offset
    if gap_start is not None:
        yield "gap", gap_start, end


# ----------------------------------------------------------------------
# Discard masks
# ----------------------------------------------------------------------


def zero_masked_bytes(raw, event, mask):
    """Zero the wire bytes of every masked field (reduction really does
    remove the data, not just the key).  size and traceType survive so
    the payload stays a decodable meter message."""
    if not mask:
        return raw
    spans = _MASKED_SPANS.get((event, mask))
    if spans is None:
        spans = _masked_spans(event, mask)
    buf = bytearray(raw)
    for offset, end in spans:
        buf[offset:end] = bytes(end - offset)
    return bytes(buf)


#: (event, mask) -> the (start, end) wire spans the mask zeroes.
_MASKED_SPANS = {}


def _masked_spans(event, mask):
    spans = dict(HEADER_OFFSETS)
    for name, offset, length, __ in field_layout(event):
        spans[name] = (HEADER_BYTES + offset, length)
    spans = _MASKED_SPANS[(event, mask)] = tuple(
        (spans[name][0], sum(spans[name]))
        for name in masked_fields(event, mask)
        if name not in ("size", "traceType")
    )
    return spans


# ----------------------------------------------------------------------
# Footers
# ----------------------------------------------------------------------


#: A record's stride in ``SegmentStats.fields`` (the ints ``HEADER_PID``
#: unpacks) and the places of the ones the footer reads.
_STRIDE = 6
_MACHINE, _CPU_TIME, _TRACE_TYPE, _PID = 1, 2, 4, 5


class SegmentStats:
    """The footer index of the segment being written: each record's
    header fields as ``HEADER_PID`` unpacks them (size, machine,
    cpuTime, procTime, traceType, pid), six ints per record in one flat
    list, and each record's frame offset.  The writer's batch loop
    (:meth:`~repro.tracestore.writer.StoreWriter.append_many`) extends
    both lists; :meth:`footer` derives, once per segment, the record
    count, the time bounds, the first/last offset per traceType and the
    per-machine, per-pid and per-event counts.  Flat ints, not a tuple
    per record, so a segment's index adds nothing for the garbage
    collector to track."""

    def __init__(self, host_names=None):
        self.fields = []
        self.offsets = []
        self.host_names = dict(host_names or {})

    def footer(self, data_start, data_end, data_crc32=None, stored_bytes=None):
        fields = self.fields
        types = fields[_TRACE_TYPE::_STRIDE]
        machines = {}
        pids = {}
        events = {}
        for (trace_type, machine, pid), n in Counter(
            zip(types, fields[_MACHINE::_STRIDE], fields[_PID::_STRIDE])
        ).items():
            machines[machine] = machines.get(machine, 0) + n
            pids[machine, pid] = pids.get((machine, pid), 0) + n
            events[trace_type] = events.get(trace_type, 0) + n
        first = dict(zip(reversed(types), reversed(self.offsets)))
        last = dict(zip(types, self.offsets))
        times = fields[_CPU_TIME::_STRIDE]
        footer = {
            "version": FORMAT_VERSION,
            "records": len(types),
            "data_start": data_start,
            "data_end": data_end,
            "t_min": min(times) if times else None,
            "t_max": max(times) if times else None,
            "machines": {str(m): n for m, n in machines.items()},
            "pids": {"%s:%s" % key: n for key, n in pids.items()},
            "events": {_event_name(t): n for t, n in events.items()},
            "event_offsets": {
                _event_name(t): [first[t], offset] for t, offset in last.items()
            },
            "hosts": {str(i): name for i, name in self.host_names.items()},
        }
        if data_crc32 is not None:
            footer["data_crc32"] = data_crc32
        if stored_bytes is not None:
            footer["compressed"] = True
            footer["raw_bytes"] = data_end - data_start
            footer["stored_bytes"] = stored_bytes
        return footer


def _event_name(trace_type):
    """A footer's name for a traceType (the digits when it is not an
    Appendix-A event)."""
    return EVENT_NAMES.get(trace_type, str(trace_type))


def encode_footer(footer):
    """Footer JSON plus the fixed trailer that locates it from EOF."""
    blob = json.dumps(footer, sort_keys=True).encode("ascii")
    trailer = _TRAILER_STRUCT.pack(
        len(blob), zlib.crc32(blob) & 0xFFFFFFFF, TRAILER_MAGIC
    )
    return blob + trailer


def parse_footer(data):
    """Extract the footer of a sealed segment; None when the segment is
    unsealed (no trailer) or the trailer/footer bytes are damaged."""
    if len(data) < SEGMENT_HEADER_BYTES + TRAILER_BYTES:
        return None
    length, crc, magic = _TRAILER_STRUCT.unpack_from(data, len(data) - TRAILER_BYTES)
    if magic != TRAILER_MAGIC:
        return None
    start = len(data) - TRAILER_BYTES - length
    if start < SEGMENT_HEADER_BYTES:
        return None
    blob = bytes(data[start : start + length])
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        return None
    try:
        footer = json.loads(blob.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        return None
    if footer.get("version") != FORMAT_VERSION:
        return None
    return footer


def footer_start(data, start):
    """Where the footer of a plain segment whose footer does not parse
    begins: the segment was sealed, and a footer or trailer byte was
    damaged since.  Its frame region ends there, on a frame boundary.
    None when no footer is recognizable (the segment was never sealed).

    The trailer's length word locates the footer when the bytes it
    points at open a JSON object (a frame's length word never starts
    with ``{"``).  When the length word or those bytes are damaged but
    the trailer magic is intact, the footer starts where the frames
    that verify end, and one of the two must still agree there.
    """
    end = len(data) - TRAILER_BYTES
    if end < start:
        return None
    length, __, magic = _TRAILER_STRUCT.unpack_from(data, end)
    at = end - length
    if start <= at and data[at : at + 2] == b'{"':
        return at
    if magic != TRAILER_MAGIC:
        return None
    at = start
    error = None
    while error is None:
        __, __, next_at, error = _read_frame(data, at, len(data))
        if error is None:
            at = next_at
    if at < end and (data[at : at + 2] == b'{"' or at == end - length):
        return at
    return None


def compress_region(frame_bytes, level=6):
    """The on-disk blob for a compressed segment's data region."""
    return zlib.compress(frame_bytes, level)


def decompress_region(blob, raw_bytes=None):
    """Inflate a compressed segment's data region, keeping whatever
    prefix inflates cleanly when the blob does not (an unsealed
    segment's writer died before seal, or the bytes are damaged): the
    frame walk then recovers records exactly as from a plain region.

    With ``raw_bytes`` (from the footer of a sealed segment) the
    result is cut to at most that size; the bytes the blob lost are
    the walk's trailing gap (:func:`salvage_frames`).
    """
    try:
        raw = zlib.decompress(blob)
    except zlib.error:
        inflater = zlib.decompressobj()
        pieces = []
        for start in range(0, len(blob), 4096):
            try:
                pieces.append(inflater.decompress(bytes(blob[start : start + 4096])))
            except zlib.error:
                break  # inflated prefix is good; the rest is lost
        raw = b"".join(pieces)
    return raw if raw_bytes is None else raw[:raw_bytes]


def footer_matches(footer, machines=None, pids=None, events=None,
                   t_min=None, t_max=None):
    """Can any record in this sealed segment satisfy the predicate?
    False means the whole segment is safely skippable (pushdown)."""
    if footer["records"] == 0:
        return False
    if t_min is not None and footer["t_max"] is not None and footer["t_max"] < t_min:
        return False
    if t_max is not None and footer["t_min"] is not None and footer["t_min"] > t_max:
        return False
    if machines is not None:
        if not any(str(m) in footer["machines"] for m in machines):
            return False
    if pids is not None:
        keys = {"{0}:{1}".format(m, p) for m, p in pids}
        if not keys & set(footer["pids"]):
            return False
    if events is not None:
        if not any(e in footer["events"] for e in events):
            return False
    return True
