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
predicate pushdown the streaming analyses rely on.

Because a sealed segment always ends exactly on a frame boundary, a
frame that overruns the sealed data region is corruption, not a torn
tail; only *unsealed* segments may legitimately end mid-frame.
:func:`iter_frames` enforces that distinction, and
:func:`salvage_frames` resynchronizes past damage to the next frame
whose CRC verifies, reporting every skipped byte range.

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

from repro.metering.messages import (
    EVENT_NAMES,
    HEADER_BYTES,
    field_layout,
    record_fields,
)
from repro.tracestore.errors import BadSegmentHeaderError, CorruptFrameError

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

#: Wire offsets of the maskable header fields (size and traceType are
#: never zeroed: they carry the framing and the record's identity).
_MASKABLE_HEADER_OFFSETS = {
    "machine": (4, 2),
    "cpuTime": (8, 4),
    "procTime": (16, 4),
}


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


def encode_frame(payload, mask=0):
    """One record frame.  The per-frame checksum is spelled here and
    only here: CRC32 over the length and mask words as stored, then the
    payload.  A reader verifies a frame by re-encoding it."""
    head = _FRAME_CRC_HEAD.pack(len(payload), mask)
    return head + _CRC_STRUCT.pack(zlib.crc32(payload, zlib.crc32(head))) + payload


def _read_frame(data, offset, end):
    """Parse one frame at ``offset``; returns (mask, payload, next
    offset, error) where error is None, "torn" (incomplete tail bytes)
    or "crc" (checksum mismatch)."""
    if offset + FRAME_OVERHEAD_BYTES > end:
        return None, None, end, "torn"
    length, mask, __ = _FRAME_STRUCT.unpack_from(data, offset)
    body_start = offset + FRAME_OVERHEAD_BYTES
    if body_start + length > end:
        return None, None, end, "torn"
    payload = bytes(data[body_start : body_start + length])
    if encode_frame(payload, mask) != data[offset : body_start + length]:
        return None, None, body_start + length, "crc"
    return mask, payload, body_start + length, None


def iter_frames(data, start, end, sealed=False, path=None):
    """Yield (offset, mask, payload) for each complete frame in
    ``data[start:end]``.

    A truncated trailing frame normally ends the iteration (a crash
    mid-append is expected on unsealed tails); with ``sealed=True`` the
    region is known to end on a frame boundary, so a trailing overrun
    is corruption and raises.  A frame whose CRC does not match its
    bytes always raises :class:`CorruptFrameError`.
    """
    offset = start
    while offset < end:
        mask, payload, next_offset, error = _read_frame(data, offset, end)
        if error == "torn":
            if sealed and offset + FRAME_OVERHEAD_BYTES <= end:
                raise CorruptFrameError(
                    "frame at offset %d overruns the sealed data region"
                    % offset,
                    path=path,
                    offset=offset,
                )
            break  # torn tail frame: the writer died mid-append
        if error == "crc":
            raise CorruptFrameError(
                "frame CRC mismatch at offset %d" % offset,
                path=path,
                offset=offset,
            )
        yield offset, mask, payload
        offset = next_offset


def salvage_frames(data, start, end):
    """Best-effort frame walk that survives data-region corruption.

    Yields ``("frame", offset, mask, payload)`` for every verifiable
    frame, ``("gap", gap_start, gap_end)`` for every byte range that
    had to be quarantined to reach the next verifiable frame, and at
    most one trailing ``("torn", tail_start, end)`` when the region
    ends with an ordinary torn tail frame (crash mid-append: expected
    loss, not corruption).  After a bad frame, the scan resynchronizes
    by sliding forward one byte at a time until a candidate frame's CRC
    verifies.  A trailing region with no verifiable frame is
    quarantined in full.
    """
    offset = start
    gap_start = None
    while offset < end:
        mask, payload, next_offset, error = _read_frame(data, offset, end)
        if error is None:
            if gap_start is not None:
                yield "gap", gap_start, offset
                gap_start = None
            yield "frame", offset, mask, payload
            offset = next_offset
            continue
        if error == "torn" and gap_start is None:
            if offset + 4 > min(end, len(data)):
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
    if gap_start is not None and gap_start < end:
        yield "gap", gap_start, end


# ----------------------------------------------------------------------
# Discard masks
# ----------------------------------------------------------------------


def discard_mask(event, missing_fields):
    """Bitmap over record_fields(event) marking the discarded ones."""
    mask = 0
    for i, name in enumerate(record_fields(event)):
        if name in missing_fields:
            mask |= 1 << i
    return mask


def masked_fields(event, mask):
    """The field names a mask discards."""
    if not mask:
        return []
    return [
        name
        for i, name in enumerate(record_fields(event))
        if mask & (1 << i)
    ]


def zero_masked_bytes(raw, event, mask):
    """Zero the wire bytes of every masked field (reduction really does
    remove the data, not just the key).  size and traceType survive so
    the payload stays a decodable meter message."""
    if not mask:
        return raw
    buf = bytearray(raw)
    for i, name in enumerate(record_fields(event)):
        if not mask & (1 << i):
            continue
        span = _MASKABLE_HEADER_OFFSETS.get(name)
        if span is not None:
            offset, length = span
            buf[offset : offset + length] = b"\x00" * length
            continue
        for field_name, body_offset, length, __ in field_layout(event):
            if field_name == name:
                offset = HEADER_BYTES + body_offset
                buf[offset : offset + length] = b"\x00" * length
                break
    return bytes(buf)


# ----------------------------------------------------------------------
# Footers
# ----------------------------------------------------------------------


class SegmentStats:
    """Accumulates the footer index while a segment is written: one
    counter per ``(traceType, machine, pid)`` and the first/last frame
    offset per traceType; :meth:`footer` derives the per-machine,
    per-pid and per-event views from them."""

    def __init__(self, host_names=None):
        self.records = 0
        self.t_min = None
        self.t_max = None
        self.counts = {}  # (traceType, machine, pid) -> records
        self.offsets = {}  # traceType -> [first, last] frame offset
        self.host_names = dict(host_names or {})

    def add(self, trace_type, machine, pid, cpu_time, offset):
        self.records += 1
        if self.t_min is None or cpu_time < self.t_min:
            self.t_min = cpu_time
        if self.t_max is None or cpu_time > self.t_max:
            self.t_max = cpu_time
        key = (trace_type, machine, pid)
        self.counts[key] = self.counts.get(key, 0) + 1
        span = self.offsets.get(trace_type)
        if span is None:
            self.offsets[trace_type] = [offset, offset]
        else:
            span[1] = offset

    def footer(self, data_start, data_end, data_crc32=None, stored_bytes=None):
        machines = {}
        pids = {}
        events = {}
        for (trace_type, machine, pid), n in self.counts.items():
            machines[machine] = machines.get(machine, 0) + n
            pids[machine, pid] = pids.get((machine, pid), 0) + n
            events[trace_type] = events.get(trace_type, 0) + n
        footer = {
            "version": FORMAT_VERSION,
            "records": self.records,
            "data_start": data_start,
            "data_end": data_end,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "machines": {str(m): n for m, n in machines.items()},
            "pids": {"%s:%s" % key: n for key, n in pids.items()},
            "events": {_event_name(t): n for t, n in events.items()},
            "event_offsets": {
                _event_name(t): span for t, span in self.offsets.items()
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


def compress_region(frame_bytes, level=6):
    """The on-disk blob for a compressed segment's data region."""
    return zlib.compress(frame_bytes, level)


def decompress_region(blob, raw_bytes=None):
    """Inflate a compressed segment's data region.

    With ``raw_bytes`` (from the footer of a sealed segment) the
    output size is checked; a short or oversized result raises
    :class:`CorruptFrameError`.  Without it (an unsealed compressed
    segment: the writer died before seal, the blob may be truncated)
    the decompressor keeps whatever prefix inflates cleanly -- the
    frame walk then recovers records exactly as from a torn plain
    tail.
    """
    if raw_bytes is None:
        inflater = zlib.decompressobj()
        pieces = []
        for start in range(0, len(blob), 4096):
            try:
                pieces.append(inflater.decompress(bytes(blob[start : start + 4096])))
            except zlib.error:
                break  # inflated prefix is good; the rest is torn
        return b"".join(pieces)
    try:
        raw = zlib.decompress(blob)
    except zlib.error as err:
        raise CorruptFrameError("compressed data region: %s" % err)
    if len(raw) != raw_bytes:
        raise CorruptFrameError(
            "compressed data region inflated to %d bytes, footer says %d"
            % (len(raw), raw_bytes)
        )
    return raw


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
