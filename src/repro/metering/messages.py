"""``<metermsgs.h>``: the Appendix-A meter message formats.

Each meter message is a standard 24-byte header followed by a
type-specific body.  Layouts follow the paper's C definitions with
4-byte longs, a 2-byte short (padded), and 16-byte ``NAME`` fields
(``typedef struct sockaddr NAME``), big-endian:

    struct MeterHeader {
        long  size;      /* Size of message */
        short machine;   /* Machine on which process runs */
        long  cpuTime;   /* Local clock */
        long  Dummy;     /* Unused */
        long  procTime;  /* Time charged to process */
        long  traceType; /* Type of message */
    };

The declarative field tables below drive encoding, decoding, *and* the
generation of the event-record description file of Figure 3.2, so the
three can never drift apart.
"""

import struct
from operator import itemgetter

from repro.net.addresses import NO_NAME, InternetName, SocketName, decode_name, parse_name

HEADER_BYTES = 24
_NAME_BYTES = 16

# Trace type numbers.  Figure 3.2 shows SEND as type 1; the Figure 3.4
# rule "type=8, sockName=peerName" is an accept-shaped record, so ACCEPT
# is 8.  The rest are assigned in Appendix-A declaration order.
EVENT_TYPES = {
    "send": 1,
    "receive": 2,
    "receivecall": 3,
    "socket": 4,
    "dup": 5,
    "destsocket": 6,
    "fork": 7,
    "accept": 8,
    "connect": 9,
    "termproc": 10,
}
EVENT_NAMES = {value: name for name, value in EVENT_TYPES.items()}

#: Trace type of a batch marker: a control message the kernel meter
#: appends after each flushed batch so a filter can commit batches
#: durably and dedup retransmissions by ``(machine, pid, seq)``.  The
#: number is far outside the Appendix-A event range so old readers that
#: only know types 1-10 can recognise and skip it.
BATCH_MARKER_TYPE = 99

#: Flushed batches the kernel meter retains per process for resending
#: after a filter reconnect (:mod:`repro.metering.subsystem`).  It
#: lives beside the marker because both ends of the batch protocol read
#: it: a filter must make a batch durable before the batch can roll out
#: of its sender's window.
WINDOW_BATCHES = 32

#: Trace type of a live-analysis query frame: a request sent *to* a
#: filter's meter port (standard header framing, JSON body) asking its
#: streaming engine for stats, a digest, or a continuous-query change.
#: Like the batch marker it sits outside the Appendix-A event range;
#: framing carries it, old consumers can skip it.
STREAM_QUERY_TYPE = 98

#: Body field tables: (field name, kind) where kind is "long" or "name".
#: Order matches the Appendix-A struct declarations.
BODY_FIELDS = {
    "accept": [
        ("pid", "long"),
        ("pc", "long"),
        ("sock", "long"),
        ("newSock", "long"),
        ("sockNameLen", "long"),
        ("peerNameLen", "long"),
        ("sockName", "name"),
        ("peerName", "name"),
    ],
    "connect": [
        ("pid", "long"),
        ("pc", "long"),
        ("sock", "long"),
        ("sockNameLen", "long"),
        ("peerNameLen", "long"),
        ("sockName", "name"),
        ("peerName", "name"),
    ],
    "dup": [
        ("pid", "long"),
        ("pc", "long"),
        ("sock", "long"),
        ("newSock", "long"),
    ],
    "fork": [
        ("pid", "long"),
        ("pc", "long"),
        ("newPid", "long"),
    ],
    "receivecall": [
        ("pid", "long"),
        ("pc", "long"),
        ("sock", "long"),
    ],
    "receive": [
        ("pid", "long"),
        ("pc", "long"),
        ("sock", "long"),
        ("msgLength", "long"),
        ("sourceNameLen", "long"),
        ("sourceName", "name"),
    ],
    "send": [
        ("pid", "long"),
        ("pc", "long"),
        ("sock", "long"),
        ("msgLength", "long"),
        ("destNameLen", "long"),
        ("destName", "name"),
    ],
    "socket": [
        ("pid", "long"),
        ("pc", "long"),
        ("sock", "long"),
        ("domain", "long"),
        ("type", "long"),
        ("protocol", "long"),
    ],
    # The paper's Section 4.3 flag list includes destsocket and termproc
    # events; Appendix A omits their structs, so these two bodies are
    # our (documented) completion of the format family.
    "destsocket": [
        ("pid", "long"),
        ("pc", "long"),
        ("sock", "long"),
    ],
    "termproc": [
        ("pid", "long"),
        ("pc", "long"),
        ("status", "long"),
    ],
}

_KIND_BYTES = {"long": 4, "name": _NAME_BYTES}

# The header's words in wire order, as (label, struct code): the short
# is padded to a long, and the Dummy long is a ``4x`` pad (pack writes
# zeros).  This table is the one spelling of the header in ``src/``.
_HEADER_WORDS = [
    ("size", "i"), ("machine", "h"), ("(pad)", "2x"), ("cpuTime", "i"),
    ("Dummy", "4x"), ("procTime", "i"), ("traceType", "i"),
]
_HEADER_FMT = ">" + "".join(code for __, code in _HEADER_WORDS)
HEADER_FIELDS = [label for label, code in _HEADER_WORDS if "x" not in code]
#: (label, offset, length) of every header word, the pads included.
HEADER_SPANS = [
    (
        label,
        struct.calcsize(">" + "".join(c for __, c in _HEADER_WORDS[:i])),
        struct.calcsize(">" + code),
    )
    for i, (label, code) in enumerate(_HEADER_WORDS)
]
#: Header field -> (offset, length) within the 24-byte header.
HEADER_OFFSETS = {
    label: (offset, length)
    for label, offset, length in HEADER_SPANS
    if label in HEADER_FIELDS
}

# Precompiled whole-message structs: one ``struct.Struct`` per
# Appendix-A format so encode/decode are single pack/unpack calls on
# the hot path instead of per-field loops; body longs are ``i`` and
# NAME fields ``16s``.
_EVENT_STRUCTS = {
    event: struct.Struct(
        _HEADER_FMT
        + "".join("i" if kind == "long" else "16s" for __, kind in fields)
    )
    for event, fields in BODY_FIELDS.items()
}
#: The header alone: (size, machine, cpuTime, procTime, traceType).
HEADER = struct.Struct(_HEADER_FMT)
#: The header and the pid long every Appendix-A body starts with: all
#: the store writer's footer index reads of a record.
HEADER_PID = struct.Struct(_HEADER_FMT + "i")

# Batch marker: header + pid + seq.  Shares the standard header so the
# filter's size-based framing carries it like any meter message.
_MARKER_STRUCT = struct.Struct(_HEADER_FMT + "ii")
MARKER_BYTES = _MARKER_STRUCT.size


def encode_batch_marker(machine, pid, seq, cpu_time=0, proc_time=0):
    """One batch-marker message: stamps the batch that *precedes* it on
    the wire with the per-process flush sequence number ``seq``."""
    return _MARKER_STRUCT.pack(
        MARKER_BYTES,
        int(machine),
        int(cpu_time),
        int(proc_time),
        BATCH_MARKER_TYPE,
        int(pid),
        int(seq),
    )


def parse_batch_marker(raw, offset=0):
    """(machine, pid, seq) of a batch marker, or None if the bytes at
    ``offset`` are not a marker message."""
    if len(raw) - offset < MARKER_BYTES:
        return None
    values = _MARKER_STRUCT.unpack_from(raw, offset)
    if values[4] != BATCH_MARKER_TYPE or values[0] != MARKER_BYTES:
        return None
    return values[1], values[5], values[6]


def is_batch_marker(raw, offset=0):
    """True when the message at ``offset`` is a batch marker (checked
    from the header's traceType without a full decode)."""
    if len(raw) - offset < HEADER_BYTES:
        return False
    return struct.unpack_from(">i", raw, offset + 20)[0] == BATCH_MARKER_TYPE


def body_length(event):
    return sum(_KIND_BYTES[kind] for __, kind in BODY_FIELDS[event])


def message_length(event):
    return _EVENT_STRUCTS[event].size


def record_fields(event):
    """The canonical field list of a decoded record: header fields
    first, then the body fields in Appendix-A declaration order.  The
    trace store's per-record discard mask is a bitmap over this list."""
    return list(HEADER_FIELDS) + [name for name, __ in BODY_FIELDS[event]]


def field_layout(event):
    """(name, offset-from-body-start, length, display base) per field,
    the tuple format of the Figure 3.2 description file."""
    layout = []
    offset = 0
    for name, kind in BODY_FIELDS[event]:
        nbytes = _KIND_BYTES[kind]
        base = 16 if kind == "name" else 10
        layout.append((name, offset, nbytes, base))
        offset += nbytes
    return layout


# ----------------------------------------------------------------------
# Columnar layouts: the one Appendix-A decoder
# ----------------------------------------------------------------------
#
# Every Appendix-A body is longs first, then 16-byte NAME blobs, so the
# header and all integer columns of a message come out of one
# ``unpack_from`` and the NAME blobs are slices at fixed offsets behind
# them.  The layouts below are that observation, compiled once per
# ``(prefix, event)``: ``prefix`` is the string of one-character struct
# codes for whatever frames the message ("" for a bare wire message,
# "III" for the trace store's frame header), so the codec, the live
# filter and the store scan run the same generated code over the same
# tuple shape, shifted by ``len(prefix)``.  Its reference is the
# description file read field by field
# (:meth:`repro.filtering.descriptions.DescriptionSet.decode_per_field`).

_EVENT_LAYOUTS = {}
_FRAME_LAYOUTS = {}
_MATERIALIZERS = {}
_FIELD_ENCODERS = {}
_ENCODERS = {}
_SHAPE_ENCODERS = {}


def name_lookup(host_names):
    """A cached raw-NAME-bytes -> display-string decoder for one host
    table (traces repeat a small set of socket names endlessly)."""
    cache = {}

    def look(raw):
        text = cache.get(raw)
        if text is None:
            decoded = decode_name(raw, host_names)
            text = cache[raw] = decoded.display() if decoded is not None else ""
        return text

    return look


def name_column(slot):
    """Source text, for generated code over ``(buf, noff, look)``, of
    the display string of the ``slot``-th NAME blob behind the longs."""
    return "look(buf[noff + %d : noff + %d])" % (
        _NAME_BYTES * slot, _NAME_BYTES * (slot + 1)
    )


def _materializer(prefix, event, discards):
    """Generate ``mat(t, buf, noff, look) -> record dict``: the header
    fields, ``event``, then the body fields, omitting ``discards``
    so an accepted record never needs a second dict pass.  ``t`` is the
    layout's unpacked tuple, ``noff`` the offset in ``buf`` of the
    first NAME blob, ``look`` a :func:`name_lookup`."""
    key = (prefix, event, discards)
    mat = _MATERIALIZERS.get(key)
    if mat is not None:
        return mat
    base = len(prefix)
    parts = []
    for offset, name in enumerate(HEADER_FIELDS):
        if name not in discards:
            parts.append("%r: t[%d]" % (name, base + offset))
    if "event" not in discards:
        parts.append("'event': %r" % event)
    long_i = name_i = 0
    for name, kind in BODY_FIELDS[event]:
        if kind == "long":
            if name not in discards:
                parts.append(
                    "%r: t[%d]" % (name, base + len(HEADER_FIELDS) + long_i)
                )
            long_i += 1
        else:
            if name not in discards:
                parts.append("%r: %s" % (name, name_column(name_i)))
            name_i += 1
    source = "def mat(t, buf, noff, look):\n    return {%s}\n" % ", ".join(parts)
    namespace = {}
    exec(source, namespace)
    mat = _MATERIALIZERS[key] = namespace["mat"]
    return mat


def record_event(record):
    """The event a decoded record describes: its ``event`` field, or
    failing that the name of its ``traceType`` (None when neither)."""
    return record.get("event") or EVENT_NAMES.get(record.get("traceType"))


def field_encoder(event):
    """The per-field ``enc(record, name) -> (payload, mask)`` of
    ``event``, the twin of :func:`_materializer`: one ``.get`` per
    field and one ``Struct.pack`` for the whole message.

    Longs encode as ``int(v or 0)``; NAME fields as ``name(v)``, which
    maps a SocketName, display string or None to its 16 wire bytes.
    ``mask`` is the discard bitmap over :func:`record_fields` of the
    fields absent from ``record`` (``size`` is always recomputed, so it
    is never masked); a field present with the value None is not
    absent.  Built on first use and cached; ValueError for anything
    but an Appendix-A event.  :func:`shape_encoder` falls back to it
    and the property tests hold the two equal."""
    enc = _FIELD_ENCODERS.get(event)
    if enc is not None:
        return enc
    if event not in BODY_FIELDS:
        raise ValueError("not an Appendix-A record: event %r" % (event,))
    kinds = dict(BODY_FIELDS[event])
    lines = ["def enc(record, name):", "    get = record.get", "    mask = 0"]
    args = ["%d" % message_length(event)]
    for bit, field in enumerate(record_fields(event)):
        if field == "size":
            continue
        if field == "traceType":
            lines.append("    if 'traceType' not in record: mask |= %d" % (1 << bit))
            args.append("%d" % EVENT_TYPES[event])
            continue
        lines.append("    v%d = get(%r)" % (bit, field))
        lines.append(
            "    if v%d is None and %r not in record: mask |= %d"
            % (bit, field, 1 << bit)
        )
        if kinds.get(field) == "name":
            args.append("name(v%d)" % bit)
        else:
            args.append("int(v%d or 0)" % bit)
    lines.append("    return pack(%s), mask" % ", ".join(args))
    namespace = {"pack": _EVENT_STRUCTS[event].pack}
    exec("\n".join(lines) + "\n", namespace)
    enc = _FIELD_ENCODERS[event] = namespace["enc"]
    return enc


#: Keys of a whole decoded record: every :func:`record_fields` entry
#: plus ``event``.  A record with fewer keys has lost fields.
WHOLE_RECORD_KEYS = {
    event: len(record_fields(event)) + 1 for event in BODY_FIELDS
}

#: Shapes whose generated encoders are kept at once.  Text logs may
#: hold any key sets: the cache drops its oldest shape past this many,
#: and one pack generates code for at most this many shapes.
SHAPE_ENCODERS_MAX = 256


def shape_encoder(event, keys):
    """The generated ``enc(record, name) -> (payload, mask)`` of an
    ``event`` record whose keys are ``keys`` (a tuple): the one fast
    lane, :func:`field_encoder`'s result in a handful of C-level calls.

    One ``itemgetter`` fetches the present fields (``traceType`` too,
    though only to check it is there), the absent ones are constants
    (0 for a long, ``NO_NAME`` -- what ``name(None)`` gives -- for a
    NAME), and one ``Struct.pack`` takes them; the mask of the absent
    fields is a constant of the shape.  A missing key, a value ``pack``
    refuses as it stands (None, a float, a numeric string, an int out
    of range) or a NAME ``name`` refuses goes to :func:`field_encoder`,
    which gives the answer or raises the error, so the error is always
    the per-field encoder's.  Every value ``pack`` takes as it stands
    is one ``int(v or 0)`` leaves unchanged, so both give the same
    bytes.  Cached per shape, :data:`SHAPE_ENCODERS_MAX` shapes at
    most."""
    key = (event, keys)
    enc = _SHAPE_ENCODERS.get(key)
    if enc is not None:
        return enc
    slow = field_encoder(event)
    if len(_SHAPE_ENCODERS) >= SHAPE_ENCODERS_MAX:
        del _SHAPE_ENCODERS[next(iter(_SHAPE_ENCODERS))]  # the oldest
    present = set(keys)
    kinds = dict(BODY_FIELDS[event])
    fetched = []
    args = ["%d" % message_length(event)]
    mask = 0
    for bit, field in enumerate(record_fields(event)):
        if field == "size":
            continue
        if field not in present:
            mask |= 1 << bit
            arg = "no_name" if kinds.get(field) == "name" else "0"
        else:
            arg = "a%d" % len(fetched)
            fetched.append(field)  # traceType too: only its key is checked
            if kinds.get(field) == "name":
                arg = "name(%s)" % arg
        args.append("%d" % EVENT_TYPES[event] if field == "traceType" else arg)
    lines = ["def enc(record, name):", "    try:"]
    if len(fetched) == 1:
        # ``itemgetter`` of one field returns the value, not a tuple.
        lines.append("        a0 = fetch(record)")
    elif fetched:
        lines.append("        %s = fetch(record)" % ", ".join(
            "a%d" % i for i in range(len(fetched))
        ))
    lines += [
        "        return pack(%s), %d" % (", ".join(args), mask),
        "    except (KeyError, TypeError, ValueError, error):",
        "        return slow(record, name)",
    ]
    namespace = {
        "fetch": itemgetter(*fetched) if fetched else None,
        "pack": _EVENT_STRUCTS[event].pack,
        "no_name": NO_NAME,
        "error": struct.error,
        "slow": slow,
    }
    exec("\n".join(lines) + "\n", namespace)
    enc = _SHAPE_ENCODERS[key] = namespace["enc"]
    return enc


def record_encoder(event):
    """The :func:`shape_encoder` of a whole ``event`` record (every
    :func:`record_fields` entry), kept per event apart from the
    bounded shape cache: the live meter's and a whole text-log
    record's encoder."""
    enc = _ENCODERS.get(event)
    if enc is None:
        field_encoder(event)  # the ValueError for a non-Appendix-A event
        enc = _ENCODERS[event] = shape_encoder(event, tuple(record_fields(event)))
    return enc


class EventLayout:
    """Column layout of one event's message behind one frame prefix."""

    __slots__ = (
        "prefix", "event", "type_code", "unpack", "length", "long_index",
        "name_index", "field_bits", "names_offset", "pid_index", "mat",
        "_mask_cache",
    )

    def __init__(self, prefix, event):
        kinds = [kind for __, kind in BODY_FIELDS[event]]
        longs = [n for n, kind in BODY_FIELDS[event] if kind == "long"]
        if kinds[: len(longs)] != ["long"] * len(longs):
            raise ValueError("%s body is not longs-then-names" % event)
        base = len(prefix)
        fused = struct.Struct(
            ">" + prefix + _HEADER_FMT[1:] + "i" * len(longs)
        )
        self.prefix = prefix
        self.event = event
        self.type_code = EVENT_TYPES[event]
        #: ``unpack(buf, offset=0)`` -> prefix fields, the five header
        #: fields, then the body's longs.
        self.unpack = fused.unpack_from
        #: Bytes of prefix + whole message (NAME blobs included).
        self.length = fused.size + _NAME_BYTES * (len(kinds) - len(longs))
        #: Integer field -> index in the unpacked tuple.
        self.long_index = {
            name: base + i for i, name in enumerate(HEADER_FIELDS + longs)
        }
        #: NAME field -> slot among the body's trailing 16-byte blobs.
        self.name_index = {
            n: i
            for i, n in enumerate(
                n for n, kind in BODY_FIELDS[event] if kind == "name"
            )
        }
        #: Bit of each field in a discard mask (a bitmap over
        #: ``record_fields`` order).
        self.field_bits = {
            name: i for i, name in enumerate(record_fields(event))
        }
        #: Offset of the first NAME blob from the start of the prefix.
        self.names_offset = fused.size
        self.pid_index = self.long_index.get("pid")
        self.mat = _materializer(prefix, event, frozenset())
        self._mask_cache = {}

    def materializer(self, discards):
        """The record builder that leaves out ``discards``."""
        return _materializer(self.prefix, self.event, frozenset(discards))

    def masked(self, mask):
        """The field names discard mask ``mask`` hides."""
        names = self._mask_cache.get(mask)
        if names is None:
            names = self._mask_cache[mask] = [
                name for name, bit in self.field_bits.items()
                if mask >> bit & 1
            ]
        return names


def event_layout(prefix, event):
    """The (shared, cached) :class:`EventLayout` of ``event`` behind
    ``prefix``."""
    key = (prefix, event)
    layout = _EVENT_LAYOUTS.get(key)
    if layout is None:
        layout = _EVENT_LAYOUTS[key] = EventLayout(prefix, event)
    return layout


def frame_layout(prefix, length):
    """(fused unpack_from, {traceType: EventLayout}) for a ``prefix``
    framing a message of ``length`` bytes: every event of that length
    shares the unpack when they agree on how many longs lead the body;
    an unusual length gets the header-only unpack and no layouts, a
    length that cannot hold a message header (None, None)."""
    key = (prefix, length)
    entry = _FRAME_LAYOUTS.get(key)
    if entry is not None:
        return entry
    if length < HEADER_BYTES:
        entry = _FRAME_LAYOUTS[key] = (None, None)
        return entry
    layouts = {
        EVENT_TYPES[event]: event_layout(prefix, event)
        for event in BODY_FIELDS
        if message_length(event) == length
    }
    unpacks = {layout.names_offset: layout.unpack for layout in layouts.values()}
    if len(unpacks) == 1:
        (unpack,) = unpacks.values()
    else:
        layouts = {}
        unpack = struct.Struct(">" + prefix + _HEADER_FMT[1:]).unpack_from
    entry = _FRAME_LAYOUTS[key] = (unpack, layouts)
    return entry


_WIRE_LAYOUTS = {
    EVENT_TYPES[event]: event_layout("", event) for event in BODY_FIELDS
}


def wire_layout(raw):
    """The :class:`EventLayout` of the bare wire message ``raw``;
    ValueError when it is not a whole Appendix-A message."""
    layout = _WIRE_LAYOUTS.get(peek_trace_type(raw))
    if layout is None:
        if len(raw) < HEADER_BYTES:
            raise ValueError("short meter message: %d bytes" % len(raw))
        raise ValueError("unknown traceType %d" % peek_trace_type(raw))
    if len(raw) < layout.length:
        raise ValueError("truncated meter message")
    return layout


def discard_mask(event, missing_fields):
    """Bitmap over :func:`record_fields` marking the discarded ones."""
    return sum(
        1 << bit
        for name, bit in event_layout("", event).field_bits.items()
        if name in missing_fields
    )


def masked_fields(event, mask):
    """The field names a mask discards."""
    return list(event_layout("", event).masked(mask))


class MessageCodec:
    """Encode and decode meter messages.

    ``host_names`` (host id -> literal name) lets decoded NAME fields
    render as the display strings of Section 4.1.
    """

    def __init__(self, host_names=None):
        self.host_names = dict(host_names or {})
        self._host_ids = None  # reverse map, built on first display-string NAME
        # Display string -> wire bytes, and its decode twin wire bytes
        # -> display string: traces repeat a few names endlessly, and
        # the host map above is fixed for the codec.
        self._name_bytes = {}
        self._name_text = name_lookup(self.host_names)

    # -- encoding -------------------------------------------------------

    def encode(self, event, machine, cpu_time, proc_time, **body):
        """Build one wire message.  NAME-kind fields take SocketName
        objects (or None for "name not available", length zero)."""
        enc = record_encoder(event)
        body["machine"] = machine
        body["cpuTime"] = cpu_time
        body["procTime"] = proc_time
        body["traceType"] = EVENT_TYPES[event]  # a whole record's shape
        return enc(body, self.name_wire_bytes)[0]

    def name_lengths(self, **names):
        """Helper: wire_len of each given name (0 when unavailable)."""
        return {
            key + "Len": (value.wire_len() if value is not None else 0)
            for key, value in names.items()
        }

    def encode_record(self, record):
        """Re-encode a decoded record dict back to its wire message.

        The inverse of :meth:`decode`: NAME fields may be SocketName
        objects or display strings ("inet:red:5100"); missing fields
        encode as zero (the trace store marks them in its discard
        mask).  ``encode(decode(raw)) == raw`` holds for every
        Appendix-A message, which is what lets the trace store keep
        records in the wire encoding without loss.  ValueError when the
        record names no Appendix-A event.
        """
        return record_encoder(record_event(record))(record, self.name_wire_bytes)[0]

    def name_wire_bytes(self, value):
        """Wire form of a NAME field value that may be a SocketName, a
        display string, or missing."""
        if value is None:
            return NO_NAME
        if isinstance(value, SocketName):
            return value.wire_bytes()
        if value == "":
            return NO_NAME
        text = str(value)
        wire = self._name_bytes.get(text)
        if wire is None:
            wire = self._name_bytes[text] = self._display_wire_bytes(text)
        return wire

    def _display_wire_bytes(self, text):
        """Display strings drop the wire host id, so Internet names
        recover it from the host-name map (or the literal digits when
        the decoder had no map either)."""
        name = parse_name(text)
        if name is None:
            return NO_NAME
        if isinstance(name, InternetName) and name.host_id == 0:
            if self._host_ids is None:
                self._host_ids = {
                    host: host_id for host_id, host in self.host_names.items()
                }
            host_id = self._host_ids.get(name.host)
            if host_id is None and name.host.isdigit():
                host_id = int(name.host)
                if host_id >= 1 << 31:
                    raise ValueError(
                        "host id out of range in socket name %r" % text
                    )
            name.host_id = host_id or 0
        return name.wire_bytes()

    # -- decoding -------------------------------------------------------

    def decode(self, raw):
        """Decode one full message into a flat dict (header + body)
        through its wire :class:`EventLayout`; a batch marker decodes to
        a ``batchmark`` record of its header, ``pid`` and ``seq``.

        NAME fields decode to display strings; an all-zero NAME decodes
        to the empty string.  ValueError when the message is shorter
        than its header, its ``size`` field or its layout, or has an
        unknown traceType.
        """
        if len(raw) < HEADER_BYTES:
            raise ValueError("short meter message: %d bytes" % len(raw))
        header = HEADER.unpack_from(raw)
        if len(raw) < header[0]:
            raise ValueError("truncated meter message")
        if header[4] == BATCH_MARKER_TYPE:
            if len(raw) < MARKER_BYTES:
                raise ValueError("truncated batch marker: %d bytes" % len(raw))
            record = dict(zip(HEADER_FIELDS, header), event="batchmark")
            record["pid"], record["seq"] = _MARKER_STRUCT.unpack_from(raw)[5:]
            return record
        layout = _WIRE_LAYOUTS.get(header[4])
        if layout is None or len(raw) < layout.length:
            layout = wire_layout(raw)  # raises the ValueError
        return layout.mat(
            layout.unpack(raw), raw, layout.names_offset, self._name_text
        )


def peek_size(raw, offset=0):
    """Read the ``size`` header field of the message at ``offset``."""
    if len(raw) - offset < 4:
        return None
    return struct.unpack_from(">i", raw, offset)[0]


def peek_trace_type(raw, offset=0):
    """Read the ``traceType`` header field of the message at ``offset``
    without a full decode, or None if the header is incomplete."""
    if len(raw) - offset < HEADER_BYTES:
        return None
    return struct.unpack_from(">i", raw, offset + 20)[0]


def decode_stream(raw, codec):
    """Split a byte stream into messages; returns (records, leftover).

    The meter connection is a stream, so several buffered messages
    arrive concatenated; the size header delimits them (Section 3.4's
    filter relies on this framing).  A size below the header length
    can never occur in a real meter stream; it means the bytes are not
    meter messages at all, and raises ValueError rather than looping.
    """
    records = []
    offset = 0
    while True:
        size = peek_size(raw, offset)
        if size is None:
            break
        if size < HEADER_BYTES:
            raise ValueError("corrupt meter stream: size %d" % size)
        if len(raw) - offset < size:
            break
        record = codec.decode(raw[offset : offset + size])
        # Batch markers are delivery-protocol control traffic, not
        # events; stream consumers (collectors, analyses) never see
        # them.
        if record["traceType"] != BATCH_MARKER_TYPE:
            records.append(record)
        offset += size
    return records, raw[offset:]
