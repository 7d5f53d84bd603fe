"""Event record descriptions (Figure 3.2).

The description file defines the message formats for the meter/filter
protocol: one line per event type, listing each body field as
``name,offset,length,base``::

    HEADER size machine cpuTime procTime traceType
    SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10
           destNameLen,16,4,10 destName,20,16,16

Offsets are from the start of the message body (the 24-byte header is
common to all messages); base 10 fields are big-endian integers, and
base 16 fields of length 16 are NAME (sockaddr) blobs.

"Since the meter creates these messages, such definitions are very
important for establishing a successful protocol between the meter and
a filter" -- so the default description file is *generated from* the
codec's field tables (:func:`default_descriptions_text`), and the
standard filter decodes by its description file: field by field as
written, or -- only when the file is verified equal to those tables
(:func:`matches_appendix_a`) -- with the decoder generated from them.
A mismatch is therefore a real protocol failure, exactly as it would
have been in 1984.
"""

from repro.metering import messages
from repro.net.addresses import decode_name


class FieldDescription:
    """One ``name,offset,length,base`` entry."""

    __slots__ = ("name", "offset", "length", "base")

    def __init__(self, name, offset, length, base):
        self.name = name
        self.offset = int(offset)
        self.length = int(length)
        self.base = int(base)

    def decode(self, body, host_names):
        raw = body[self.offset : self.offset + self.length]
        if len(raw) < self.length:
            raise ValueError("truncated meter message: no room for " + self.name)
        if self.base == 16 and self.length == 16:
            name = decode_name(raw, host_names)
            return name.display() if name is not None else ""
        return int.from_bytes(raw, "big", signed=True)

    def to_text(self):
        return "{0},{1},{2},{3}".format(self.name, self.offset, self.length, self.base)


class EventDescription:
    """All fields of one event type."""

    def __init__(self, event, type_code, fields):
        self.event = event
        self.type_code = int(type_code)
        self.fields = list(fields)

    def field_names(self):
        return [field.name for field in self.fields]


class DescriptionSet:
    """A parsed description file: header + per-event descriptions.

    Two decode lanes, chosen once at construction.  A set that
    describes exactly the Appendix-A formats (the shipped default)
    decodes through the codec, whose decoder is generated from its
    tables (:class:`repro.metering.messages.EventLayout`); an edited
    set -- renamed or subset fields, other offsets, extra event types
    -- is a different protocol and decodes field by field as written.
    The per-field walk is also the reference the generated lane is
    tested against (:meth:`decode_per_field`, like
    ``RuleSet.apply_interpreted``).
    """

    def __init__(self, header_fields, events):
        self.header_fields = list(header_fields)
        #: type code -> EventDescription
        self.by_type = {event.type_code: event for event in events}
        self.by_name = {event.event.lower(): event for event in events}
        self.appendix_a = matches_appendix_a(self)
        # The codec caches NAME display strings, so it is built per
        # host table (and rebuilt if the table changes).
        self._codec = messages.MessageCodec()

    def decode_message(self, raw, host_names=None):
        """Decode one complete meter message into a flat record dict;
        ValueError when it is shorter than its description."""
        host_names = host_names or {}
        if not self.appendix_a:
            return self.decode_per_field(raw, host_names)
        if host_names != self._codec.host_names:
            self._codec = messages.MessageCodec(host_names)
        return self._codec.decode(raw)

    def decode_per_field(self, raw, host_names=None):
        """The description file interpreted literally, one slice per
        field (reference semantics; the only lane for edited sets)."""
        host_names = host_names or {}
        record = {}
        for name in self.header_fields:
            offset, length = messages.HEADER_OFFSETS[name]
            record[name] = int.from_bytes(
                raw[offset : offset + length], "big", signed=True
            )
        event = self.by_type.get(record["traceType"])
        if event is None:
            raise ValueError("no description for traceType %d" % record["traceType"])
        record["event"] = event.event.lower()
        body = raw[messages.HEADER_BYTES :]
        for field in event.fields:
            record[field.name] = field.decode(body, host_names)
        return record

    def field_order(self, event_name):
        """Display order for log records: header fields then body."""
        event = self.by_name[event_name.lower()]
        return ["event"] + list(self.header_fields) + event.field_names()


def parse_descriptions(text):
    """Parse a description file (Figure 3.2 format)."""
    header_fields = list(messages.HEADER_FIELDS)
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        words = [t for t in line.split() if t]
        keyword = words[0]
        if keyword.upper() == "HEADER":
            header_fields = words[1:]
            continue
        # "SEND 1, pid,0,4,10 pc,4,4,10 ..."
        if len(words) < 2:
            raise ValueError("no type code in %r" % line)
        type_token = words[1].rstrip(",")
        fields = []
        for spec in words[2:]:
            parts = spec.split(",")
            if len(parts) != 4:
                raise ValueError("bad field spec %r in %r" % (spec, line))
            fields.append(FieldDescription(parts[0], parts[1], parts[2], parts[3]))
        events.append(EventDescription(keyword, type_token, fields))
    return DescriptionSet(header_fields, events)


def matches_appendix_a(descriptions):
    """True when this description set describes exactly the
    Appendix-A events, exactly as the codec tables do -- standard
    header, same type codes, event names, field names, offsets,
    lengths and bases, and no event type of its own.

    This is the precondition for running code generated from the codec
    layouts (the codec's decoder, and the live filter's
    :func:`repro.tracestore.batchscan.message_select`): a filter with
    *edited* descriptions speaks a different protocol, so it must
    decode and select by its own file, field by field.
    """
    if descriptions.header_fields != messages.HEADER_FIELDS:
        return False
    if set(descriptions.by_type) != set(messages.EVENT_TYPES.values()):
        return False
    for event, type_code in messages.EVENT_TYPES.items():
        desc = descriptions.by_type.get(type_code)
        if desc is None or desc.event.lower() != event:
            return False
        fields = [
            (field.name, field.offset, field.length, field.base)
            for field in desc.fields
        ]
        if fields != messages.field_layout(event):
            return False
    return True


def default_descriptions_text():
    """Generate the canonical description file from the codec tables."""
    lines = ["HEADER " + " ".join(messages.HEADER_FIELDS)]
    for event, type_code in sorted(
        messages.EVENT_TYPES.items(), key=lambda item: item[1]
    ):
        specs = [
            "{0},{1},{2},{3}".format(name, offset, length, base)
            for name, offset, length, base in messages.field_layout(event)
        ]
        lines.append("{0} {1}, {2}".format(event.upper(), type_code, " ".join(specs)))
    return "\n".join(lines) + "\n"


def default_description_set():
    return parse_descriptions(default_descriptions_text())
