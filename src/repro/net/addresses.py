"""Socket names.

The paper's meter messages carry ``NAME`` fields ("typedef struct
sockaddr NAME", Appendix A): 16-byte sockaddr-shaped blobs.  Section 4.1
says names are presented to the user as an Internet Domain name, a UNIX
path name, or (for socketpairs) an internally generated unique name.

We keep three name families with both a *wire* form (16 bytes, to honour
the Appendix-A struct layouts byte-for-byte) and a *display* form (the
string the filter logs and the analysis programs read).
"""

import struct

#: Address families, numbered as in 4.2BSD <sys/socket.h>.
AF_UNIX = 1
AF_INET = 2
#: Not a real BSD family: marks the internally generated socketpair names.
AF_PAIR = 99

_NAME_WIRE_BYTES = 16


class SocketName:
    """Base class for the three name families."""

    family = None

    def wire_bytes(self):
        """16-byte sockaddr-shaped encoding (Appendix A NAME field)."""
        raise NotImplementedError

    def wire_len(self):
        """Meaningful byte count, reported in *NameLen message fields."""
        raise NotImplementedError

    def display(self):
        """Human-readable form logged by filters (Section 4.1)."""
        raise NotImplementedError

    def __repr__(self):
        return "{0}({1!r})".format(type(self).__name__, self.display())

    def __eq__(self, other):
        return (
            isinstance(other, SocketName)
            and self.family == other.family
            and self.display() == other.display()
        )

    def __hash__(self):
        return hash((self.family, self.display()))


class InternetName(SocketName):
    """An Internet-domain name: (literal host name, port).

    Per Section 3.5.4 the host part is the literal name; the wire form
    carries a 4-byte host id assigned by the cluster's host table (our
    stand-in for an IP address on whichever network the receiver uses).
    """

    family = AF_INET

    def __init__(self, host, port, host_id=0):
        self.host = str(host)
        self.port = int(port)
        self.host_id = int(host_id)

    def wire_bytes(self):
        return struct.pack(">hHi8x", self.family, self.port, self.host_id)

    def wire_len(self):
        return 8

    def display(self):
        return "inet:{0}:{1}".format(self.host, self.port)


class UnixName(SocketName):
    """A UNIX-domain name: a path, truncated to 14 bytes on the wire
    exactly as ``sun_path`` is in a 16-byte sockaddr."""

    family = AF_UNIX

    def __init__(self, path):
        self.path = str(path)

    def wire_bytes(self):
        raw = self.path.encode("ascii", "replace")[:14]
        return struct.pack(">h14s", self.family, raw)

    def wire_len(self):
        return 2 + min(len(self.path), 14)

    def display(self):
        return "unix:{0}".format(self.path)


class PairName(SocketName):
    """The internally generated unique name given to socketpair ends."""

    family = AF_PAIR

    def __init__(self, unique_id):
        self.unique_id = int(unique_id)

    def wire_bytes(self):
        return struct.pack(">hi10x", self.family, self.unique_id)

    def wire_len(self):
        return 6

    def display(self):
        return "pair:{0}".format(self.unique_id)


#: A zero name: used when a message field's name is unavailable, e.g. a
#: write over an established connection where "the name of the recipient
#: is not available to the metering software" (Section 4.1).
NO_NAME = struct.pack(">16x")


def decode_name(raw, host_names=None):
    """Decode a 16-byte wire NAME back into a :class:`SocketName`.

    ``host_names`` maps host id -> literal host name; without it Internet
    names display the numeric id.  Returns None for an all-zero NAME.
    """
    if len(raw) != _NAME_WIRE_BYTES:
        raise ValueError("NAME field must be 16 bytes, got %d" % len(raw))
    if raw == NO_NAME:
        return None
    (family,) = struct.unpack(">h", raw[:2])
    if family == AF_INET:
        __, port, host_id = struct.unpack(">hHi", raw[:8])
        host = (host_names or {}).get(host_id, str(host_id))
        return InternetName(host, port, host_id)
    if family == AF_UNIX:
        __, path = struct.unpack(">h14s", raw)
        return UnixName(path.rstrip(b"\x00").decode("ascii", "replace"))
    if family == AF_PAIR:
        __, unique_id = struct.unpack(">hi", raw[:6])
        return PairName(unique_id)
    raise ValueError("unknown address family %d" % family)


def parse_name(text):
    """Parse a display-form name ("inet:host:port", ...) back to an object.

    The analysis programs use this when reading filter log files.
    """
    if not text or text == "-":
        return None
    kind, __, rest = text.partition(":")
    if kind == "inet":
        host, __, port = rest.rpartition(":")
        name = InternetName(host, int(port))
        if not 0 <= name.port <= 0xFFFF:  # the wire's unsigned short
            raise ValueError("port out of range in socket name %r" % text)
        return name
    if kind == "unix":
        return UnixName(rest)
    if kind == "pair":
        name = PairName(int(rest))
        if not -(1 << 31) <= name.unique_id < 1 << 31:  # a long
            raise ValueError("pair id out of range in socket name %r" % text)
        return name
    raise ValueError("unparseable socket name %r" % text)
