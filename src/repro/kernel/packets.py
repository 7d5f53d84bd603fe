"""Packets exchanged between machine kernels.

These are transport-internal; the monitor deliberately never exposes
them (Section 2.1, consistency: "Viewing the communications at this
more detailed level would obscure message delivery in unnecessary
detail").
"""

# Packet kinds.
CONN_REQ = "connreq"  # stream connection request (SYN)
CONN_ACK = "connack"  # connection accepted into the backlog
CONN_REFUSED = "connrefused"  # no listener / backlog full
STREAM_DATA = "stream_data"
STREAM_WINDOW = "stream_window"  # flow-control credit return
STREAM_CLOSE = "stream_close"
DGRAM = "dgram"


class Packet:
    """A transport packet: kind, source host, and whichever of the
    fields below its kind carries (the rest stay ``None``)."""

    __slots__ = (
        "kind",
        "src_host",
        "dst_name",  # CONN_REQ, DGRAM
        "src_name",  # DGRAM
        "client_eid",  # handshake
        "client_name",
        "server_eid",
        "server_name",
        "dst_eid",  # STREAM_*
        "data",  # STREAM_DATA, DGRAM
        "n",  # STREAM_WINDOW: bytes of credit returned
        "how",  # STREAM_CLOSE: "full", or "wr" for a half-close
    )

    def __init__(
        self,
        kind,
        src_host,
        dst_name=None,
        src_name=None,
        client_eid=None,
        client_name=None,
        server_eid=None,
        server_name=None,
        dst_eid=None,
        data=None,
        n=None,
        how="full",
    ):
        self.kind = kind
        self.src_host = src_host
        self.dst_name = dst_name
        self.src_name = src_name
        self.client_eid = client_eid
        self.client_name = client_name
        self.server_eid = server_eid
        self.server_name = server_name
        self.dst_eid = dst_eid
        self.data = data
        self.n = n
        self.how = how

    def __repr__(self):
        fields = {
            name: getattr(self, name)
            for name in self.__slots__[2:]
            if getattr(self, name) is not None
        }
        return "Packet({0}, from={1}, {2})".format(
            self.kind, self.src_host.name, fields
        )


def packet_size(payload_len):
    """Approximate wire size: payload plus a 40-byte header."""
    return payload_len + 40
