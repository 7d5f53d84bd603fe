"""Wire format for live-analysis queries.

A query travels *to* the filter on the same meter port the kernel
meters use, as one meter-framed message: the standard 24-byte header
(traceType ``STREAM_QUERY_TYPE``) followed by a JSON body.  The
filter's inbox diverts such frames out of the record path and the
filter answers on the same connection with one length-prefixed JSON
frame (``repro.guestlib`` framing).  Reusing the meter port means a
query reaches exactly the filter incarnation currently committing
records -- after a relaunch the daemon's spec points at the new port,
so there is no window where queries go to a dead engine.
"""

import json

from repro.metering.messages import HEADER, HEADER_BYTES, STREAM_QUERY_TYPE

#: Must stay within the inbox's framing bound (filterlib's
#: MAX_METER_MESSAGE); kept literal to avoid importing the filter from
#: the daemon side.
MAX_QUERY_FRAME = 4096


def encode_query(request):
    """One meter-framed query message for ``request`` (a JSON-able
    dict).  Raises ValueError if it cannot fit a meter frame."""
    payload = json.dumps(request, sort_keys=True).encode("utf-8")
    size = HEADER_BYTES + len(payload)
    if size > MAX_QUERY_FRAME:
        raise ValueError(
            "query too large for a meter frame ({0} bytes)".format(size)
        )
    return HEADER.pack(size, 0, 0, 0, STREAM_QUERY_TYPE) + payload


def parse_query(raw):
    """The JSON body of a query frame, or None if unparseable."""
    if raw is None or len(raw) < HEADER_BYTES:
        return None
    try:
        body = json.loads(raw[HEADER_BYTES:].decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return body if isinstance(body, dict) else None


def encode_reply(reply):
    """The filter's reply payload (sent with guestlib.send_frame)."""
    return json.dumps(reply, sort_keys=True).encode("utf-8")


def parse_reply(payload):
    """Decode a reply frame; never raises -- a mangled reply becomes an
    error dict so RPC relays stay total."""
    try:
        body = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, AttributeError):
        return {"status": "error", "reason": "unparseable engine reply"}
    if not isinstance(body, dict):
        return {"status": "error", "reason": "malformed engine reply"}
    return body
