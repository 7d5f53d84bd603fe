"""Socket objects: endpoints of communication (paper Section 3.1).

Implements both 4.2BSD socket flavours the paper monitors:

- **datagram** sockets: connectionless, unreliable, unordered; each
  read consumes one whole message;
- **stream** sockets: connection-based, reliable, ordered byte streams
  with flow control; reads return "as many bytes as possible ...
  without regard for whether or not the bytes originated from the same
  message".

A socket exists independent of the creating process and disappears when
no descriptor references it.  Connection establishment follows the
client/server pattern of Section 3.1: bind + listen + accept on one
side, connect on the other, producing a fresh *connection socket* on
the accepting side.
"""

from collections import deque

from repro.kernel import defs, errno
from repro.kernel.waitq import WaitQueue

# Socket connection states.
ST_UNCONNECTED = "unconnected"
ST_LISTENING = "listening"
ST_CONNECTING = "connecting"
ST_CONNECTED = "connected"
ST_REFUSED = "refused"
ST_CLOSED = "closed"

class Socket:
    """One endpoint of communication."""

    kind = "socket"

    def __init__(self, machine, domain, type_, protocol=0):
        self.machine = machine
        self.domain = domain
        self.type = type_  # fixed for the socket's life
        self.is_stream = type_ == defs.SOCK_STREAM
        self.is_dgram = type_ == defs.SOCK_DGRAM
        self.protocol = protocol

        #: Bound SocketName, or None.
        self.name = None
        self.state = ST_UNCONNECTED

        # -- stream connection state --
        self.backlog = 0
        #: Embryo connection sockets awaiting accept() (server side).
        self.pending = deque()
        self.peer_name = None
        #: (peer Host, peer endpoint id) once connected.
        self.peer = None
        self.endpoint_id = None
        #: Bytes we may still push to the peer before blocking.
        self.send_credit = defs.SOCK_BUFFER_BYTES
        #: Bytes read but not yet returned to the peer as credit.
        self.window_owed = 0
        #: Peer will send no more data (half or full close): reads EOF.
        self.peer_closed = False
        #: Peer is fully gone: our writes fail with EPIPE.
        self.peer_gone = False
        #: We half-closed our sending side (shutdown(2)).
        self.write_closed = False

        # -- receive queues --
        #: Stream: deque of byte chunks. Datagram: deque of (bytes, name).
        self.recv_queue = deque()
        self.recv_bytes = 0

        #: Predefined datagram recipient set by connect() on a dgram
        #: socket (Section 3.1).
        self.default_dest = None
        #: Direct peer for datagram socketpairs (local, reliable).
        self.pair_peer = None

        #: Pending asynchronous error (e.g. ECONNREFUSED), consumed by
        #: the next operation.
        self.error = None

        # Wait queues.
        self.rd_wait = WaitQueue("read")
        self.wr_wait = WaitQueue("write")
        self.conn_wait = WaitQueue("conn")

        self.closed = False

        # Statistics (used by benches and the transparency study).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0

    # ------------------------------------------------------------------

    def readable(self):
        """select() readability (also: a listener with pending conns)."""
        if self.error is not None:
            return True
        if self.state == ST_LISTENING:
            return bool(self.pending)
        if self.recv_bytes > 0 or self.recv_queue:
            return True
        return self.is_stream and self.state == ST_CONNECTED and self.peer_closed

    def writable(self):
        if self.is_dgram:
            return True
        return self.state == ST_CONNECTED and (
            self.send_credit > 0 or self.peer_gone
        )

    # -- receive-side plumbing (called from the machine packet layer) --

    def enqueue_stream_data(self, data):
        self.recv_queue.append(bytes(data))
        self.recv_bytes += len(data)
        self.messages_received += 1
        self.bytes_received += len(data)
        self.rd_wait.wake_all()

    def enqueue_datagram(self, data, src_name):
        """Queue a datagram if budget allows; silently drops otherwise
        (datagram delivery "is not guaranteed")."""
        if self.recv_bytes + len(data) > defs.DGRAM_QUEUE_BYTES:
            return False
        self.recv_queue.append((bytes(data), src_name))
        self.recv_bytes += len(data)
        self.messages_received += 1
        self.bytes_received += len(data)
        self.rd_wait.wake_all()
        return True

    def take_stream_bytes(self, nbytes):
        """Dequeue up to ``nbytes`` from the stream buffer."""
        if self.recv_queue:
            first = self.recv_queue[0]
            # Zero-copy fast path: the whole first chunk satisfies the
            # read (big filter reads usually drain one shipped batch).
            if len(first) == nbytes or (
                len(first) < nbytes and len(self.recv_queue) == 1
            ):
                self.recv_queue.popleft()
                self.recv_bytes -= len(first)
                return first
        parts = []
        remaining = nbytes
        while remaining > 0 and self.recv_queue:
            chunk = self.recv_queue[0]
            if len(chunk) <= remaining:
                parts.append(chunk)
                remaining -= len(chunk)
                self.recv_queue.popleft()
            else:
                parts.append(chunk[:remaining])
                self.recv_queue[0] = chunk[remaining:]
                remaining = 0
        data = b"".join(parts)
        self.recv_bytes -= len(data)
        return data

    def take_datagram(self, nbytes):
        """Dequeue one whole datagram, truncated to ``nbytes``
        ("A datagram is read as a complete message.  Each new read will
        obtain bytes from a new message.")."""
        data, src_name = self.recv_queue.popleft()
        self.recv_bytes -= len(data)
        return data[:nbytes], src_name

    def consume_error(self):
        err = self.error
        self.error = None
        return err

    # ------------------------------------------------------------------

    def reset(self, err=None):
        """Abort the connection (peer crashed or the path was severed):
        undelivered data is gone, the next read fails with ECONNRESET,
        writes fail with EPIPE, and every blocked caller wakes."""
        if self.closed:
            return
        self.error = errno.ECONNRESET if err is None else err
        self.peer_closed = True
        self.peer_gone = True
        self.recv_queue.clear()
        self.recv_bytes = 0
        self.rd_wait.wake_all()
        self.wr_wait.wake_all()
        self.conn_wait.wake_all()

    def set_peer_closed(self, full=True):
        self.peer_closed = True
        if full:
            self.peer_gone = True
        self.rd_wait.wake_all()
        self.wr_wait.wake_all()
        self.conn_wait.wake_all()

    def add_send_credit(self, nbytes):
        self.send_credit += nbytes
        self.wr_wait.wake_all()

    def close(self):
        """Release the socket (refcount hit zero)."""
        if self.closed:
            return
        self.closed = True
        self.state = ST_CLOSED
        self.machine.socket_closed(self)

    def __repr__(self):
        flavor = "stream" if self.is_stream else "dgram"
        return "Socket({0}, {1}, name={2}, state={3})".format(
            self.machine.host.name,
            flavor,
            self.name.display() if self.name else None,
            self.state,
        )
