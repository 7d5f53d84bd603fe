"""Support library for writing filter processes.

"Given one basic constraint, a user can write a custom filter.  This
one constraint is that a filter process must listen to its standard
input in order to receive meter messages from the kernel meter."
(Section 3.4.)

Here, descriptor 0 of a filter process is a *listening* meter socket
set up by the meterdaemon; the meters of every machine metering for
this filter connect to it.  :class:`MeterInbox` owns the accept loop
and the message framing, handing complete raw meter messages to the
filter body.
"""

from repro.kernel import errno
from repro.kernel.errno import SyscallError
from repro.metering.messages import (
    HEADER_BYTES,
    STREAM_QUERY_TYPE,
    peek_size,
    peek_trace_type,
)

#: Any framed size outside these bounds means the connection is not
#: speaking the meter protocol at all; it is closed, not parsed.
MAX_METER_MESSAGE = 4096


#: Bytes requested per read: large enough to drain a whole shipped
#: batch train in one syscall, so framing cost is paid per read, not
#: per message.
READ_SIZE = 65536


class MeterInbox:
    """Accept meter connections on fd 0 and reassemble meter messages.

    Usage inside a filter guest::

        inbox = MeterInbox()
        while True:
            raw_messages = yield from inbox.wait(sys)
            for raw in raw_messages:
                ...
    """

    def __init__(self, listen_fd=0, recovered_seqs=None):
        self.listen_fd = listen_fd
        #: conn fd -> reassembly buffer
        self.buffers = {}
        self.connections_accepted = 0
        #: accept() calls refused with EMFILE.  One connection per metered
        #: process means a filter runs out of descriptors at about 60
        #: meters; it then stops selecting on the listening socket (the
        #: connections wait in the backlog, further ones are refused at
        #: the connecting end) until one of its connections closes.
        self.accepts_refused = 0
        self._accepting = True
        self.messages_received = 0
        #: Child events from the most recent :meth:`wait`; defined (and
        #: empty) before the first wait so callers may always read it.
        self.last_child_events = []
        #: (machine, pid) -> highest accepted batch sequence number;
        #: seeded from a recovered log so a relaunched filter rejects
        #: retransmissions of batches already committed by an earlier
        #: incarnation.
        self.last_seq = dict(recovered_seqs or {})
        self.batches_accepted = 0
        self.batches_deduped = 0
        #: (fd, raw frame) of live-analysis query messages (traceType
        #: STREAM_QUERY_TYPE), diverted out of the record path.  A
        #: connection is classified by its *first* complete message --
        #: meters never send queries, queriers never send records -- so
        #: the per-message framing loop stays check-free.
        self.pending_queries = []
        self._query_fds = set()
        self._unclassified = set()

    def accept_batch(self, machine, pid, seq):
        """At-least-once delivery -> exactly-once acceptance.

        The kernel meter trails every flushed batch with a sequence
        marker and retransmits its resend window after a reconnect;
        calling this at each marker tells the filter whether the batch
        is new (True, and now remembered) or a duplicate to discard.
        """
        key = (machine, pid)
        last = self.last_seq.get(key)
        if last is not None and seq <= last:
            self.batches_deduped += 1
            return False
        self.last_seq[key] = seq
        self.batches_accepted += 1
        return True

    def take_queries(self):
        """Drain diverted query frames: [(conn fd, raw frame), ...].
        The caller answers on the same fd (see repro.streaming)."""
        queries = self.pending_queries
        self.pending_queries = []
        return queries

    def fds(self):
        listening = [self.listen_fd] if self._accepting else []
        return listening + list(self.buffers)

    def wait(self, sys, timeout_ms=None, want_children=False):
        """Block until meter messages arrive; returns a list of raw
        messages (possibly empty on timeout or child events).

        As a sub-generator, also returns child events through
        ``self.last_child_events`` when ``want_children`` is set.
        """
        ready, child_events = yield sys.select(
            self.fds(), timeout_ms=timeout_ms, want_children=want_children
        )
        self.last_child_events = child_events
        raw_messages = []
        for fd in ready:
            if fd == self.listen_fd:
                try:
                    conn, __ = yield sys.accept(self.listen_fd)
                except SyscallError as err:
                    if err.errno != errno.EMFILE:
                        raise
                    self.accepts_refused += 1
                    self._accepting = False
                    continue
                self.buffers[conn] = b""
                self._unclassified.add(conn)
                self.connections_accepted += 1
                continue
            try:
                data = yield sys.read(fd, READ_SIZE)
            except SyscallError:
                # Connection reset: the metered machine crashed or the
                # path was severed.  The stream is gone; records already
                # logged stay logged, the filter itself must survive.
                data = b""
            if not data:
                yield sys.close(fd)
                self._drop(fd)
                continue
            corrupt = self._feed(fd, data, raw_messages)
            if corrupt:
                # Not the meter protocol: drop the connection rather
                # than loop over garbage framing.
                yield sys.close(fd)
                self._drop(fd)
        self.messages_received += len(raw_messages)
        return raw_messages

    def _drop(self, fd):
        del self.buffers[fd]
        self._accepting = True  # a descriptor is free again
        self._query_fds.discard(fd)
        self._unclassified.discard(fd)

    def _feed(self, fd, data, raw_messages):
        """Frame newly read bytes, appending complete messages to
        ``raw_messages``.  Returns True if the stream is corrupt.

        One concatenation joins any partial message left from the
        previous read; after that a cursor indexes into the buffer, so
        a read full of messages costs one slice per message plus one
        tail copy, instead of a shrinking-``bytes`` reslice (slice of
        the head *and* slice of the tail) per message.
        """
        leftover = self.buffers[fd]
        if leftover:
            data = leftover + data
        if fd in self._query_fds:
            return self._feed_queries(fd, data)
        if fd in self._unclassified:
            if len(data) < HEADER_BYTES:
                self.buffers[fd] = data
                return False
            self._unclassified.discard(fd)
            if peek_trace_type(data) == STREAM_QUERY_TYPE:
                self._query_fds.add(fd)
                return self._feed_queries(fd, data)
        end = len(data)
        offset = 0
        while True:
            size = peek_size(data, offset)
            if size is None:
                break
            if size < HEADER_BYTES or size > MAX_METER_MESSAGE:
                return True
            if end - offset < size:
                break
            if offset == 0 and size == end:
                # The read is exactly one message: pass it through.
                raw_messages.append(data)
                offset = end
                break
            raw_messages.append(data[offset : offset + size])
            offset += size
        if offset == end:
            self.buffers[fd] = b""
        elif offset:
            self.buffers[fd] = data[offset:]
        else:
            self.buffers[fd] = data
        return False

    def _feed_queries(self, fd, data):
        """Framing for a query connection: same size-delimited frames,
        routed to :attr:`pending_queries` instead of the record path."""
        end = len(data)
        offset = 0
        while True:
            size = peek_size(data, offset)
            if size is None:
                break
            if size < HEADER_BYTES or size > MAX_METER_MESSAGE:
                return True
            if end - offset < size:
                break
            self.pending_queries.append((fd, data[offset : offset + size]))
            offset += size
        self.buffers[fd] = data[offset:] if offset != end else b""
        return False
