"""Online send/receive matching: Section 4.1's recipient recovery as
a fold.

"By examining the sockets that were paired when the connection was
created, the recipient information can be recovered."  Every mechanism
is FIFO over arrival order, so one forward pass commits to the pairing
a reader of the whole trace would choose (the naive
:mod:`repro.analysis.reference` is that reader):

- **Connections**: the k-th accept pairs with the k-th connect of the
  same ``(sockName, peerName)`` key, whichever side appears first --
  two FIFO queues, pairing at the later arrival.
- **Streams** may coalesce or split messages, so bytes are matched by
  cumulative offsets per direction, which depend only on each
  endpoint's event order.  A send span is released once receives
  consume past it; a receive is "complete" (all of its matched sends
  known) once cumulative sent bytes cover its range.
- **Datagrams**: a send's ``destName`` names the receiving socket, a
  receive's ``sourceName`` the sender's host, and equal-length
  datagrams pair "earliest compatible unconsumed receive, sends in
  trace order".  A send claims among the receives that have arrived,
  else goes pending; a pending send's candidates only ever *narrow*,
  so each new receive is offered to the pending sends of its length,
  in send-arrival order, and nothing else is retried (DESIGN 13).

Known divergence corners (DESIGN 13; the equivalence tests and
benchmark avoid them).  A *live* stream learns the literal-host ->
machine-id map (``host_ids``) from connect/accept events as they
arrive, so a datagram send can be routed through the bare-length index
where a reader of the finished log would have known the destination;
the post-mortem :class:`~repro.analysis.matching.MessageMatcher` calls
:meth:`OnlineMatcher.learn_host` for every connect/accept up front and
has no such corner.  On every path, events on a ``(machine, sock)``
endpoint *before* the connect/accept that registers it are outside
stream matching (impossible for the endpoint's own process), and a host
learned from a matched pair is learned when the match happens, not in
send order (only inconsistent names can tell the difference).
"""

from collections import defaultdict, deque


def _host_of(display_name):
    """Literal host of an "inet:host:port" display name, else None.
    (:mod:`repro.analysis` imports this; streaming must never import
    the analysis stack back -- it runs inside the filter guest, without
    that package's heavy dependencies.)"""
    if display_name and display_name.startswith("inet:"):
        return display_name.split(":")[1]
    return None


def _compatible(send, recv, host_ids):
    """Whether datagram ``send`` may claim ``recv``; an unknown host is
    consistent with any machine.  ``host_ids`` only gains entries, so
    for a given pair this can turn False but never True."""
    src_id = host_ids.get(recv.src_host) if recv.src_host else None
    if src_id is not None and src_id != send.machine:
        return False
    dest_id = host_ids.get(send.dest_host)
    return dest_id is None or dest_id == recv.machine


class _Direction:
    """One direction of a paired connection: cumulative byte spans."""

    __slots__ = ("send_off", "recv_off", "spans", "waiting")

    def __init__(self):
        self.send_off = 0
        self.recv_off = 0
        self.spans = deque()  # (s0, s1, send event), s1 > recv_off
        self.waiting = deque()  # (r0, r1, recv event), r1 > send_off

    def add_send(self, event, matcher):
        s0 = self.send_off
        s1 = s0 + event.msg_length
        self.send_off = s1
        if s1 > s0:
            for r0, r1, recv in self.waiting:
                if r0 >= s1:
                    break
                overlap = min(s1, r1) - max(s0, r0)
                if overlap > 0:
                    matcher.on_pair(event, recv, overlap)
            if s1 > self.recv_off:
                self.spans.append((s0, s1, event))
        waiting = self.waiting
        while waiting and waiting[0][1] <= s1:
            matcher.on_recv_done(waiting.popleft()[2])

    def add_recv(self, event, matcher):
        r0 = self.recv_off
        r1 = r0 + event.msg_length
        self.recv_off = r1
        spans = self.spans
        while spans and spans[0][1] <= r0:
            spans.popleft()
        for s0, s1, send in spans:
            if s0 >= r1:
                break
            overlap = min(s1, r1) - max(s0, r0)
            if overlap > 0:
                matcher.on_pair(send, event, overlap)
        while spans and spans[0][1] <= r1:
            spans.popleft()
        if r1 <= self.send_off:
            matcher.on_recv_done(event)
        else:
            self.waiting.append((r0, r1, event))

    def state_size(self):
        return len(self.spans) + len(self.waiting)


class _Endpoint:
    """A (machine, sock) registered by a connect or accept."""

    __slots__ = ("event", "peer", "pre", "dir_out", "dir_in")

    def __init__(self, event):
        self.event = event  # the connect or accept that opened it
        self.peer = None  # the other end, once paired
        self.pre = []  # buffered ("send"|"recv", event) until paired
        self.dir_out = None
        self.dir_in = None

    @property
    def paired(self):
        return self.dir_out is not None


class _DgramQueue:
    """Datagram receives for one index key, claimed FIFO.

    Entries are shared cells ``[event, consumed]`` (each receive sits
    in the by-(machine, length) *and* the bare-length queue), so a
    claim through one index is seen by the other.  The consumed prefix
    is compacted away, keeping memory bounded by *unconsumed* receives
    rather than all receives ever seen."""

    __slots__ = ("items", "head")

    def __init__(self):
        self.items = []
        self.head = 0

    def append(self, cell):
        self.items.append(cell)

    def claim(self, send, host_ids):
        items = self.items
        head = self.head
        while head < len(items) and items[head][1]:
            head += 1
        if head > 64:
            del items[:head]
            head = 0
        self.head = head
        for i in range(head, len(items)):
            cell = items[i]
            if not cell[1] and _compatible(send, cell[0], host_ids):
                return cell
        return None

    def unconsumed(self):
        return [cell[0] for cell in self.items[self.head:] if not cell[1]]


class OnlineMatcher:
    """Pairs sends with receives as they arrive.

    ``on_pair(send, recv, nbytes)`` fires for every matched pair (the
    batch ``matcher.pairs`` set); ``on_recv_done(recv)`` fires exactly
    once per receive routed into matching, when no further send can
    pair with it -- the signal the clock fold needs to seal a receive's
    dependency list.
    """

    def __init__(self, on_pair, on_recv_done):
        self.on_pair = on_pair
        self.on_recv_done = on_recv_done
        self.host_ids = {}  # literal host name -> machine id
        self._endpoints = {}  # (machine, sock) -> _Endpoint
        self._connects = defaultdict(deque)  # names key -> _Endpoint queue
        self._accepts = defaultdict(deque)
        #: Accept endpoints in arrival order; ``peer`` is the connect
        #: end, None while (or forever, in a one-sided trace) unpaired.
        self.accepted = []
        self._by_mlen = defaultdict(_DgramQueue)  # (machine, length)
        self._by_len = defaultdict(_DgramQueue)
        self._pending = defaultdict(deque)  # length -> unmatched dgram sends
        self.outstanding_sends = 0  # events held in _pending
        self._queued_recvs = 0  # unclaimed datagram receives
        self.unmatched_recvs = 0  # known only after finalize
        self.finalized = False

    # -- per-record fold -----------------------------------------------

    def update(self, event):
        kind = event.event
        if kind == "send":
            if event.dest:
                event.in_matching = True
                event.dest_host = _host_of(event.dest)
                if not self._try_claim(event):
                    self._pending[event.msg_length].append(event)
                    self.outstanding_sends += 1
                return
            state = self._endpoints.get((event.machine, event.sock))
            if state is None:
                return  # no connection evidence: outside matching
            event.in_matching = True
            if state.paired:
                state.dir_out.add_send(event, self)
            else:
                state.pre.append(("send", event))
        elif kind == "receive":
            event.in_matching = True
            state = self._endpoints.get((event.machine, event.sock))
            if state is None:
                self._offer(self._queue_recv(event))
            elif state.paired:
                state.dir_in.add_recv(event, self)
            else:
                state.pre.append(("recv", event))
        elif kind == "connect":
            self.learn_host(event.sock_name, event.machine)
            state = _Endpoint(event)
            self._endpoints[(event.machine, event.sock)] = state
            key = (event.sock_name, event.peer_name)
            queue = self._accepts.get(key)
            if queue:
                self._pair_connection(state, queue.popleft())
            else:
                self._connects[key].append(state)
        elif kind == "accept":
            self.learn_host(event.sock_name, event.machine)
            state = _Endpoint(event)
            self._endpoints[(event.machine, event.new_sock)] = state
            self.accepted.append(state)
            key = (event.peer_name, event.sock_name)
            queue = self._connects.get(key)
            if queue:
                self._pair_connection(queue.popleft(), state)
            else:
                self._accepts[key].append(state)

    # -- connections ---------------------------------------------------

    def learn_host(self, sock_name, machine):
        """``sock_name`` is ``machine``'s own bound name (a connect's
        or accept's sockName): its literal host is that machine.  The
        trace's ``machine`` header is a numeric host id while names
        display literal host names; the first claim on a host wins."""
        host = _host_of(sock_name)
        if host is not None and host not in self.host_ids:
            self.host_ids[host] = machine

    def _pair_connection(self, initiator, acceptor):
        initiator.peer, acceptor.peer = acceptor, initiator
        dir_i2a = _Direction()
        dir_a2i = _Direction()
        initiator.dir_out, initiator.dir_in = dir_i2a, dir_a2i
        acceptor.dir_out, acceptor.dir_in = dir_a2i, dir_i2a
        # Flush traffic buffered before pairing.  Only the per-endpoint
        # order matters: each direction's sends come from one endpoint
        # and its receives from the other.
        for state in (initiator, acceptor):
            buffered, state.pre = state.pre, []
            for which, event in buffered:
                if which == "send":
                    state.dir_out.add_send(event, self)
                else:
                    state.dir_in.add_recv(event, self)

    # -- datagrams -----------------------------------------------------

    def _queue_recv(self, event):
        event.src_host = _host_of(event.source)
        cell = [event, False]
        self._by_mlen[(event.machine, event.msg_length)].append(cell)
        self._by_len[event.msg_length].append(cell)
        self._queued_recvs += 1
        return cell

    def _offer(self, cell):
        """A newly arrived receive goes to the earliest pending send
        that can claim it -- the only claim its arrival can enable."""
        recv = cell[0]
        pending = self._pending.get(recv.msg_length)
        if not pending:
            return
        host_ids = self.host_ids
        for i, send in enumerate(pending):
            if _compatible(send, recv, host_ids):
                del pending[i]
                self.outstanding_sends -= 1
                self._claim(send, cell)
                return

    def _retry_pending(self):
        """Every pending send retries, in arrival order: needed only at
        finalize, where the fallback receives all land at once."""
        for send in self.pending_send_events():
            if self._try_claim(send):
                self._pending[send.msg_length].remove(send)
                self.outstanding_sends -= 1

    def _try_claim(self, send):
        dest_id = self.host_ids.get(send.dest_host)
        if dest_id is not None:
            queue = self._by_mlen.get((dest_id, send.msg_length))
        else:
            queue = self._by_len.get(send.msg_length)
        cell = queue.claim(send, self.host_ids) if queue is not None else None
        if cell is None:
            return False
        self._claim(send, cell)
        return True

    def _claim(self, send, cell):
        cell[1] = True
        self._queued_recvs -= 1
        recv = cell[0]
        if recv.src_host is not None:
            self.host_ids.setdefault(recv.src_host, send.machine)
        self.on_pair(send, recv, min(send.msg_length, recv.msg_length))
        self.on_recv_done(recv)

    # -- end of stream -------------------------------------------------

    def finalize(self):
        """No more records: settle everything still open.

        What a reader of the finished trace would conclude: receives on
        a connect endpoint that never paired fall back to the datagram
        pool; all other traffic on half a connection (only one side was
        metered) leaves matching -- it is unknowable, not lost; stream
        receives past the sent bytes and unclaimed datagram receives
        are sealed with the dependencies they have.  Afterwards an
        event with ``in_matching`` set and ``matched`` clear is an
        unmatched send or receive."""
        if self.finalized:
            return
        self.finalized = True
        for state in self._endpoints.values():
            if state.paired:
                continue
            buffered, state.pre = state.pre, []
            for which, event in buffered:
                if which == "recv" and state.event.event == "connect":
                    self._queue_recv(event)
                    continue
                event.in_matching = False
                if which == "recv":
                    self.on_recv_done(event)
        self._retry_pending()
        for state in self.accepted:
            if state.paired:
                for direction in (state.dir_in, state.dir_out):
                    while direction.waiting:
                        self.on_recv_done(direction.waiting.popleft()[2])
        for queue in self._by_mlen.values():
            for recv in queue.unconsumed():
                self.unmatched_recvs += 1
                self.on_recv_done(recv)

    # -- inspection ----------------------------------------------------

    def pending_send_events(self):
        """Datagram sends not (yet) matched, in arrival order."""
        sends = [s for queue in self._pending.values() for s in queue]
        return sorted(sends, key=lambda send: send.index)

    def state_size(self):
        size = self.outstanding_sends + self._queued_recvs
        for state in self._endpoints.values():
            size += len(state.pre)
        for state in self.accepted:
            if state.paired:
                size += state.dir_in.state_size() + state.dir_out.state_size()
        return size
