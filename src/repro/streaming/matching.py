"""Online send/receive matching: :class:`~repro.analysis.matching.
MessageMatcher` as a fold.

The batch matcher sees the whole trace at once; this one must commit
to the same pairing from a single forward pass.  That works because
every batch mechanism is FIFO over arrival order, which is exactly the
order records reach the fold:

- **Connections**: the batch hash join pairs the k-th accept with the
  k-th connect of the same ``(sockName, peerName)`` key, regardless of
  which side appears first -- so two FIFO queues, pairing at the later
  arrival, reproduce it.
- **Streams**: cumulative byte offsets per direction depend only on
  each endpoint's event order, so spans are matched incrementally.  A
  send span is released once receives consume past it; a receive is
  "complete" (all of its matched sends known) once cumulative sent
  bytes cover its range -- later sends start past it.
- **Datagrams**: the batch claim is "earliest compatible unconsumed
  receive, sends in trace order".  Online, a send claims among the
  receives that have arrived; if none fit it goes pending, indexed by
  length.  Host-id discovery and consumption only ever *narrow* what a
  pending send may claim, so the one thing that can become claimable
  later is a receive that has not arrived yet: each new receive is
  offered to the pending sends of its length, in send-arrival order,
  and nothing else is retried.  Because FIFO position equals arrival
  order, the first compatible receive in the full queue is claimed
  exactly when both sides exist.

Known divergence corners, documented rather than papered over (the
equivalence tests and benchmark avoid them; DESIGN 13 discusses them):
the literal-host -> machine-id map (``host_ids``) is built from
connect/accept events *as they arrive* instead of up front, so a
datagram send can be routed through the bare-length index online where
the batch pass would have known the destination id; and events on a
``(machine, sock)`` endpoint *before* the connect/accept that
registers it are treated as outside stream matching (program order
makes this impossible for the endpoint's own process).
"""

from collections import defaultdict, deque


def _host_of(display_name):
    """Literal host of an "inet:host:port" display name, else None.
    (Same rule as repro.analysis.matching, which streaming must not
    import: that package pulls in the heavy analysis dependencies.)"""
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
        s1 = s0 + event.length
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
        r1 = r0 + event.length
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

    __slots__ = ("origin", "pre", "dir_out", "dir_in")

    def __init__(self, origin):
        self.origin = origin  # "connect" | "accept"
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
        self._connections = []  # (dir_i2a, dir_a2i)
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
                    self._pending[event.length].append(event)
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
            self._register_host(event.sock_name, event.machine)
            self._open_endpoint(
                event,
                (event.machine, event.sock),
                "connect",
                (event.sock_name, event.peer_name),
            )
        elif kind == "accept":
            self._register_host(event.sock_name, event.machine)
            self._open_endpoint(
                event,
                (event.machine, event.new_sock),
                "accept",
                (event.peer_name, event.sock_name),
            )

    # -- connections ---------------------------------------------------

    def _register_host(self, sock_name, machine):
        host = _host_of(sock_name)
        if host is not None and host not in self.host_ids:
            self.host_ids[host] = machine

    def _open_endpoint(self, event, endpoint, origin, key):
        state = _Endpoint(origin)
        self._endpoints[endpoint] = state
        other_side = self._accepts if origin == "connect" else self._connects
        queue = other_side.get(key)
        if queue:
            peer = queue.popleft()
            if origin == "connect":
                self._pair_connection(state, peer)
            else:
                self._pair_connection(peer, state)
        else:
            own_side = self._connects if origin == "connect" else self._accepts
            own_side[key].append(state)

    def _pair_connection(self, initiator, acceptor):
        dir_i2a = _Direction()
        dir_a2i = _Direction()
        initiator.dir_out, initiator.dir_in = dir_i2a, dir_a2i
        acceptor.dir_out, acceptor.dir_in = dir_a2i, dir_i2a
        self._connections.append((dir_i2a, dir_a2i))
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
        self._by_mlen[(event.machine, event.length)].append(cell)
        self._by_len[event.length].append(cell)
        self._queued_recvs += 1
        return cell

    def _offer(self, cell):
        """A newly arrived receive goes to the earliest pending send
        that can claim it -- the only claim its arrival can enable."""
        recv = cell[0]
        pending = self._pending.get(recv.length)
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
                self._pending[send.length].remove(send)
                self.outstanding_sends -= 1

    def _try_claim(self, send):
        dest_id = self.host_ids.get(send.dest_host)
        if dest_id is not None:
            queue = self._by_mlen.get((dest_id, send.length))
        else:
            queue = self._by_len.get(send.length)
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
        self.on_pair(send, recv, min(send.length, recv.length))
        self.on_recv_done(recv)

    # -- end of stream -------------------------------------------------

    def finalize(self):
        """No more records: settle everything still open.

        Mirrors the batch pass over a finished trace: receives on a
        connect endpoint that never paired fall back to the datagram
        pool; a one-sided accept keeps its endpoint (its traffic is
        stream, never matched); stream receives past the sent bytes and
        unclaimed datagram receives are sealed with the dependencies
        they have."""
        if self.finalized:
            return
        self.finalized = True
        for state in self._endpoints.values():
            if state.paired:
                continue
            buffered, state.pre = state.pre, []
            for which, event in buffered:
                if which != "recv":
                    continue
                if state.origin == "connect":
                    self._queue_recv(event)
                else:
                    self.on_recv_done(event)
        self._retry_pending()
        for dir_i2a, dir_a2i in self._connections:
            for direction in (dir_i2a, dir_a2i):
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
        for dir_i2a, dir_a2i in self._connections:
            size += dir_i2a.state_size() + dir_a2i.state_size()
        return size
