"""Recovering message recipients: send/receive matching.

Section 4.1: a send over a connection does not carry the recipient's
name -- "By examining the sockets that were paired when the connection
was created, the recipient information can be recovered.  This is one
of the tasks of the analysis programs."

The pairing itself is :class:`~repro.streaming.fold.CausalFold` -- the
fold the live filter runs per committed record -- run once to the end
of the finished trace; :class:`MessageMatcher` is a view over its final
state (:mod:`repro.streaming.matching` documents the rules,
:mod:`repro.analysis.reference` is their naive oracle).  The same run
resolves every event's vector clock, which
:class:`~repro.analysis.ordering.HappensBefore` reads from here, and
counts the communication statistics the views in
:mod:`repro.analysis.stats`, ``structure`` and ``parallelism`` read.
"""

from repro.streaming.fold import CausalFold


class Connection:
    """One stream connection between two trace endpoints."""

    __slots__ = ("initiator", "acceptor", "initiator_name", "acceptor_name")

    def __init__(self, initiator, acceptor, initiator_name, acceptor_name):
        self.initiator = initiator  # (machine, sock); None if unmetered
        self.acceptor = acceptor  # (machine, newSock)
        self.initiator_name = initiator_name
        self.acceptor_name = acceptor_name

    def __repr__(self):
        return "Connection({0} <-> {1})".format(self.initiator, self.acceptor)


class MessagePair:
    """A matched (send event, receive event) with the byte overlap."""

    __slots__ = ("send", "recv", "nbytes")

    def __init__(self, send, recv, nbytes):
        self.send = send
        self.recv = recv
        self.nbytes = nbytes

    def __repr__(self):
        return "MessagePair({0} -> {1}, {2}B)".format(
            self.send.process, self.recv.process, self.nbytes
        )


class MessageMatcher:
    """Pairs sends with receives across a whole trace.

    ``pairs`` is in send order; ``connections`` has one entry per
    accept, in accept order (``initiator`` None when only the server
    was metered); the unmatched lists report losses within fully-known
    connections and among datagrams; ``clocks[event.index]`` is the
    event's dense vector clock (it stops at its last nonzero component);
    ``fold`` is the finished run, whose counters ``totals()`` and
    ``per_process()`` report in the engine's ``digest()`` shape (the
    statistics views read its per-process slots and ``pair_traffic``).
    """

    def __init__(self, trace):
        self.trace = trace
        events = trace.events
        self.pairs = []
        self.clocks = [()] * len(events)
        # The fold runs over the trace's own events: its pairs, clocks
        # and matching flags land on them, nothing is translated back.
        fold = self.fold = CausalFold(self._paired, self._clock_resolved)
        self.totals, self.per_process = fold.totals, fold.per_process
        # The one thing a finished log knows that a live stream cannot:
        # every host's machine id, before the first datagram is routed.
        for event in trace.by_type("connect") + trace.by_type("accept"):
            fold.matcher.learn_host(event.sock_name, event.machine)
        for event in events:
            fold.feed(event)
        fold.finalize()
        self.pairs.sort(key=lambda pair: (pair.send.index, pair.recv.index))
        self.connections = [
            Connection(
                initiator=(
                    (state.peer.event.machine, state.peer.event.sock)
                    if state.peer is not None
                    else None
                ),
                acceptor=(state.event.machine, state.event.new_sock),
                initiator_name=state.event.peer_name,
                acceptor_name=state.event.sock_name,
            )
            for state in fold.matcher.accepted
        ]
        unmatched = [
            event for event in events
            if event.in_matching and not event.matched
        ]
        self.unmatched_sends = [e for e in unmatched if e.event == "send"]
        self.unmatched_recvs = [e for e in unmatched if e.event == "receive"]

    def _paired(self, send, recv, nbytes):
        self.pairs.append(MessagePair(send, recv, nbytes))

    def _clock_resolved(self, event, clock):
        self.clocks[event.index] = clock

    def matched_fraction(self):
        sends = self.trace.by_type("send")
        if not sends:
            return 1.0
        matched = {pair.send.index for pair in self.pairs}
        return len(matched) / len(sends)
