"""Reference matching, clocks and counters: deliberately naive, kept as
the oracle.

Section 4.1's two deductions written the obvious way over a whole
trace, no index and no incremental state: a nested accept x connect
scan, all-pairs byte-range overlap, a linear scan for the first
compatible receive, vector clocks by relaxation to a fixpoint; and
[Miller 84]'s communication counters summed per process.  The
deductions are quadratic or worse, so it only runs on small traces --
in the twin tests, the hypothesis properties and the chaos oracles
(hence its place under ``src/``) -- to check :class:`~repro.streaming.
fold.CausalFold`, with which it shares only the host-name parser.
"""

from collections import Counter

from repro.analysis.matching import MessagePair
from repro.streaming.matching import _host_of
from repro.streaming.twins import answers_digest


class ReferenceAnalysis:
    """``pairs``, ``unmatched_sends``, ``unmatched_recvs``, ``totals()``
    and ``per_process()`` shaped like MessageMatcher's, and full-width
    clocks as ``clocks[event.index]``."""

    def __init__(self, trace):
        self.trace = trace
        self.pairs, self.unmatched_sends, self.unmatched_recvs = [], [], []
        host_ids = {}  # literal host -> machine id; the first claim wins
        for event in trace.by_type("connect") + trace.by_type("accept"):
            host = _host_of(event.name("sockName"))
            if host is not None:
                host_ids.setdefault(host, event.machine)
        connects, streams = trace.by_type("connect"), set()
        for acc in trace.by_type("accept"):
            names = (acc.name("peerName"), acc.name("sockName"))
            acceptor = (acc.machine, acc.get("newSock"))
            streams.add(acceptor)  # even one-sided: its traffic is stream
            for con in connects:  # the first still unpaired one wins
                if names == (con.name("sockName"), con.name("peerName")):
                    connects.remove(con)
                    initiator = (con.machine, con.sock)
                    streams.add(initiator)
                    self._overlap(initiator, acceptor)
                    self._overlap(acceptor, initiator)
                    break
        pool = [e for e in trace.by_type("receive")
                if (e.machine, e.sock) not in streams]
        for send in trace.by_type("send"):
            if not send.name("destName"):
                continue
            dest_id = host_ids.get(_host_of(send.name("destName")))
            for recv in pool:
                src_host = _host_of(recv.name("sourceName"))
                if (
                    recv.msg_length == send.msg_length
                    and dest_id in (None, recv.machine)
                    and host_ids.get(src_host) in (None, send.machine)
                ):
                    pool.remove(recv)
                    if src_host is not None:
                        host_ids.setdefault(src_host, send.machine)
                    self.pairs.append(MessagePair(send, recv, send.msg_length))
                    break
            else:
                self.unmatched_sends.append(send)
        self.unmatched_recvs += pool
        self.clocks = self._relax()

    def _overlap(self, src, dst):
        """One direction of a connection: sends on ``src`` pair with the
        receives on ``dst`` whose cumulative byte ranges overlap theirs."""
        sends = [e for e in self.trace.by_type("send")
                 if (e.machine, e.sock) == src and not e.name("destName")]
        recvs = [e for e in self.trace.by_type("receive")
                 if (e.machine, e.sock) == dst]
        matched = set()
        s0 = 0
        for send in sends:
            s1 = s0 + send.msg_length
            r0 = 0
            for recv in recvs:
                r1 = r0 + recv.msg_length
                nbytes = min(s1, r1) - max(s0, r0)
                if nbytes > 0:
                    self.pairs.append(MessagePair(send, recv, nbytes))
                    matched.update((send.index, recv.index))
                r0 = r1
            s0 = s1
        self.unmatched_sends += [e for e in sends if e.index not in matched]
        self.unmatched_recvs += [e for e in recvs if e.index not in matched]

    def _relax(self):
        """Raise each clock to its predecessors' (program order, matched
        sends) until nothing moves; the own component is the event's."""
        component = {p: i for i, p in enumerate(self.trace.processes())}
        preds = [[] for __ in self.trace.events]
        for process in component:
            events = self.trace.events_for(process)
            for earlier, later in zip(events, events[1:]):
                preds[later.index].append(earlier.index)
        for pair in self.pairs:
            preds[pair.recv.index].append(pair.send.index)
        clocks = [[0] * len(component) for __ in preds]
        for event in self.trace:
            clocks[event.index][component[event.process]] = event.proc_seq + 1
        moved = True
        while moved:
            moved = False
            for event in self.trace:
                clock, own = clocks[event.index], component[event.process]
                for earlier in preds[event.index]:
                    for i, count in enumerate(clocks[earlier]):
                        if i != own and count > clock[i]:
                            clock[i] = count
                            moved = True
        return [tuple(clock) for clock in clocks]

    def per_process(self):
        """[Miller 84]'s counters, one process at a time from its events."""
        counters = {}
        for machine, pid in self.trace.processes():
            events = self.trace.events_for((machine, pid))
            sent = [e.msg_length for e in events if e.event == "send"]
            received = [e.msg_length for e in events if e.event == "receive"]
            counters["{0}:{1}".format(machine, pid)] = {
                "events": dict(Counter(e.event for e in events)),
                "bytes_sent": sum(sent),
                "bytes_received": sum(received),
                "messages_sent": len(sent),
                "messages_received": len(received),
                "sockets_created": sum(e.event == "socket" for e in events),
                "cpu_ms": max([0] + [e.proc_time for e in events]),
            }
        return counters

    def totals(self):
        counters = self.per_process().values()
        return {
            "events": len(self.trace),
            "processes": len(self.trace.processes()),
            "machines": len(self.trace.machines()),
            "messages_sent": sum(c["messages_sent"] for c in counters),
            "bytes_sent": sum(c["bytes_sent"] for c in counters),
            "matched_pairs": len(self.pairs),
        }


def reference_digest(trace):
    """The reference's answers in the engine's ``digest()`` shape."""
    ref = ReferenceAnalysis(trace)
    return answers_digest(trace, ref, lambda event: ref.clocks[event.index])
