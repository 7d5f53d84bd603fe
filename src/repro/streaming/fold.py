"""The causal fold: send/receive matching wired to vector clocks.

Section 4.1's two analysis jobs -- recover each message's recipient,
deduce the global ordering from send-before-receive evidence -- are one
fold (Jahier & Ducasse: initial state, per-event step, result): the
matcher tells the clock fold which sends a receive depends on, and when
that list is complete.  :class:`~repro.streaming.engine.StreamEngine`
runs it live; :class:`~repro.analysis.matching.MessageMatcher` runs it
to the end of a finished log and reads the answers off its final state.
"""

from repro.streaming.clocks import OnlineVectorClocks
from repro.streaming.matching import OnlineMatcher


class StreamEvent:
    """One committed record, decorated for the folds."""

    __slots__ = (
        "record", "index", "machine", "pid", "proc_seq", "proc", "event",
        "time", "ptime", "sock", "length", "dest", "source", "dest_host",
        "src_host", "sock_name", "peer_name", "new_sock", "node",
        "in_matching", "matched",
    )

    def __init__(self, record, index, proc_seq, proc=None):
        self.record = record
        self.index = index
        self.machine = record.get("machine")
        self.pid = record.get("pid")
        self.proc_seq = proc_seq
        self.proc = proc
        self.event = record.get("event")
        self.time = record.get("cpuTime", 0)
        self.ptime = record.get("procTime", 0)
        self.sock = record.get("sock")
        self.length = record.get("msgLength", 0) or 0
        self.dest = record.get("destName") or None
        self.source = record.get("sourceName") or None
        self.dest_host = None  # literal hosts, parsed by the matcher
        self.src_host = None
        self.sock_name = record.get("sockName") or None
        self.peer_name = record.get("peerName") or None
        self.new_sock = record.get("newSock")
        self.node = None
        self.in_matching = False
        self.matched = False

    def __repr__(self):
        return "StreamEvent({0}, {1}@m{2}, t={3})".format(
            self.event, self.pid, self.machine, self.time
        )


class CausalFold:
    """Online matching + vector clocks behind one ``update(record)``.

    ``on_pair(send, recv, nbytes)`` fires per matched pair,
    ``on_clock(event, clock)`` once per event in dependency order, and
    ``on_process(proc, process)`` when a ``(machine, pid)`` is first
    seen (the engine hangs its per-process state on the slot)."""

    def __init__(self, on_pair, on_clock, on_process=None, history=0):
        self.on_pair = on_pair
        self.on_process = on_process
        self.clocks = OnlineVectorClocks(on_clock, history)
        self.matcher = OnlineMatcher(
            on_pair=self._paired, on_recv_done=self._recv_done
        )
        self.records = 0

    def update(self, record):
        """Consume one record; returns its :class:`StreamEvent`."""
        process = (record.get("machine"), record.get("pid"))
        proc = self.clocks.procs.get(process)
        if proc is None:
            proc = self.clocks.admit(process)
            if self.on_process is not None:
                self.on_process(proc, process)
        event = StreamEvent(record, self.records, proc.next_seq, proc)
        proc.next_seq += 1
        self.records += 1
        # A receive's clock waits for the matcher to declare its send
        # dependencies complete; everything else only waits for program
        # order.
        self.clocks.add(event, defer=(event.event == "receive"))
        self.matcher.update(event)
        self.clocks.drain()
        return event

    def finalize(self):
        """End of stream: settle open matching state, then resolve
        every clock still waiting on it."""
        self.matcher.finalize()
        self.clocks.finalize()

    def _paired(self, send, recv, nbytes):
        # Matching can resolve *inside* the send's own update() call
        # (its receive committed first); queries see that send only
        # after update returns, so the matched flag -- not the on_pair
        # callback order -- is what tells them it never was
        # undelivered.
        send.matched = True
        recv.matched = True
        self.clocks.add_dep(recv.node, send.node)
        self.on_pair(send, recv, nbytes)

    def _recv_done(self, recv):
        self.clocks.close(recv.node)

    def state_size(self):
        return self.matcher.state_size() + self.clocks.state_size()
