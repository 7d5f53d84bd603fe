"""The causal fold: send/receive matching wired to vector clocks.

Section 4.1's two analysis jobs -- recover each message's recipient,
deduce the global ordering from send-before-receive evidence -- are one
fold (Jahier & Ducasse: initial state, per-event step, result): the
matcher tells the clock fold which sends a receive depends on, and when
that list is complete.  The same step keeps [Miller 84]'s communication
counters (per process, per process pair, totals).
:class:`~repro.streaming.engine.StreamEngine` runs it live;
:class:`~repro.analysis.matching.MessageMatcher` runs it to the end of
a finished log and the analysis views read the answers off its final
state.
"""

from repro.streaming.clocks import OnlineVectorClocks
from repro.streaming.matching import OnlineMatcher


def sorted_machines(machines):
    """Machine ids in answer order: integers in numeric order, then any
    other value (a garbage or salvaged record's) ordered by repr."""
    ids = sorted(m for m in machines if isinstance(m, int))
    return ids + sorted(set(machines).difference(ids), key=repr)


class Event:
    """One event record, decorated once for every fold and analysis.

    A process is identified by ``(machine, pid)``: pids are only unique
    per machine (Section 3.5.1), and sockets ("sock") only unique
    within a machine (Section 4.1).  The slots are a snapshot taken at
    construction: ``name()``, ``get()`` and ``[]`` read the record
    itself, the attributes do not see a later change to it.  It lives
    here, not in :mod:`repro.analysis.trace` (which re-exports it),
    because the filter guest runs the fold and must not import the
    analysis stack.  The last five slots are the clock fold's (its
    clock; its resolved predecessors' merged clocks, and how many are
    unresolved; whether a send may still be added; who waits on it).
    """

    __slots__ = (
        "record", "index", "proc_seq", "event", "machine", "pid", "process",
        "local_time", "proc_time", "sock", "msg_length", "dest", "source",
        "dest_host", "src_host", "sock_name", "peer_name", "new_sock",
        "proc", "in_matching", "matched",
        "clock", "acc", "wait", "open", "succ",
    )

    def __init__(self, record, index):
        get = record.get
        self.record = record
        self.index = index  # position in the trace file / commit order
        self.proc_seq = None  # position within the process: Trace, feed
        self.event = get("event")
        machine = self.machine = get("machine")
        pid = self.pid = get("pid")
        self.process = (machine, pid)
        self.local_time = get("cpuTime", 0)  # the machine's own clock
        self.proc_time = get("procTime", 0)  # CPU charged, 10 ms grain
        self.sock = get("sock")
        self.msg_length = get("msgLength", 0) or 0
        self.dest = get("destName") or None
        self.source = get("sourceName") or None
        self.dest_host = None  # literal hosts, parsed by the matcher
        self.src_host = None
        self.sock_name = get("sockName") or None
        self.peer_name = get("peerName") or None
        self.new_sock = get("newSock")
        self.proc = None  # the fold's per-process slot
        self.in_matching = False
        self.matched = False

    def name(self, field):
        value = self.record.get(field, "")
        return value if value else None

    def __getitem__(self, key):
        return self.record[key]

    def get(self, key, default=None):
        return self.record.get(key, default)

    def __repr__(self):
        return "Event({0}, {1}@m{2}, t={3})".format(
            self.event, self.pid, self.machine, self.local_time
        )


class CausalFold:
    """Online matching + vector clocks + the [Miller 84] communication
    counters behind one ``feed(event)`` (``update(record)`` decorates
    the record first).

    ``on_pair(send, recv, nbytes)`` fires per matched pair and
    ``on_clock(event, clock)`` once per event in dependency order.
    The counters live on the per-process slots (``procs``) and in
    ``pair_traffic``; :meth:`totals` and :meth:`per_process` answer
    from them."""

    def __init__(self, on_pair, on_clock, history=0):
        self.on_pair = on_pair
        self.clocks = OnlineVectorClocks(on_clock, history)
        #: (machine, pid) -> its ``clocks.Process`` slot, counters included
        self.procs = self.clocks.procs
        self.matcher = OnlineMatcher(
            on_pair=self._paired, on_recv_done=self.clocks.close
        )
        self.records = 0
        #: (send.proc, recv.proc) -> [matched pairs, bytes]
        self.pair_traffic = {}

    def update(self, record):
        """Consume one record; returns its :class:`Event`."""
        return self.feed(Event(record, self.records))

    def feed(self, event):
        """Consume one decorated event, in stream order (its ``index``
        is its position); assigns its ``proc`` and ``proc_seq``.  What
        an earlier fold left on the event (a trace's events outlive the
        matcher that fed them) is overwritten, not read."""
        proc = self.procs.get(event.process)
        if proc is None:
            proc = self.clocks.admit(event.process)
        event.proc = proc
        event.process = proc.process  # one tuple per process, not per event
        event.proc_seq = proc.next_seq
        event.in_matching = event.matched = event.open = False
        event.clock = event.acc = event.succ = None
        event.wait = 0
        proc.next_seq += 1
        self.records += 1
        kind = event.event
        proc.event_counts[kind] += 1
        if event.proc_time > proc.cpu_ms:
            proc.cpu_ms = event.proc_time
        if kind == "send":
            proc.bytes_sent += event.msg_length
            proc.messages_sent += 1
        elif kind == "receive":
            proc.bytes_received += event.msg_length
            proc.messages_received += 1
        elif kind == "socket":
            proc.sockets_created += 1
        # A receive's clock waits for the matcher to declare its send
        # dependencies complete; everything else only waits for program
        # order, and most of it resolves inside add().
        self.clocks.add(event, defer=(kind == "receive"))
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
        self.clocks.add_dep(recv, send)
        procs = (send.proc, recv.proc)
        entry = self.pair_traffic.get(procs)
        if entry is None:
            entry = self.pair_traffic[procs] = [0, 0]
        entry[0] += 1
        entry[1] += nbytes
        self.on_pair(send, recv, nbytes)

    # -- answers -------------------------------------------------------

    def totals(self):
        """Events, processes, machines, messages and bytes sent, pairs
        matched: the ``totals`` of the engine's ``digest()``."""
        procs = self.procs.values()
        return {
            "events": self.records,
            "processes": len(procs),
            "machines": len({proc.process[0] for proc in procs}),
            "messages_sent": sum(proc.messages_sent for proc in procs),
            "bytes_sent": sum(proc.bytes_sent for proc in procs),
            "matched_pairs": sum(
                entry[0] for entry in self.pair_traffic.values()
            ),
        }

    def per_process(self):
        """``"machine:pid"`` -> that process's counters, JSON-native."""
        return {proc.key: proc.counters() for proc in self.procs.values()}

    def state_size(self):
        """In-flight matching and clock state, plus one per process
        (its counters never shrink)."""
        return (
            self.matcher.state_size()
            + self.clocks.state_size()
            + len(self.procs)
        )
