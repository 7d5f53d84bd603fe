"""Online vector clocks: Section 4.1's ordering deduction as a fold.

An event's clock cannot be emitted until every predecessor's clock is
known: the previous event of its process, plus -- for a receive --
every matched send.  Sends are paired with receives by the online
matcher, possibly *after* the receive arrived, so receives are added
"open" and stay unresolved until the matcher declares their send
dependencies complete (stream bytes fully covered, datagram claimed, or
session finalized).  Everything else resolves as soon as its
program-order predecessor has: on arrival, if that one already has.
What an event waits with lives in its own slots (``fold.Event``).

Component ``i`` of a clock counts the events of the ``i``-th process
(first-appearance order, identical to ``Trace.processes()``) that
happen before or at the event; the event's own component is forced to
``proc_seq + 1`` after the merge.  Clocks are dense tuples that stop at
their last nonzero component (an event's own component is never zero,
and a merge is as long as its longer operand), so they are independent
of how many processes eventually appear.  Tuples are immutable, which
is what lets a program-order successor *share* its predecessor's clock
until it resolves and writes its own component into a copy.
"""

from collections import Counter, OrderedDict, deque


def process_key(machine, pid):
    return "{0}:{1}".format(machine, pid)


def _merge(acc, other):
    """Componentwise max of two dense clocks (an ``acc``: tuple or
    list); ``acc`` may be None."""
    if acc is None:
        return other
    if len(acc) < len(other):
        acc, other = other, acc
    merged = [a if a > b else b for a, b in zip(acc, other)]
    merged += acc[len(other):]
    return merged


class Process:
    """What the folds keep per process, found with one lookup per
    record and carried on the event as ``proc``: its clock state and
    its [Miller 84] communication counters (``CausalFold.feed`` counts,
    ``CommunicationStatistics.per_process`` and the live ``stats`` reply
    read them)."""

    __slots__ = (
        "component", "process", "next_seq", "last", "key", "event_counts",
        "bytes_sent", "bytes_received", "messages_sent", "messages_received",
        "sockets_created", "cpu_ms",
    )

    def __init__(self, component, process):
        self.component = component  # vector-clock index
        self.process = process  # the (machine, pid) its events share
        self.next_seq = 0
        self.last = None  # most recent event (program order)
        self.key = process_key(*process)  # its name in JSON answers
        self.event_counts = Counter()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.sockets_created = 0
        self.cpu_ms = 0  # the largest procTime seen

    def counters(self):
        """The counters, JSON-native (one ``per_process`` entry of the
        engine's ``digest()``)."""
        return {
            "events": dict(self.event_counts),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "sockets_created": self.sockets_created,
            "cpu_ms": self.cpu_ms,
        }


class OnlineVectorClocks:
    """Incremental vector clocks with O(1) happens-before queries.

    ``on_resolve(event, clock)`` fires once per event, in dependency
    order (not arrival order -- a digest over resolutions must be
    order-independent).  The last ``history`` resolved clocks are kept
    for :meth:`happens_before` (none when ``history`` is not positive);
    everything older is evicted, so memory is bounded by the in-flight
    frontier plus that window.
    """

    def __init__(self, on_resolve, history):
        self.on_resolve = on_resolve
        #: (machine, pid) -> Process; clock components are handed out
        #: in first-appearance order (matches ``Trace.processes()``).
        self.procs = {}
        self._ready = deque()
        self._unresolved = {}  # event index -> queued event, for finalize
        self.resolved = 0
        self._history_len = int(history)
        self._history = OrderedDict()  # (machine, pid, proc_seq) -> clock

    def admit(self, process):
        """The slot of a ``(machine, pid)`` seen for the first time."""
        proc = self.procs[process] = Process(len(self.procs), process)
        return proc

    # -- building the order --------------------------------------------

    def add(self, event, defer=False):
        """Admit ``event`` (its clock slots reset by ``feed``, its
        ``proc`` carrying the process's ``component`` and ``last``
        event).  It resolves here if no ``defer`` and no unresolved
        predecessor hold it; else it waits in ``_unresolved``."""
        proc = event.proc
        prev = proc.last
        proc.last = event
        if prev is None or prev.clock is not None:
            acc = None if prev is None else prev.clock
            if not defer:
                self._stamp(event, acc)
                return
            event.acc = acc
        else:
            event.wait = 1
            if prev.succ is None:
                prev.succ = []
            prev.succ.append(event)
        event.open = defer
        self._unresolved[event.index] = event

    def add_dep(self, event, send):
        """A matched send happens before ``event`` (a receive)."""
        if send is event or event.clock is not None:
            return
        if send.clock is not None:
            event.acc = _merge(event.acc, send.clock)
        else:
            event.wait += 1
            if send.succ is None:
                send.succ = []
            send.succ.append(event)

    def close(self, event):
        """The matcher declares all of ``event``'s send deps added."""
        if not event.open:
            return
        event.open = False
        if event.wait == 0 and event.clock is None:
            self._ready.append(event)

    def drain(self):
        """Resolve every queued event whose predecessors are resolved."""
        ready = self._ready
        while ready:
            event = ready.popleft()
            if event.clock is None:
                self._resolve(event)

    def _stamp(self, event, acc):
        """``event``'s clock: a copy of ``acc`` (its predecessors'
        merged clocks, or None) with its own component written."""
        own = event.proc.component
        clock = list(acc or ())
        if own >= len(clock):  # the process is new to ``acc``
            clock += [0] * (own + 1 - len(clock))
        clock[own] = event.proc_seq + 1
        clock = event.clock = tuple(clock)
        self.resolved += 1
        if self._history_len > 0:
            history = self._history
            history[(event.machine, event.pid, event.proc_seq)] = clock
            if len(history) > self._history_len:
                history.popitem(last=False)
        self.on_resolve(event, clock)

    def _resolve(self, event):
        """Resolve a queued event and release what waited on it."""
        del self._unresolved[event.index]
        acc, event.acc = event.acc, None
        self._stamp(event, acc)
        succ = event.succ
        if succ:
            event.succ = None
            for later in succ:
                if later.clock is not None:
                    continue
                later.acc = _merge(later.acc, event.clock)
                later.wait -= 1
                if later.wait == 0 and not later.open:
                    self._ready.append(later)

    def finalize(self):
        """Resolve any leftovers best-effort, in arrival order -- the
        escape hatch for cyclic or truncated evidence.  A correctly
        closed stream leaves nothing here."""
        self.drain()
        while self._unresolved:
            stuck = self._unresolved[min(self._unresolved)]
            stuck.open = False
            self._resolve(stuck)
            self.drain()

    # -- queries -------------------------------------------------------

    def clock_of(self, machine, pid, proc_seq):
        """The (dense) clock of one event, or None if it has not yet
        resolved or has left the history window."""
        return self._history.get((machine, pid, proc_seq))

    def happens_before(self, a, b):
        """Whether a -> b is deducible; a and b are (machine, pid,
        proc_seq) triples.  O(1): one clock-component lookup.  Returns
        None when b's clock is unavailable (unresolved or evicted)."""
        a = tuple(a)
        b = tuple(b)
        if a == b:
            return False
        clock_b = self._history.get(b)
        if clock_b is None:
            return None
        proc = self.procs.get((a[0], a[1]))
        if proc is None or proc.component >= len(clock_b):
            return False  # b's clock has seen nothing of a's process
        return clock_b[proc.component] >= a[2] + 1

    def state_size(self):
        """In-flight state only: the bounded history is excluded so
        growth here means the frontier itself is growing."""
        return len(self._unresolved)
