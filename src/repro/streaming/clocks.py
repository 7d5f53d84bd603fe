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
happen before or at the event; the event's own component is
``proc_seq + 1``.  Clocks are dense tuples that stop at their last
nonzero component (an event's own component is never zero, and a
merge is as long as its longer operand), so they are independent of
how many processes eventually appear.

What an event stores (``event.clock``, and what ``on_resolve`` hands
out) is its clock's *base*: the clock with the own component
(``proc.component``) left implicit.  Only a process's first event and
a receive that merged a send change any other component, so only those
build a tuple; every other event shares its program-order
predecessor's, and a base costs O(processes + receives) tuples for the
whole stream rather than one per event.  A base is at least
``component + 1`` long, is otherwise the clock itself, and holds in its
own component a value no larger than the event's.  :func:`true_clock`
writes the own component back (the hot readers do it inline).
"""

from collections import Counter, deque


def process_key(machine, pid):
    return "{0}:{1}".format(machine, pid)


def true_clock(event):
    """``event``'s dense vector clock, or None while it is unresolved:
    its base with the own component written.  For tests and rare
    queries; the per-event readers write the component inline."""
    clock = event.clock
    if clock is None:
        return None
    own = event.proc.component
    return clock[:own] + (event.proc_seq + 1,) + clock[own + 1:]


def _merge(acc, other):
    """Componentwise max of two dense clocks or bases (tuples or
    lists), as a new list."""
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
    """Incremental vector clocks with happens-before queries.

    ``on_resolve(event, clock)`` fires once per event, in dependency
    order (not arrival order -- a digest over resolutions must be
    order-independent); ``clock`` is the event's base (the module
    docstring), the object its ``clock`` slot holds, and events that
    share it share the object.  The last ``history`` resolved bases
    are kept for :meth:`clock_of` and :meth:`happens_before` (none when
    ``history`` is not positive); everything older is evicted, so
    memory is bounded by the in-flight frontier plus that window.
    """

    def __init__(self, on_resolve, history):
        self.on_resolve = on_resolve
        #: (machine, pid) -> Process; clock components are handed out
        #: in first-appearance order (matches ``Trace.processes()``).
        self.procs = {}
        #: Events whose predecessors have all resolved, to be resolved
        #: by :meth:`drain` (the fold calls it only when this is not
        #: empty).
        self.ready = deque()
        self._unresolved = {}  # event index -> queued event, for finalize
        self.resolved = 0
        self._history_len = int(history)
        #: The last ``history`` resolved bases, oldest first:
        #: (machine, pid, proc_seq, base).
        self._history = deque(maxlen=max(self._history_len, 0))

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
        """A matched send happens before ``event`` (a receive).  A
        resolved send's clock is merged as its base, with the send's
        own component written into the merged copy."""
        if send is event or event.clock is not None:
            return
        clock = send.clock
        if clock is not None:
            acc = event.acc
            acc = list(clock) if acc is None else _merge(acc, clock)
            own = send.proc.component
            if acc[own] <= send.proc_seq:
                acc[own] = send.proc_seq + 1
            event.acc = acc
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
            self.ready.append(event)

    def drain(self):
        """Resolve every queued event whose predecessors are resolved."""
        ready = self.ready
        while ready:
            event = ready.popleft()
            if event.clock is None:
                self._resolve(event)

    def _stamp(self, event, acc):
        """Resolve ``event`` on ``acc``: its program-order predecessor's
        base (a tuple, shared as ``event``'s own), its predecessors'
        merged clocks (a list of its own, which gets the own component
        and becomes a tuple), or None (a process's first event)."""
        if type(acc) is not tuple:
            own = event.proc.component
            clock = acc or []
            if own >= len(clock):  # the process is new to ``acc``
                clock += [0] * (own + 1 - len(clock))
            clock[own] = event.proc_seq + 1
            acc = tuple(clock)
        clock = event.clock = acc
        self.resolved += 1
        if self._history_len > 0:
            self._history.append(
                (event.machine, event.pid, event.proc_seq, clock)
            )
        self.on_resolve(event, clock)

    def _resolve(self, event):
        """Resolve a queued event and release what waited on it."""
        del self._unresolved[event.index]
        acc, event.acc = event.acc, None
        self._stamp(event, acc)
        succ = event.succ
        if succ:
            event.succ = None
            clock = event.clock
            proc = event.proc
            for later in succ:
                if later.clock is not None:
                    continue
                acc = later.acc
                if later.proc is proc:
                    # Program order: the component the base leaves
                    # implicit is ``later``'s own as well.
                    later.acc = clock if acc is None else _merge(acc, clock)
                else:
                    # A receive of another process: write the send's
                    # own component into the merged copy.
                    acc = list(clock) if acc is None else _merge(acc, clock)
                    own = proc.component
                    if acc[own] <= event.proc_seq:
                        acc[own] = event.proc_seq + 1
                    later.acc = acc
                later.wait -= 1
                if later.wait == 0 and not later.open:
                    self.ready.append(later)

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
        base = self._clock((machine, pid, proc_seq))
        if base is None:
            return None
        own = self.procs[(machine, pid)].component
        return base[:own] + (proc_seq + 1,) + base[own + 1:]

    def _clock(self, key):
        """A scan from the newest end: queries are rare, resolutions
        happen once per event."""
        for entry in reversed(self._history):
            if entry[:3] == key:
                return entry[3]
        return None

    def happens_before(self, a, b):
        """Whether a -> b is deducible; a and b are (machine, pid,
        proc_seq) triples.  Program order for a same-process pair, else
        one compare against a component of b's base (which is b's
        clock there), after finding it in the history.  Returns None
        when b's clock is unavailable (unresolved or evicted)."""
        a = tuple(a)
        b = tuple(b)
        if a == b:
            return False
        clock_b = self._clock(b)
        if clock_b is None:
            return None
        if a[:2] == b[:2]:
            return a[2] < b[2]
        proc = self.procs.get((a[0], a[1]))
        if proc is None or proc.component >= len(clock_b):
            return False  # b's clock has seen nothing of a's process
        return clock_b[proc.component] >= a[2] + 1

    def state_size(self):
        """In-flight state only: the bounded history is excluded so
        growth here means the frontier itself is growing."""
        return len(self._unresolved)
