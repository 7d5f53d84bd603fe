"""Event ordering and clock-skew estimation (Section 4.1).

"The separate machines' times ... only roughly correspond to a global
time.  Statements regarding the global ordering of events can only be
made on the basis of evidence within the trace.  For example, since a
message must be sent before it may be received, the times of sending
and receiving a message can always be ordered relative to one another.
Given these constraints, much of the global ordering can be deduced."

:class:`HappensBefore` is a view over per-event **vector clocks** of
the Lamport partial order (program order per process plus matched
send->receive edges), resolved by the fold run that pairs the messages
(:class:`~repro.analysis.matching.MessageMatcher`), which stores each
as a *base* shared along program order (:mod:`repro.streaming.clocks`).
A clock comparison answers ordering queries in O(1) and the whole
ordered-fraction study in O(events + receives x processes) -- no
transitive closure is ever materialized, so memory stays linear in the
trace.  The happens-before DAG itself is still available (built
lazily) for :meth:`HappensBefore.consistent_global_order`'s
topological sort and for graph algorithms; only those two import
networkx.

:func:`estimate_clock_skews` recovers approximate relative clock
offsets from the send/receive pairs, in the spirit of TEMPO (Gusella
& Zatti 83).
"""

from collections import Counter


class HappensBefore:
    """The happens-before partial order over a trace."""

    def __init__(self, trace, matcher=None):
        self.trace = trace
        self.matcher = matcher or trace.matcher()
        self._graph = None
        #: process -> clock component index (first-appearance order,
        #: the order the fold assigned them in).
        self._component = {p: i for i, p in enumerate(trace.processes())}

    def vector_clock(self, event):
        """The event's vector clock as a tuple: component i counts the
        events of the i-th process (in ``trace.processes()`` order)
        that happen before (or at) this event."""
        clock = self.matcher.clocks[event.index]
        own = self._component[event.process]
        return (
            clock[:own] + (event.proc_seq + 1,) + clock[own + 1:]
            + (0,) * (len(self._component) - len(clock))
        )

    @property
    def graph(self):
        """The happens-before DAG (program order + message edges),
        built on first use; ordering queries never need it."""
        if self._graph is None:
            import networkx as nx

            graph = nx.DiGraph()
            graph.add_nodes_from(range(len(self.trace)))
            for process in self.trace.processes():
                indices = [e.index for e in self.trace.events_for(process)]
                graph.add_edges_from(zip(indices, indices[1:]))
            graph.add_edges_from(
                (pair.send.index, pair.recv.index)
                for pair in self.matcher.pairs
            )
            self._graph = graph
        return self._graph

    # -- queries -------------------------------------------------------

    def happens_before(self, event_a, event_b):
        """Whether ``event_a`` -> ``event_b`` is deducible.  O(1): program
        order, or one clock-component comparison."""
        if event_a.index == event_b.index:
            return False
        if event_a.process == event_b.process:
            return event_a.proc_seq < event_b.proc_seq
        # a -> b iff b's component for a's process has reached a's own
        # value (b's base holds b's clock there); a dense clock too
        # short to have that component has seen nothing of a's process.
        clock_b = self.matcher.clocks[event_b.index]
        component = self._component[event_a.process]
        return (
            component < len(clock_b)
            and clock_b[component] >= event_a.proc_seq + 1
        )

    def concurrent(self, event_a, event_b):
        """Neither ordered before the other: truly concurrent (or the
        trace lacks the evidence)."""
        return (
            event_a.index != event_b.index
            and not self.happens_before(event_a, event_b)
            and not self.happens_before(event_b, event_a)
        )

    def ordered_fraction(self):
        """Fraction of cross-machine event pairs the trace can order.

        This is the paper's "much of the global ordering can be
        deduced" made quantitative (bench P5).  Summing an event's
        clock components over other-machine processes counts every
        ordered cross-machine pair exactly once, at its later event.
        Those components leave out the event's own, so they are the
        same for every event sharing a base: each run of a shared base
        is summed once, O(N + R x P) for R receives.
        """
        clocks = self.matcher.clocks
        trace = self.trace
        per_machine = Counter(event.machine for event in trace.events)
        n = len(trace)
        total = n * (n - 1) // 2 - sum(
            count * (count - 1) // 2 for count in per_machine.values()
        )
        if total == 0:
            return 1.0
        ordered = 0
        processes = trace.processes()
        for process in processes:
            # The components to leave out are the same for every event
            # of a process: those of its own machine's processes.
            same = [
                component
                for component, (machine, __pid) in enumerate(processes)
                if machine == process[0]
            ]
            last = None
            for event in trace.events_for(process):
                clock = clocks[event.index]
                if clock is not last:
                    last = clock
                    value = sum(clock)
                    for component in same:
                        if component < len(clock):
                            value -= clock[component]
                ordered += value
        return ordered / total

    def consistent_global_order(self):
        """One total order consistent with happens-before, breaking
        ties by (skew-corrected) local timestamps."""
        import networkx as nx

        skews = estimate_clock_skews(self.trace, self.matcher)

        def key(index):
            event = self.trace.events[index]
            return (event.local_time - skews.get(event.machine, 0.0), index)

        return [
            self.trace.events[index]
            for index in nx.lexicographical_topological_sort(self.graph, key=key)
        ]

    def violates_causality(self):
        """Send/receive pairs whose raw local timestamps run backwards:
        direct evidence of clock skew (receive stamped before send)."""
        return [
            pair
            for pair in self.matcher.pairs
            if pair.recv.local_time < pair.send.local_time
        ]


def estimate_clock_models(trace, matcher=None, reference=None):
    """Full linear clock models per machine: local ~ offset + rate * ref.

    Where :func:`estimate_clock_skews` recovers constant offsets, this
    also recovers *drift*: for each machine B with two-way traffic to
    the reference A, matched pairs constrain B's clock from both sides
    (a message's receive stamp is at least its send stamp plus zero
    delay, in both directions).  Fitting a line through the forward
    pairs and another through the reverse pairs and averaging them
    splits the (assumed symmetric) network delay out -- the TEMPO idea
    extended to rates.

    Returns {machine id: (offset_ms, rate)} with the reference machine
    mapped to (0.0, 1.0).  Machines without two-way traffic to the
    reference fall back to offset-only estimates.
    """
    import numpy as np

    matcher = matcher or trace.matcher()
    machines = trace.machines()
    if not machines:
        return {}
    if reference is None:
        reference = machines[0]
    models = {reference: (0.0, 1.0)}

    by_pair = {}
    for pair in matcher.pairs:
        key = (pair.send.machine, pair.recv.machine)
        by_pair.setdefault(key, []).append(
            (pair.send.local_time, pair.recv.local_time)
        )

    fallback = estimate_clock_skews(trace, matcher, reference=reference)
    for machine in machines:
        if machine == reference:
            continue
        forward = by_pair.get((reference, machine), [])  # (ref t, b t)
        reverse = [
            (a, b) for b, a in by_pair.get((machine, reference), [])
        ]  # -> (ref t, b t)
        if len(forward) >= 2 and len(reverse) >= 2:
            m1, c1 = np.polyfit(*zip(*forward), 1)
            m2, c2 = np.polyfit(*zip(*reverse), 1)
            rate = (m1 + m2) / 2.0
            offset = (c1 + c2) / 2.0
            models[machine] = (float(offset), float(rate))
        else:
            models[machine] = (fallback.get(machine, 0.0), 1.0)
    return models


def estimate_clock_skews(trace, matcher=None, reference=None):
    """Relative clock offsets per machine, from message pairs.

    For machines A, B with matched messages in both directions, the
    minimum observed (recv_local - send_local) in each direction bounds
    the offset: offset ~ (min_fwd - min_rev) / 2, assuming roughly
    symmetric network delay (the TEMPO assumption).  Offsets are
    reported relative to ``reference`` (default: lowest machine id);
    machines connected only indirectly are resolved transitively.

    Returns {machine id: offset_ms}; subtract the offset from a
    machine's local timestamps to align them.
    """
    matcher = matcher or trace.matcher()
    deltas = {}
    for pair in matcher.pairs:
        key = (pair.send.machine, pair.recv.machine)
        if key[0] == key[1]:
            continue
        delta = pair.recv.local_time - pair.send.local_time
        if key not in deltas or delta < deltas[key]:
            deltas[key] = delta

    # The undirected offset graph: machine -> {neighbour: edge}, both
    # ends sharing one ``(offset_ab, a)`` edge.  Neighbours keep their
    # first-link order and a later write of an edge replaces it.
    adjacent = {}
    for (a, b), fwd in deltas.items():
        rev = deltas.get((b, a))
        if rev is None:
            continue
        # local_B - local_A ~ (fwd - rev) / 2
        edge = ((fwd - rev) / 2.0, a)
        adjacent.setdefault(a, {})[b] = edge
        adjacent.setdefault(b, {})[a] = edge

    machines = trace.machines()
    if reference is None:
        reference = machines[0] if machines else None
    skews = {machine: 0.0 for machine in machines}
    if reference is None or reference not in adjacent:
        return skews
    seen = {reference}
    frontier = [reference]
    while frontier:
        current = frontier.pop()
        for neighbor, (offset, a) in adjacent[current].items():
            if neighbor in seen:
                continue
            if a != current:
                offset = -offset
            skews[neighbor] = skews[current] + offset
            seen.add(neighbor)
            frontier.append(neighbor)
    return skews
