"""Trace model: events as read back from a filter log file."""

from repro.filtering.records import parse_trace
from repro.streaming.fold import Event, sorted_machines  # re-exports Event


class Trace:
    """An ordered collection of events (one filter's log).

    Indexes (per process, per event type) are built once up front and
    the default :class:`~repro.analysis.matching.MessageMatcher` is
    cached, so the analysis suite over one trace pairs messages and
    scans for event types a single time no matter how many analyses
    run.
    """

    def __init__(self, records):
        self.events = [Event(record, i) for i, record in enumerate(records)]
        self._by_process = {}
        self._by_type = {}
        for event in self.events:
            seq = self._by_process.get(event.process)
            if seq is None:
                seq = self._by_process[event.process] = []
            else:
                # One tuple per process, not per event.
                event.process = seq[0].process
            event.proc_seq = len(seq)
            seq.append(event)
            self._by_type.setdefault(event.event, []).append(event)
        self._machines = None
        self._matcher = None

    @classmethod
    def from_text(cls, text):
        return cls(parse_trace(text))

    @classmethod
    def from_session(cls, session, filtername):
        return cls(session.read_trace(filtername))

    @classmethod
    def from_store(cls, reader, machines=None, pids=None, events=None,
                   t_min=None, t_max=None, salvage=False):
        """Build a trace by streaming a :class:`~repro.tracestore.
        StoreReader` scan.

        Records flow straight from the store's segments through the
        pushdown predicate into the trace: segments the footers rule
        out are never read, and records the predicate rejects are
        never materialized -- only the selection becomes Events.  With
        no predicate this is record-for-record identical to
        :meth:`from_text` on the equivalent text log.

        Integrity: strict by default -- a damaged segment raises
        :class:`~repro.tracestore.errors.CorruptSegmentError` rather
        than building a trace that silently differs from what was
        recorded.  With ``salvage=True`` the trace is built from every
        verifiable frame and ``reader.last_stats`` quantifies the loss
        (``bytes_quarantined`` / ``frames_corrupt``) -- answers with
        error bars instead of a crash or a lie.

        Decoding goes through the batch fast lane
        (:func:`~repro.tracestore.scan_fast`), which is record-for-
        record identical to ``reader.scan`` -- trace construction is
        the all-records scan the fused decoder was built for.
        """
        from repro.tracestore import scan_fast

        return cls(
            scan_fast(
                reader,
                machines=machines,
                pids=pids,
                events=events,
                t_min=t_min,
                t_max=t_max,
                salvage=salvage,
            )
        )

    @classmethod
    def from_stores(cls, *readers, **predicates):
        """One trace from several filters' stores, interleaved by the
        k-way (cpuTime, machine) merge of :func:`~repro.tracestore.
        merge_scan_fast` (the streaming analogue of :meth:`merge`)."""
        from repro.tracestore import merge_scan_fast

        return cls(merge_scan_fast(readers, **predicates))

    @classmethod
    def merge(cls, *traces):
        """Merge several filters' traces into one.

        Section 3.4 allows one filter per computation; a study spanning
        several computations (or several filters for load spreading)
        merges their logs before analysis.  Records are interleaved by
        (machine, local time), which is only a heuristic order across
        machines -- the analyses that care use happens-before, not
        record order across machines.
        """
        records = [event.record for trace in traces for event in trace]
        records.sort(key=lambda r: (r.get("cpuTime", 0), r.get("machine", 0)))
        return cls(records)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def processes(self):
        """All (machine, pid) pairs seen, in first-appearance order."""
        return list(self._by_process)

    def events_for(self, process):
        return list(self._by_process.get(process, []))

    def by_type(self, event_name):
        return list(self._by_type.get(event_name, []))

    def machines(self):
        """Every machine id seen, in ``sorted_machines`` order."""
        if self._machines is None:
            self._machines = sorted_machines(
                {event.machine for event in self.events}
            )
        return list(self._machines)

    def matcher(self):
        """The shared default matcher for this trace, built on first
        use -- analyses constructed without an explicit matcher all
        reuse this one pairing."""
        if self._matcher is None:
            from repro.analysis.matching import MessageMatcher

            self._matcher = MessageMatcher(self)
        return self._matcher
