"""Continuous queries: rule-like predicates over event patterns that
fire while the session runs.

Each query is itself a fold with bounded state.  Firings are *edge
triggered* (a condition fires once when it becomes true and re-arms
when it stops holding), timed against the engine watermark -- the
largest local timestamp seen so far.  Under skewed clocks that
watermark is optimistic, which is exactly why the drift benchmark
measures precision/recall of these firings instead of declaring them
exact.

Kinds:

- ``undelivered``: a send that entered matching is still unmatched
  ``window_ms`` after its send timestamp.  Fires once per send.
- ``pattern``: at least ``count`` records matching a filter-rule
  predicate (``repro.filtering.rules`` syntax, e.g.
  ``event=send,msgLength>=400``) within the window.
- ``quiet``: a process produced no record for ``window_ms`` (process
  termination disarms it -- ended is not stuck).
- ``rate``: at least ``threshold`` records (optionally of one event
  kind) from one machine within the window.
"""

from collections import deque

from repro.filtering.rules import parse_rules
from repro.streaming.clocks import process_key

DEFAULT_QUERY_WINDOW_MS = 500.0

QUERY_KINDS = ("undelivered", "pattern", "quiet", "rate")


class Query:
    """Base: a no-op query.  Subclasses override the hooks they need;
    ``fire(query, details)`` is supplied by the engine."""

    kind = "?"

    def __init__(self, qid, spec):
        self.qid = qid
        self.spec = dict(spec)
        # "window" is the command-line spelling, "window_ms" the
        # programmatic one; either sets the window.
        self.window_ms = float(
            self.spec.get(
                "window_ms",
                self.spec.get("window", DEFAULT_QUERY_WINDOW_MS),
            )
        )

    def on_event(self, event, watermark, fire):
        pass

    def on_pair(self, send, recv, watermark, fire):
        pass

    def advance(self, watermark, fire):
        """Watermark moved with no triggering record: expire state."""
        pass

    def describe(self):
        return {"id": self.qid, "kind": self.kind, "spec": self.spec}

    def state_size(self):
        return 0


class UndeliveredQuery(Query):
    kind = "undelivered"

    def __init__(self, qid, spec):
        Query.__init__(self, qid, spec)
        #: (machine, pid, proc_seq) -> send event, unmatched so far
        self.pending = {}

    def on_event(self, event, watermark, fire):
        if event.event == "send" and event.in_matching and not event.matched:
            key = (event.machine, event.pid, event.proc_seq)
            self.pending[key] = event

    def on_pair(self, send, recv, watermark, fire):
        self.pending.pop((send.machine, send.pid, send.proc_seq), None)

    def advance(self, watermark, fire):
        if not self.pending:
            return
        cutoff = watermark - self.window_ms
        expired = [
            key
            for key, event in self.pending.items()
            if event.local_time <= cutoff
        ]
        for key in expired:
            event = self.pending.pop(key)
            fire(
                self,
                {
                    "process": process_key(event.machine, event.pid),
                    "proc_seq": event.proc_seq,
                    "sent_at": event.local_time,
                    "length": event.msg_length,
                    "dest": event.dest or "",
                },
            )

    def state_size(self):
        return len(self.pending)


class PatternQuery(Query):
    kind = "pattern"

    def __init__(self, qid, spec):
        Query.__init__(self, qid, spec)
        self.rule_text = str(self.spec.get("rule", "") or "").strip()
        #: An empty rule set accepts everything -- same convention as
        #: the filter itself.
        self.ruleset = parse_rules(self.rule_text)
        self.count = max(1, int(self.spec.get("count", 1)))
        self.times = deque()
        self.armed = True

    def _evict(self, watermark):
        cutoff = watermark - self.window_ms
        times = self.times
        while times and times[0] <= cutoff:
            times.popleft()
        if len(times) < self.count:
            self.armed = True

    def on_event(self, event, watermark, fire):
        if self.ruleset.apply(event.record) is None:
            self._evict(watermark)
            return
        self.times.append(event.local_time)
        self._evict(watermark)
        if self.armed and len(self.times) >= self.count:
            self.armed = False
            fire(self, {"rule": self.rule_text, "count": len(self.times)})

    def advance(self, watermark, fire):
        self._evict(watermark)

    def state_size(self):
        return len(self.times)


class QuietQuery(Query):
    kind = "quiet"

    def __init__(self, qid, spec):
        Query.__init__(self, qid, spec)
        self.last = {}  # process key -> last local time
        self.armed = {}

    def on_event(self, event, watermark, fire):
        key = process_key(event.machine, event.pid)
        if event.event == "termproc":
            self.last.pop(key, None)
            self.armed.pop(key, None)
            return
        self.last[key] = event.local_time
        self.armed[key] = True

    def advance(self, watermark, fire):
        cutoff = watermark - self.window_ms
        for key, time in self.last.items():
            if time <= cutoff and self.armed.get(key):
                self.armed[key] = False
                fire(self, {"process": key, "last_event_at": time})

    def state_size(self):
        return len(self.last)


class RateQuery(Query):
    kind = "rate"

    def __init__(self, qid, spec):
        Query.__init__(self, qid, spec)
        self.threshold = max(1, int(self.spec.get("threshold", 100)))
        self.event_kind = self.spec.get("event") or None
        self.times = {}  # machine -> deque of times
        self.armed = {}

    def _evict(self, machine, watermark):
        cutoff = watermark - self.window_ms
        times = self.times.get(machine)
        if times is None:
            return 0
        while times and times[0] <= cutoff:
            times.popleft()
        if len(times) < self.threshold:
            self.armed[machine] = True
        return len(times)

    def on_event(self, event, watermark, fire):
        if self.event_kind and event.event != self.event_kind:
            return
        times = self.times.setdefault(event.machine, deque())
        times.append(event.local_time)
        count = self._evict(event.machine, watermark)
        if count >= self.threshold and self.armed.get(event.machine, True):
            self.armed[event.machine] = False
            fire(
                self,
                {
                    "machine": event.machine,
                    "count": count,
                    "event": self.event_kind or "*",
                },
            )

    def advance(self, watermark, fire):
        for machine in self.times:
            self._evict(machine, watermark)

    def state_size(self):
        return sum(len(times) for times in self.times.values())


_KINDS = {
    UndeliveredQuery.kind: UndeliveredQuery,
    PatternQuery.kind: PatternQuery,
    QuietQuery.kind: QuietQuery,
    RateQuery.kind: RateQuery,
}


def make_query(qid, spec):
    kind = str(spec.get("kind", "") or "")
    factory = _KINDS.get(kind)
    if factory is None:
        raise ValueError(
            "unknown query kind {0!r}; known: {1}".format(
                kind, " ".join(QUERY_KINDS)
            )
        )
    return factory(qid, spec)
