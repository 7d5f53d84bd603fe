"""The streaming engine: every online analysis composed behind one
``update(record)`` fold.

The engine consumes exactly the records the filter *commits* -- after
batch-marker dedup, in log-append order -- so replaying the finished
log through a fresh engine must reproduce its state bit for bit.  That
replay is the post-mortem twin (:mod:`repro.streaming.twins`), and the
equality is this subsystem's correctness oracle.

Digests are order-independent (a commutative sum of scrambled CRCs):
the clock fold resolves events in dependency order, the naive reference
in file order, and both must hash to the same value.
"""

import json
import struct
import zlib

from repro.streaming.fold import CausalFold
from repro.streaming.queries import make_query
from repro.streaming.windows import WindowedStats

#: Default sliding-window width for windowed aggregates.
DEFAULT_WINDOW_MS = 500.0

#: Firings kept for polling; older ones fall off (the poll cursor
#: reports the latest sequence number so losses are detectable).
FIRING_BUFFER = 4096

#: Resolved clocks kept for O(1) happens-before queries.
CLOCK_HISTORY = 4096

#: How often (in records) in-flight state is sampled for ``peak_state``.
_STATE_SAMPLE = 256

_DIGEST_MOD = 1 << 64

#: clock width -> ``pack`` of the compiled "<(3 + width)q" struct.
_CLOCK_PACK = {}


def digest_add(acc, item):
    """Fold ``item`` into an order-independent 64-bit digest.

    Commutative (a modular sum), so the emission order of clocks and
    pairs -- which legitimately differs between the online fold and the
    naive reference -- cannot affect the result."""
    crc = zlib.crc32(repr(item).encode("utf-8"))
    return (acc + (crc + 1) * 2654435761) % _DIGEST_MOD


def clock_digest_add(acc, machine, pid, proc_seq, clock):
    """Fold one event's vector clock into the commutative digest.

    Called by the online fold and the batch twin alike: stripping the
    packed little-endian form's trailing zero bytes drops the trailing
    zero components, so the value does not depend on how many processes
    eventually appear.  A record whose machine/pid are not integers (a
    garbage or salvaged trace) contributes their ``repr`` instead."""
    width = len(clock)
    pack = _CLOCK_PACK.get(width)
    if pack is None:
        pack = _CLOCK_PACK[width] = struct.Struct("<%dq" % (3 + width)).pack
    try:
        data = pack(machine, pid, proc_seq, *clock)
    except struct.error:
        data = repr((machine, pid)).encode("utf-8") + struct.pack(
            "<%dq" % (1 + width), proc_seq, *clock
        )
    crc = zlib.crc32(data.rstrip(b"\0"))
    return (acc + (crc + 1) * 2654435761) % _DIGEST_MOD


def pair_digest_add(acc, send, recv, nbytes):
    """Fold one matched pair into the commutative digest; ``send`` and
    ``recv`` are any events with machine / pid / proc_seq."""
    return digest_add(
        acc,
        ("pair", send.machine, send.pid, send.proc_seq,
         recv.machine, recv.pid, recv.proc_seq, nbytes),
    )


class StreamEngine:
    """Live vector clocks + matching + windowed stats + queries."""

    def __init__(self, window_ms=DEFAULT_WINDOW_MS,
                 clock_history=CLOCK_HISTORY):
        self.window_ms = float(window_ms)
        self.fold = CausalFold(
            self._paired, self._clock_resolved, clock_history
        )
        self.windows = WindowedStats(self.window_ms)
        self.queries = {}
        self._next_qid = 1
        self.firings = []
        self.firing_seq = 0
        self.on_firing = None  # optional callback, e.g. live printing
        self.records = 0
        self.watermark = 0.0
        self.clock_digest = 0
        self.pairs_digest = 0
        self.peak_state = 0
        self._last_advance = 0.0
        self.finalized = False

    # -- the fold ------------------------------------------------------

    def update(self, record):
        """Consume one committed record."""
        # The watermark moves first: a pair this record completes is
        # stamped with it.
        time = record.get("cpuTime", 0)
        if time > self.watermark:
            self.watermark = time
        event = self.fold.update(record)
        self.windows.update(event, self.watermark)
        records = self.records = event.index + 1
        if self.queries:
            fire = self._fire
            for query in list(self.queries.values()):
                query.on_event(event, self.watermark, fire)
            if (
                self.watermark - self._last_advance >= 1.0
                or records % 128 == 0
            ):
                self._advance()
        if records % _STATE_SAMPLE == 0:
            size = self.state_size()
            if size > self.peak_state:
                self.peak_state = size
        return event

    def finalize(self, advance_queries=False):
        """End of stream: settle open matching/clock state.  The live
        filter never calls this (its stream has no end); the offline
        twin and the CLI verbs do."""
        if self.finalized:
            return self
        self.fold.finalize()
        if advance_queries:
            self._advance()
        self.windows.evict(self.watermark)
        size = self.state_size()
        if size > self.peak_state:
            self.peak_state = size
        self.finalized = True
        return self

    # -- fold plumbing -------------------------------------------------

    def _clock_resolved(self, event, clock):
        self.clock_digest = clock_digest_add(
            self.clock_digest, event.machine, event.pid, event.proc_seq, clock
        )

    def _paired(self, send, recv, nbytes):
        self.pairs_digest = pair_digest_add(
            self.pairs_digest, send, recv, nbytes
        )
        self.windows.on_pair(send, recv, nbytes, self.watermark)
        if self.queries:
            fire = self._fire
            for query in list(self.queries.values()):
                query.on_pair(send, recv, self.watermark, fire)

    def _advance(self):
        fire = self._fire
        for query in list(self.queries.values()):
            query.advance(self.watermark, fire)
        self._last_advance = self.watermark

    def _fire(self, query, details):
        self.firing_seq += 1
        firing = {
            "seq": self.firing_seq,
            "id": query.qid,
            "kind": query.kind,
            "at": round(self.watermark, 3),
        }
        firing.update(details)
        self.firings.append(firing)
        if len(self.firings) > FIRING_BUFFER:
            del self.firings[: len(self.firings) - FIRING_BUFFER]
        if self.on_firing is not None:
            self.on_firing(firing)

    # -- continuous queries --------------------------------------------

    def add_query(self, spec, qid=None):
        """Register a continuous query; returns its id.  Re-adding an
        id replaces the query (how the controller re-subscribes after a
        filter relaunch)."""
        if qid is None:
            qid = self._next_qid
        qid = int(qid)
        self._next_qid = max(self._next_qid, qid + 1)
        self.queries[qid] = make_query(qid, spec)
        return qid

    def remove_query(self, qid):
        return self.queries.pop(int(qid), None) is not None

    def poll(self, since=0):
        since = int(since)
        return {
            "firings": [f for f in self.firings if f["seq"] > since],
            "seq": self.firing_seq,
        }

    # -- answers -------------------------------------------------------

    def happens_before(self, a, b):
        """a, b: (machine, pid, proc_seq).  True/False, or None when
        the needed clock is unresolved or already evicted."""
        return self.fold.clocks.happens_before(tuple(a), tuple(b))

    def state_size(self):
        """In-flight state that *could* grow without eviction; the
        bound the benchmark holds against trace length."""
        size = self.fold.state_size() + self.windows.state_size()
        for query in self.queries.values():
            size += query.state_size()
        return size

    def snapshot(self):
        fold = self.fold
        return {
            "totals": fold.totals(),
            "per_process": fold.per_process(),
            "pair_traffic": {
                self.windows.pair_key(procs): list(entry)
                for procs, entry in fold.pair_traffic.items()
            },
            "window": self.windows.snapshot(self.watermark),
            "records": self.records,
            "watermark": round(self.watermark, 3),
            "state": {
                "size": self.state_size(),
                "peak": self.peak_state,
                "clocks_pending": fold.clocks.state_size(),
                "outstanding_sends": fold.matcher.outstanding_sends,
            },
            "queries": [q.describe() for q in self.queries.values()],
            "firings_buffered": len(self.firings),
        }

    def digest(self):
        """The oracle surface: order-independent digests plus the
        cumulative counters, all diffable against the post-mortem
        twins."""
        return {
            "records": self.records,
            "clocks_resolved": self.fold.clocks.resolved,
            "clock_digest": self.clock_digest,
            "pairs_digest": self.pairs_digest,
            "totals": self.fold.totals(),
            "per_process": self.fold.per_process(),
            "peak_state": self.peak_state,
            "state_size": self.state_size(),
        }


def serve_query(engine, request):
    """Execute one live-query request against ``engine``.

    The request is the decoded JSON body of a STREAM_QUERY meter frame
    (see :mod:`repro.streaming.protocol`); the reply is always a
    JSON-able dict with a ``status`` key."""
    if not isinstance(request, dict):
        return {"status": "error", "reason": "malformed query"}
    op = request.get("op")
    try:
        if op == "stats":
            return {"status": "ok", "result": engine.snapshot()}
        if op == "digest":
            return {"status": "ok", "result": engine.digest()}
        if op == "add":
            qid = engine.add_query(
                request.get("spec") or {}, qid=request.get("id")
            )
            return {"status": "ok", "id": qid}
        if op == "remove":
            removed = engine.remove_query(request.get("id", 0))
            return {"status": "ok", "removed": removed}
        if op == "poll":
            result = engine.poll(request.get("since", 0))
            return {"status": "ok", "firings": result["firings"],
                    "seq": result["seq"]}
        if op == "list":
            return {
                "status": "ok",
                "queries": [q.describe() for q in engine.queries.values()],
            }
        if op == "hb":
            verdict = engine.happens_before(
                request.get("a") or (), request.get("b") or ()
            )
            return {"status": "ok", "happens_before": verdict}
    except (ValueError, TypeError) as exc:
        return {"status": "error", "reason": str(exc)}
    return {"status": "error", "reason": "unknown op {0!r}".format(op)}


# -- human-readable rendering (controller and CLI) ---------------------


def format_snapshot(snap):
    """Render a snapshot as the controller's `stats` output lines."""
    totals = snap.get("totals", {})
    window = snap.get("window", {})
    pairs = window.get("pairs", {})
    state = snap.get("state", {})
    lines = [
        "live statistics at t={0:.0f}ms ({1} records)".format(
            snap.get("watermark", 0.0), snap.get("records", 0)
        ),
        "  totals: {events} events, {processes} processes on "
        "{machines} machines, {messages_sent} msgs / {bytes_sent} B "
        "sent, {matched_pairs} pairs matched".format(
            events=totals.get("events", 0),
            processes=totals.get("processes", 0),
            machines=totals.get("machines", 0),
            messages_sent=totals.get("messages_sent", 0),
            bytes_sent=totals.get("bytes_sent", 0),
            matched_pairs=totals.get("matched_pairs", 0),
        ),
        "  window {0:.0f}ms: {1} events ({2}/s), {3} active processes, "
        "{4} msgs / {5} B sent".format(
            window.get("window_ms", 0.0),
            window.get("events", 0),
            window.get("rate_per_s", 0.0),
            window.get("active_processes", 0),
            window.get("messages_sent", 0),
            window.get("bytes_sent", 0),
        ),
        "  window pairs: {0} matched, {1} B, lag mean {2}ms max "
        "{3}ms".format(
            pairs.get("count", 0),
            pairs.get("bytes", 0),
            pairs.get("lag_mean_ms", 0.0),
            pairs.get("lag_max_ms", 0.0),
        ),
    ]
    rates = window.get("pair_rates") or {}
    for key in sorted(rates):
        rate = rates[key]
        lines.append(
            "    {0}: {1} msgs, {2} B in window".format(
                key, rate.get("messages", 0), rate.get("bytes", 0)
            )
        )
    lines.append(
        "  state: {0} in flight (peak {1}), {2} clocks pending, "
        "{3} sends outstanding".format(
            state.get("size", 0),
            state.get("peak", 0),
            state.get("clocks_pending", 0),
            state.get("outstanding_sends", 0),
        )
    )
    queries = snap.get("queries") or []
    if queries:
        lines.append(
            "  queries: "
            + ", ".join(
                "W{0} ({1})".format(q.get("id"), q.get("kind"))
                for q in queries
            )
            + "; {0} firing(s) buffered".format(
                snap.get("firings_buffered", 0)
            )
        )
    return lines


def format_firing(firing):
    """One firing as a single report line."""
    extra = {
        key: value
        for key, value in firing.items()
        if key not in ("seq", "id", "kind", "at")
    }
    detail = json.dumps(extra, sort_keys=True)
    return "WATCH W{0} [{1}] at t={2:.0f}ms: {3}".format(
        firing.get("id"), firing.get("kind"), firing.get("at", 0.0), detail
    )
