"""Post-mortem twins: the oracle for every online analysis.

The streaming engine consumes exactly the record stream the filter
commits, in commit order; the finished log *is* that stream.  So every
online analysis has two independent checks:

- **Replay twin** -- fold the finished log through a fresh
  :class:`~repro.streaming.engine.StreamEngine`.  Bit-for-bit equality
  with the live engine proves the tap fed the fold exactly the
  committed records (no drops, no double-counted replays).
- **Batch twin** -- run the original :mod:`repro.analysis` passes over
  the same records and digest their results the same way.  Equality
  proves the *incremental* algorithms compute the same answers as the
  reference batch algorithms.

The batch analysis imports are kept inside functions: the streaming
package itself must stay importable inside a filter guest without the
analysis stack's heavy dependencies.
"""

import json

from repro.streaming.engine import StreamEngine, clock_digest_add, digest_add


def replay_engine(records, window_ms=None, specs=None):
    """Fold ``records`` through a fresh engine (the replay twin).

    ``specs`` optionally registers continuous queries as ``(qid, spec)``
    pairs before the replay, so query state replays too."""
    kwargs = {} if window_ms is None else {"window_ms": window_ms}
    engine = StreamEngine(**kwargs)
    for qid, spec in specs or ():
        engine.add_query(spec, qid=qid)
    for record in records:
        engine.update(record)
    return engine


def replay_store(reader, window_ms=None, specs=None, salvage=False):
    """Replay twin fed straight from a binary store.

    Store-mode filters commit records in frame order, so folding a
    :func:`~repro.tracestore.scan_fast` of the finished store through a
    fresh engine is the same oracle :func:`replay_engine` computes from
    a text log -- but decoded on the batch fast lane, which matters
    when the twin check runs over a multi-million-record store."""
    from repro.tracestore import scan_fast

    return replay_engine(
        scan_fast(reader, salvage=salvage), window_ms=window_ms, specs=specs
    )


def batch_clock_digest(trace):
    """Digest the batch HappensBefore clocks with the helper the online
    fold digests its own with (it discounts the batch clocks' trailing
    zero components)."""
    from repro.analysis.ordering import HappensBefore

    ordering = HappensBefore(trace)
    digest = 0
    for event in trace:
        digest = clock_digest_add(
            digest,
            event.machine,
            event.pid,
            event.proc_seq,
            ordering.vector_clock(event),
        )
    return digest


def batch_pairs_digest(trace):
    """Digest the batch matcher's pair set the online way."""
    digest = 0
    for pair in trace.matcher().pairs:
        digest = digest_add(
            digest,
            (
                "pair",
                pair.send.machine,
                pair.send.pid,
                pair.send.proc_seq,
                pair.recv.machine,
                pair.recv.pid,
                pair.recv.proc_seq,
                pair.nbytes,
            ),
        )
    return digest


def batch_per_process(trace, stats=None):
    """CommunicationStatistics per-process counters, keyed and shaped
    like the engine's (JSON-native)."""
    from repro.analysis.stats import CommunicationStatistics

    if stats is None:
        stats = CommunicationStatistics(trace)
    shaped = {}
    for (machine, pid), pstats in stats.per_process.items():
        as_dict = pstats.as_dict()
        as_dict.pop("process")
        shaped["{0}:{1}".format(machine, pid)] = dict(
            as_dict, events=dict(as_dict["events"])
        )
    return shaped


def batch_digest(trace):
    """Every batch-twin answer in the engine's ``digest()`` shape."""
    from repro.analysis.stats import CommunicationStatistics

    stats = CommunicationStatistics(trace)
    return {
        "records": len(trace),
        "clock_digest": batch_clock_digest(trace),
        "pairs_digest": batch_pairs_digest(trace),
        "totals": stats.totals(),
        "per_process": batch_per_process(trace, stats),
    }


def batch_unmatched_dgram_sends(trace):
    """Ground truth for the ``undelivered`` query: datagram sends (they
    carry a destName) the batch matcher could not pair.  Returned as
    (machine, pid, proc_seq) identities, the same key firings report."""
    return {
        (event.machine, event.pid, event.proc_seq)
        for event in trace.matcher().unmatched_sends
        if event.name("destName")
    }


def canonical(value):
    """JSON round-trip: what a snapshot looks like after the query RPC
    (tuples to lists, int keys to strings), so live-vs-twin comparisons
    compare like with like."""
    return json.loads(json.dumps(value, sort_keys=True))


def diff_digests(online, batch):
    """Human-readable mismatches between an online ``digest()`` and a
    batch twin digest; empty means the oracle holds."""
    online = canonical(online)
    batch = canonical(batch)
    problems = []
    for key in ("records", "clock_digest", "pairs_digest", "totals"):
        if online.get(key) != batch.get(key):
            problems.append(
                "{0}: online {1!r} != batch {2!r}".format(
                    key, online.get(key), batch.get(key)
                )
            )
    online_procs = online.get("per_process", {})
    batch_procs = batch.get("per_process", {})
    for key in sorted(set(online_procs) | set(batch_procs)):
        if online_procs.get(key) != batch_procs.get(key):
            problems.append(
                "per_process[{0}]: online {1!r} != batch {2!r}".format(
                    key, online_procs.get(key), batch_procs.get(key)
                )
            )
    return problems
