"""Post-mortem twins: the checks on every online analysis.

The streaming engine consumes exactly the record stream the filter
commits, in commit order; the finished log *is* that stream.  So every
online answer can be recomputed three ways:

- **Replay twin** -- fold the finished log through a fresh
  :class:`~repro.streaming.engine.StreamEngine`.  Bit-for-bit equality
  with the live engine proves the tap fed the fold exactly the
  committed records (no drops, no double-counted replays).
- **Batch twin** -- digest what the :mod:`repro.analysis` views report
  for the same records.  Their matching, clocks and communication
  counters are the same :class:`~repro.streaming.fold.CausalFold`, so
  equality checks the views' translation and the engine's plumbing,
  not the algorithms.
- **Reference** -- :func:`repro.analysis.reference.reference_digest`,
  naive on purpose, small traces only: the check of the algorithms,
  statistics included.

The analysis imports are kept inside functions: the streaming package
itself must stay importable inside a filter guest without the analysis
stack's heavy dependencies.
"""

import json

from repro.streaming.engine import (
    StreamEngine,
    clock_digest_add,
    pair_digest_add,
)


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


def _clock_digest(trace, clock_of):
    digest = 0
    for event in trace:
        digest = clock_digest_add(
            digest, event.machine, event.pid, event.proc_seq, clock_of(event)
        )
    return digest


def _pairs_digest(pairs):
    digest = 0
    for pair in pairs:
        digest = pair_digest_add(digest, pair.send, pair.recv, pair.nbytes)
    return digest


def answers_digest(trace, analysis, clock_of):
    """``analysis.pairs``, its ``totals()`` and ``per_process()``, and
    one ``clock_of(event)`` per event, in the engine's ``digest()``
    shape.  Shared by :func:`batch_digest` and the reference oracle, so
    the two differ only in who matched, ordered and counted."""
    return {
        "records": len(trace),
        "clock_digest": _clock_digest(trace, clock_of),
        "pairs_digest": _pairs_digest(analysis.pairs),
        "totals": analysis.totals(),
        "per_process": analysis.per_process(),
    }


def batch_digest(trace):
    """The post-mortem views' answers in the engine's ``digest()``
    shape.  ``trace.matcher()`` and HappensBefore are views over the
    engine's own fold, so against a replayed engine this checks their
    translation of its state -- not the matching, clock or counting
    algorithms; ``reference_digest`` does that."""
    from repro.analysis.ordering import HappensBefore

    return answers_digest(
        trace, trace.matcher(), HappensBefore(trace).vector_clock
    )


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
