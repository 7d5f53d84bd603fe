"""Clock bases against the naive reference's full clocks.

The fold stores each event's vector clock as a *base* -- the clock with
the event's own component left implicit -- and program-order events
share one base until a receive merges a send
(:mod:`repro.streaming.clocks`).  Every reader that materialises a
clock, answers happens-before or sums the ordered fraction must still
agree with :class:`~repro.analysis.reference.ReferenceAnalysis`, which
relaxes one full clock per event, on traces whose receives often
commit before their sends (so receives are released by a send's
resolution as well as merged on arrival) and whose machines run
several processes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ordering import HappensBefore
from repro.analysis.reference import ReferenceAnalysis, reference_digest
from repro.analysis.trace import Trace
from repro.streaming.clocks import true_clock
from repro.streaming.engine import StreamEngine
from repro.streaming.twins import diff_digests, replay_engine

DGRAM_SOCK = 7


def _causal_run(seed, machines, per_machine, steps):
    """Per-process logs of a causal execution trading datagrams (each
    with a length of its own, so its pairing is the same in any commit
    order), merged in a random order: a receive often lands before its
    send.  Some processes only start partway through."""
    rng = random.Random(seed)
    procs = [(m, 100 * m + k) for m in range(1, machines + 1)
             for k in range(per_machine)]
    logs = {proc: [] for proc in procs}
    started = set()
    in_flight = []  # (src, dst, length)
    lengths = iter(range(1000, 10**6))

    def emit(proc, event, **body):
        if proc not in started:
            started.add(proc)
            logs[proc].append(dict(event="socket", machine=proc[0],
                                   pid=proc[1], procTime=0,
                                   sock=DGRAM_SOCK))
        logs[proc].append(dict(event=event, machine=proc[0], pid=proc[1],
                               procTime=0, **body))

    for __ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            src, dst = rng.sample(procs, 2)
            length = next(lengths)
            in_flight.append((src, dst, length))
            emit(src, "send", sock=DGRAM_SOCK, msgLength=length,
                 destName="inet:h%d:6000" % dst[0])
        elif roll < 0.8 and in_flight:
            src, dst, length = in_flight.pop(rng.randrange(len(in_flight)))
            emit(dst, "receive", sock=DGRAM_SOCK, msgLength=length,
                 sourceName="inet:h%d:6000" % src[0])
        else:
            emit(rng.choice(procs), "fork")
    pending = [list(log) for log in logs.values() if log]
    records = []
    while pending:
        log = rng.choice(pending)
        records.append(log.pop(0))
        records[-1]["cpuTime"] = 10 * len(records)
        if not log:
            pending.remove(log)
    return records


@st.composite
def _traces(draw):
    return _causal_run(
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        machines=draw(st.integers(min_value=2, max_value=4)),
        per_machine=draw(st.integers(min_value=1, max_value=3)),
        steps=draw(st.integers(min_value=1, max_value=60)),
    )


def _engine_keeping_every_clock(records):
    engine = StreamEngine(clock_history=len(records))
    for record in records:
        engine.update(record)
    return engine


def _reference_happens_before(reference, component, a, b):
    """a -> b read off the reference's full clocks."""
    own = component[a.process]
    return (
        a.index != b.index
        and reference.clocks[b.index][own] >= reference.clocks[a.index][own]
    )


def _dense(clock):
    clock = list(clock)
    while clock and clock[-1] == 0:
        clock.pop()
    return tuple(clock)


@given(_traces())
@settings(max_examples=150, deadline=None)
def test_every_vector_clock_is_the_reference_clock(records):
    trace = Trace(records)
    reference = ReferenceAnalysis(trace)
    hb = HappensBefore(trace)
    for event in trace:
        assert hb.vector_clock(event) == reference.clocks[event.index]
        assert true_clock(event) == _dense(reference.clocks[event.index])
        assert hb.matcher.clocks[event.index] is event.clock
    # The live engine digests and keeps materialised clocks too.
    engine = _engine_keeping_every_clock(records)
    for event in trace:
        assert engine.fold.clocks.clock_of(
            event.machine, event.pid, event.proc_seq
        ) == _dense(reference.clocks[event.index])
    assert diff_digests(engine.finalize().digest(),
                        reference_digest(trace)) == []


@given(_traces())
@settings(max_examples=150, deadline=None)
def test_happens_before_equals_a_naive_compare_of_reference_clocks(records):
    trace = Trace(records)
    reference = ReferenceAnalysis(trace)
    hb = HappensBefore(trace)
    engine = _engine_keeping_every_clock(records)
    component = {p: i for i, p in enumerate(trace.processes())}
    events = list(trace)[:40]
    for a in events:
        key_a = (a.machine, a.pid, a.proc_seq)
        for b in events:
            want = _reference_happens_before(reference, component, a, b)
            assert hb.happens_before(a, b) is want
            assert engine.happens_before(
                key_a, (b.machine, b.pid, b.proc_seq)) is want


def _naive_ordered_fraction(trace, clocks):
    """O(N x P) over materialised clocks: each event's components for
    processes on other machines, over all cross-machine pairs."""
    processes = trace.processes()
    ordered = 0
    for event in trace:
        clock = clocks[event.index]
        ordered += sum(
            clock[i] for i, (machine, __) in enumerate(processes)
            if machine != event.machine
        )
    n = len(trace)
    per_machine = {}
    for event in trace:
        per_machine[event.machine] = per_machine.get(event.machine, 0) + 1
    total = n * (n - 1) // 2 - sum(c * (c - 1) // 2 for c in per_machine.values())
    return 1.0 if total == 0 else ordered / total


@given(_traces())
@settings(max_examples=150, deadline=None)
def test_ordered_fraction_equals_the_sum_over_materialised_clocks(records):
    trace = Trace(records)
    reference = ReferenceAnalysis(trace)
    assert HappensBefore(trace).ordered_fraction() == (
        _naive_ordered_fraction(trace, reference.clocks)
    )


@given(_traces())
@settings(max_examples=150, deadline=None)
def test_distinct_bases_number_at_most_processes_plus_receives(records):
    trace = Trace(records)
    trace.matcher()
    bases = {id(event.clock) for event in trace}
    assert len(bases) <= len(trace.processes()) + len(trace.by_type("receive"))


def test_a_width_of_130_processes():
    """Wide clocks: 130 processes on 10 machines.  Every event but a
    process's first and a matched receive shares a base."""
    records = _causal_run(seed=34, machines=10, per_machine=13, steps=700)
    trace = Trace(records)
    assert len(trace.processes()) >= 128
    reference = ReferenceAnalysis(trace)
    hb = HappensBefore(trace)
    for event in trace:
        assert hb.vector_clock(event) == reference.clocks[event.index]
    assert hb.ordered_fraction() == _naive_ordered_fraction(
        trace, reference.clocks)
    receives = {pair.recv.index for pair in reference.pairs}
    bases = {id(event.clock) for event in trace}
    assert len(bases) <= len(trace.processes()) + len(receives)
    assert len(bases) < len(trace) // 2
    assert diff_digests(replay_engine(records).finalize().digest(),
                        reference_digest(trace)) == []
