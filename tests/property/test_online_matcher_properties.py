"""Property tests on the online datagram matcher's pending-send index.

Two oracles.  The naive :mod:`repro.analysis.reference` (pairs,
unmatched sets and clock digest): against a *live* engine on traces
built to stay clear of the documented divergence corner -- a host
learned late only ever carries traffic of lengths nobody else uses, so
what the fold does not know yet cannot change a pairing -- and against
the post-mortem view, which learns every host up front, with late hosts
sharing everybody's lengths.  And, on traces with no care taken at all
(lying source names included), the rule the index replaced: every
pending send retries on every receive.  The index is exact only if host
discovery never widens what a pending send may claim, which is what the
second oracle would catch.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.matching import MessageMatcher, MessagePair
from repro.analysis.reference import ReferenceAnalysis, reference_digest
from repro.analysis.stats import CommunicationStatistics
from repro.analysis.structure import CommunicationGraph
from repro.analysis.trace import Trace
from repro.streaming.clocks import true_clock
from repro.streaming.engine import StreamEngine
from repro.streaming.fold import CausalFold, Event
from repro.streaming.matching import OnlineMatcher
from repro.streaming.twins import (
    answers_digest,
    batch_digest,
    diff_digests,
    replay_engine,
)

SINKS = 2
SHARED_LENGTHS = (32, 64, 200)
DGRAM_SOCK = 7
STREAM_SOCK = 9


def _host(machine):
    return "h%d" % machine


def _dgram_name(machine):
    return "inet:%s:6000" % _host(machine)


class _TraceBuilder:
    """A causal interleaving of datagram runs between ``sources``
    source machines and ``SINKS`` sink machines, one process each."""

    def __init__(self, seed, sources, late, loss, careful, lying):
        self.rng = random.Random(seed)
        self.machines = list(range(1, sources + SINKS + 1))
        self.sources = self.machines[:sources]
        self.sinks = self.machines[sources:]
        self.late = set(self.rng.sample(self.machines, late))
        self.loss = loss
        self.careful = careful
        self.lying = lying
        self.records = []
        self.in_flight = {}  # (src, dst) -> lengths sent, not yet read
        self.private = {}  # (src, dst) -> a length only that pair uses

    def emit(self, machine, event, **body):
        record = {
            "event": event,
            "machine": machine,
            "pid": 100 + machine,
            "cpuTime": 10 * len(self.records),
            "procTime": 0,
        }
        record.update(body)
        self.records.append(record)

    def register(self, machine):
        """The connect or accept that teaches the matchers which
        machine ``_host(machine)`` is."""
        own = "inet:%s:5000" % _host(machine)
        if machine % 2:
            self.emit(machine, "connect", sock=STREAM_SOCK, sockName=own,
                      peerName="inet:nowhere:1")
        else:
            self.emit(machine, "accept", sock=STREAM_SOCK,
                      newSock=STREAM_SOCK + 1, sockName=own,
                      peerName="inet:nowhere:2")

    def length_for(self, src, dst):
        if self.careful and (src in self.late or dst in self.late):
            pair = (src, dst)
            if pair not in self.private:
                self.private[pair] = 1000 + len(self.private)
            return self.private[pair]
        return self.rng.choice(SHARED_LENGTHS)

    def send_run(self):
        src = self.rng.choice(self.sources)
        dst = self.rng.choice(self.sinks)
        length = self.length_for(src, dst)
        lost_run = self.rng.random() < self.loss  # a send-only run
        for __ in range(self.rng.randrange(1, 7)):
            self.emit(src, "send", sock=DGRAM_SOCK, msgLength=length,
                      destName=_dgram_name(dst))
            if not lost_run and self.rng.random() >= self.loss:
                self.in_flight.setdefault((src, dst), []).append(length)

    def recv_run(self):
        ready = [pair for pair, queue in self.in_flight.items() if queue]
        if not ready:
            return
        src, dst = self.rng.choice(ready)
        queue = self.in_flight[(src, dst)]
        for __ in range(self.rng.randrange(1, 7)):
            if not queue:
                break
            source = src
            if self.lying and self.rng.random() < 0.2:
                source = self.rng.choice(self.sources)  # a lying name
            self.emit(dst, "receive", sock=DGRAM_SOCK,
                      msgLength=queue.pop(0),
                      sourceName=_dgram_name(source))

    def orphan_recv(self):
        """A receive whose send the filter never logged."""
        src = self.rng.choice(self.sources)
        dst = self.rng.choice(self.sinks)
        self.emit(dst, "receive", sock=DGRAM_SOCK,
                  msgLength=self.length_for(src, dst),
                  sourceName=_dgram_name(src))

    def build(self, steps):
        for machine in self.machines:
            if machine not in self.late:
                self.register(machine)
        unregistered = sorted(self.late)
        self.rng.shuffle(unregistered)
        for step in range(steps):
            roll = self.rng.random()
            if unregistered and roll < len(unregistered) / (steps - step):
                self.register(unregistered.pop())
            elif roll < 0.5:
                self.send_run()
            elif roll < 0.95:
                self.recv_run()
            else:
                self.orphan_recv()
        for machine in unregistered:
            self.register(machine)
        return self.records


@st.composite
def _traces(draw, careful, lying=False):
    sources = draw(st.integers(min_value=3, max_value=5))
    builder = _TraceBuilder(
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        sources=sources,
        late=draw(st.integers(min_value=1, max_value=sources + SINKS)),
        loss=draw(st.sampled_from((0.0, 0.1, 0.4))),
        careful=careful,
        lying=lying,
    )
    return builder.build(draw(st.integers(min_value=5, max_value=80)))


def _answers(matcher):
    """(pairs, unmatched sends, unmatched receives) by trace index."""
    return (
        sorted((p.send.index, p.recv.index, p.nbytes) for p in matcher.pairs),
        sorted(event.index for event in matcher.unmatched_sends),
        sorted(event.index for event in matcher.unmatched_recvs),
    )


@given(_traces(careful=True))
@settings(max_examples=120, deadline=None)
def test_online_pairs_and_clocks_equal_batch(records):
    engine = StreamEngine()
    online_pairs = []
    fold_pair = engine.fold.on_pair

    def spy(send, recv, nbytes):
        online_pairs.append((send.index, recv.index, nbytes))
        fold_pair(send, recv, nbytes)

    engine.fold.on_pair = spy
    for record in records:
        engine.update(record)
    engine.finalize()
    trace = Trace(records)
    reference = ReferenceAnalysis(trace)
    assert sorted(online_pairs) == _answers(reference)[0]
    assert _answers(trace.matcher()) == _answers(reference)
    assert diff_digests(engine.digest(), reference_digest(trace)) == []
    assert diff_digests(engine.digest(), batch_digest(trace)) == []


@given(_traces(careful=False))
@settings(max_examples=120, deadline=None)
def test_post_mortem_view_equals_reference_with_hosts_learned_late(records):
    """The view learns every host before folding, so -- unlike a live
    engine -- it needs no private lengths to agree with the reference
    when a connect/accept trails the datagrams it explains."""
    trace = Trace(records)
    assert _answers(trace.matcher()) == _answers(ReferenceAnalysis(trace))
    assert batch_digest(trace) == reference_digest(trace)


class _FoldAnswers:
    """One ``CausalFold`` run to the end, fed the trace's own events
    (``feed``) or their records (``update``), shaped for
    ``answers_digest``: its counters are its own fold's."""

    def __init__(self, trace, decorated):
        self.pairs, self.clocks = [], {}
        fold = CausalFold(on_pair=self._paired, on_clock=self._resolved)
        self.totals, self.per_process = fold.totals, fold.per_process
        for event in trace:
            if decorated:
                assert fold.feed(event) is event
            else:
                fold.update(event.record)
        fold.finalize()
        # Read now: the flags are this fold's only until the next one.
        self.unmatched = [
            event.index for event in trace
            if decorated and event.in_matching and not event.matched
        ]

    def _paired(self, send, recv, nbytes):
        self.pairs.append(MessagePair(send, recv, nbytes))

    def _resolved(self, event, clock):
        self.clocks[event.index] = true_clock(event)

    def answers(self):
        return (
            sorted((p.send.index, p.recv.index, p.nbytes) for p in self.pairs),
            self.clocks,
        )


@given(_traces(careful=True))
@settings(max_examples=120, deadline=None)
def test_fold_fed_events_equals_fold_fed_records(records):
    """``feed`` is the one way in and ``update`` only decorates first:
    same pairs, same clocks, and the reference's digest either way."""
    trace = Trace(records)
    fed, updated = _FoldAnswers(trace, True), _FoldAnswers(trace, False)
    assert fed.answers() == updated.answers()
    reference = reference_digest(trace)
    for run in (fed, updated):
        assert reference == answers_digest(
            trace, run, lambda event: run.clocks[event.index]
        )


@given(_traces(careful=True))
@settings(max_examples=120, deadline=None)
def test_pair_traffic_equals_a_naive_sum_over_the_reference_pairs(records):
    """Pair traffic is in no digest: the statistics view, the graph's
    message edges and a replayed engine's ``stats`` reply each against
    the reference's pairs, summed per (sender, receiver) process."""
    trace = Trace(records)
    want = {}
    for pair in ReferenceAnalysis(trace).pairs:
        entry = want.setdefault((pair.send.process, pair.recv.process), [0, 0])
        entry[0] += 1
        entry[1] += pair.nbytes
    assert CommunicationStatistics(trace).pair_traffic == want
    graph = CommunicationGraph(trace)
    assert {
        (src, dst): [data["messages"], data["bytes"]]
        for src, dst, data in graph.edges()
        if data["kind"] == "message"
    } == want
    engine = replay_engine(records).finalize()
    assert engine.snapshot()["pair_traffic"] == {
        "{0}:{1}->{2}:{3}".format(*send, *recv): entry
        for (send, recv), entry in want.items()
    }


@given(_traces(careful=False, lying=True))
@settings(max_examples=120, deadline=None)
def test_a_fold_reads_nothing_an_earlier_fold_left_on_the_events(records):
    """A trace's events outlive the fold that was fed them.  The view
    (hosts learned up front) and a bare fold (hosts learned as they
    appear) pair differently here; each, run after the other or after
    itself, answers what it answers on a fresh trace."""
    view = _answers(MessageMatcher(Trace(records)))
    bare = _FoldAnswers(Trace(records), True)
    trace = Trace(records)
    for __ in range(2):
        assert _answers(MessageMatcher(trace)) == view
    for __ in range(2):
        again = _FoldAnswers(trace, True)
        assert (again.answers(), again.unmatched) == (
            bare.answers(), bare.unmatched)
    assert _answers(MessageMatcher(trace)) == view


class _RetryAllMatcher(OnlineMatcher):
    """The rule the length index replaced: every receive lets every
    pending send retry, in arrival order."""

    def _offer(self, cell):
        self._retry_pending()


def _fold(matcher_class, records):
    pairs = []
    matcher = matcher_class(
        on_pair=lambda send, recv, nbytes: pairs.append(
            (send.index, recv.index, nbytes)
        ),
        on_recv_done=lambda recv: pairs.append(("done", recv.index)),
    )
    sizes = []
    for index, record in enumerate(records):
        matcher.update(Event(record, index))
        sizes.append((matcher.state_size(), matcher.outstanding_sends))
    matcher.finalize()
    sizes.append((matcher.state_size(), matcher.outstanding_sends))
    pending = [send.index for send in matcher.pending_send_events()]
    return pairs, sizes, pending


@given(_traces(careful=False, lying=True))
@settings(max_examples=120, deadline=None)
def test_length_index_equals_retrying_every_pending_send(records):
    """Same pairs, sealed in the same order, with the same in-flight
    state after every record -- lying source names, shared lengths and
    hosts learned mid-stream included."""
    assert _fold(OnlineMatcher, records) == _fold(_RetryAllMatcher, records)


class _CausalRun:
    """A causal execution of ``procs`` processes (one per machine)
    trading stream bytes and datagrams, committed in a random merge of
    the per-process logs: a receive often lands before its send, as a
    filter sees it when the receiver's meter message wins the race.
    Every datagram has a length of its own, so its pairing is the same
    in any commit order, and the trace is acyclic in any of them."""

    def __init__(self, seed, procs, steps):
        rng = self.rng = random.Random(seed)
        self.logs = [[] for __ in range(procs)]
        self.links = []  # [src, dst, src sock, dst sock, bytes in flight]
        self.datagrams = []  # (src, dst, length) sent, not yet received
        self.lengths = iter(range(1000, 10**6))  # one per datagram
        for proc in range(procs):
            self.emit(proc, "socket", sock=DGRAM_SOCK)
        for port, (src, dst) in enumerate(
            rng.sample([(a, b) for a in range(procs) for b in range(procs)
                        if a != b], rng.randrange(1, procs))
        ):
            names = ("inet:%s:%d" % (_host(src + 1), 6100 + port),
                     "inet:%s:5000" % _host(dst + 1))
            self.emit(src, "connect", sock=20 + port, sockName=names[0],
                      peerName=names[1])
            self.emit(dst, "accept", sock=STREAM_SOCK, newSock=40 + port,
                      sockName=names[1], peerName=names[0])
            self.links.append([src, dst, 20 + port, 40 + port, 0])
        for __ in range(steps):
            self.step(procs)

    def emit(self, proc, event, **body):
        self.logs[proc].append(dict(
            event=event, machine=proc + 1, pid=100 + proc, procTime=0,
            **body))

    def step(self, procs):
        rng = self.rng
        roll = rng.random()
        link = rng.choice(self.links)
        if roll < 0.3:
            length = rng.randrange(1, 40)
            self.emit(link[0], "send", sock=link[2], msgLength=length)
            link[4] += length
        elif roll < 0.6 and link[4]:
            length = rng.randrange(1, link[4] + 1)  # coalesce or split
            self.emit(link[1], "receive", sock=link[3], msgLength=length)
            link[4] -= length
        elif roll < 0.75:
            src, dst = rng.sample(range(procs), 2)
            length = next(self.lengths)
            self.datagrams.append((src, dst, length))
            self.emit(src, "send", sock=DGRAM_SOCK, msgLength=length,
                      destName=_dgram_name(dst + 1))
        elif roll < 0.9 and self.datagrams:
            src, dst, length = self.datagrams.pop(
                rng.randrange(len(self.datagrams)))
            self.emit(dst, "receive", sock=DGRAM_SOCK, msgLength=length,
                      sourceName=_dgram_name(src + 1))
        else:
            self.emit(rng.randrange(procs), "fork")

    def committed(self):
        logs = [list(log) for log in self.logs]
        records = []
        while any(logs):
            log = self.rng.choice([log for log in logs if log])
            records.append(log.pop(0))
            records[-1]["cpuTime"] = 10 * len(records)
        return records


@st.composite
def _committed_out_of_causal_order(draw):
    run = _CausalRun(
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        procs=draw(st.integers(min_value=2, max_value=4)),
        steps=draw(st.integers(min_value=1, max_value=60)),
    )
    return run.committed()


@given(_committed_out_of_causal_order())
@settings(max_examples=150, deadline=None)
def test_each_clock_fires_once_after_its_predecessors(records):
    """``OnlineVectorClocks``' contract, whichever path an event takes
    (resolved on arrival, or queued behind a receive or its sends):
    ``on_clock`` fires exactly once per event, after its program-order
    predecessor's and after the clock and the pair of every send
    paired with it; and the clocks are the reference's."""
    fired = []  # ("clock", index) and ("pair", send index, recv index)
    clocks = {}

    def on_clock(event, clock):
        fired.append(("clock", event.index))
        clocks[event.index] = true_clock(event)

    fold = CausalFold(
        on_pair=lambda send, recv, nbytes: fired.append(
            ("pair", send.index, recv.index)),
        on_clock=on_clock,
    )
    for record in records:
        fold.update(record)
    fold.finalize()
    at = {entry: position for position, entry in enumerate(fired)}
    assert len(at) == len(fired)  # nothing fires twice
    pairs = [entry for entry in fired if entry[0] == "pair"]
    assert len(fired) - len(pairs) == len(records) == fold.clocks.resolved
    assert fold.clocks.state_size() == 0
    trace = Trace(records)
    for process in trace.processes():
        events = trace.events_for(process)
        for before, after in zip(events, events[1:]):
            assert at[("clock", before.index)] < at[("clock", after.index)]
    for __, send, recv in pairs:
        assert at[("clock", send)] < at[("clock", recv)]
        assert at[("pair", send, recv)] < at[("clock", recv)]
    reference = ReferenceAnalysis(trace)
    assert sorted(pairs) == sorted(
        ("pair", pair.send.index, pair.recv.index) for pair in reference.pairs)
    width = len(trace.processes())
    assert [clocks[event.index] + (0,) * (width - len(clocks[event.index]))
            for event in trace] == reference.clocks
