"""Property tests on the happens-before analysis over randomly
generated (but causally consistent) synthetic traces."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.matching import MessageMatcher
from repro.analysis.ordering import HappensBefore
from repro.analysis.reference import ReferenceAnalysis, reference_digest
from repro.streaming.twins import batch_digest
from tests.analysis.harness import TraceBuilder


@st.composite
def _random_sessions(draw):
    """A random sequence of matched message exchanges between up to 4
    processes on distinct machines, with true global times."""
    n_procs = draw(st.integers(min_value=2, max_value=4))
    procs = [(m + 1, 10 * (m + 1)) for m in range(n_procs)]
    offsets = [
        draw(st.integers(min_value=-2000, max_value=2000)) for __ in procs
    ]
    n_messages = draw(st.integers(min_value=1, max_value=12))
    exchanges = []
    for __ in range(n_messages):
        src = draw(st.integers(min_value=0, max_value=n_procs - 1))
        dst = draw(
            st.integers(min_value=0, max_value=n_procs - 1).filter(
                lambda d, s=src: d != s
            )
        )
        delay = draw(st.integers(min_value=1, max_value=10))
        size = draw(st.integers(min_value=1, max_value=500))
        exchanges.append((src, dst, delay, size))
    return procs, offsets, exchanges


def _build_trace(procs, offsets, exchanges):
    """Each exchange is a fresh datagram; sends happen at increasing
    true times, receives after the delay."""
    builder = TraceBuilder()
    # Teach host-id mapping: one connect per process.
    for (machine, pid), __offset in zip(procs, offsets):
        builder.connect(
            machine,
            pid,
            0,
            sock=1,
            sock_name="inet:m{0}:1".format(machine),
            peer_name="inet:m0:9",
        )
    events = []  # (true time, kind, ...)
    t = 10
    for src, dst, delay, size in exchanges:
        events.append((t, "send", src, dst, size))
        events.append((t + delay, "recv", src, dst, size))
        t += 3
    events.sort(key=lambda e: e[0])
    for true_t, kind, src, dst, size in events:
        if kind == "send":
            machine, pid = procs[src]
            builder.send(
                machine,
                pid,
                true_t + offsets[src],
                sock=50,
                nbytes=size,
                dest="inet:m{0}:6000".format(procs[dst][0]),
            )
        else:
            machine, pid = procs[dst]
            builder.receive(
                machine,
                pid,
                true_t + offsets[dst],
                sock=60,
                nbytes=size,
                source="inet:m{0}:5000".format(procs[src][0]),
            )
    return builder.build()


@given(_random_sessions())
@settings(max_examples=50, deadline=None)
def test_happens_before_graph_is_always_acyclic(session):
    procs, offsets, exchanges = session
    trace = _build_trace(procs, offsets, exchanges)
    hb = HappensBefore(trace)
    assert nx.is_directed_acyclic_graph(hb.graph)


@given(_random_sessions())
@settings(max_examples=50, deadline=None)
def test_happens_before_is_a_strict_partial_order(session):
    procs, offsets, exchanges = session
    trace = _build_trace(procs, offsets, exchanges)
    hb = HappensBefore(trace)
    events = list(trace)[:12]
    for a in events:
        assert not hb.happens_before(a, a)  # irreflexive
        for b in events:
            if hb.happens_before(a, b):
                assert not hb.happens_before(b, a)  # antisymmetric
            for c in events:
                if hb.happens_before(a, b) and hb.happens_before(b, c):
                    assert hb.happens_before(a, c)  # transitive


@given(_random_sessions())
@settings(max_examples=50, deadline=None)
def test_matched_pairs_never_exceed_sends(session):
    procs, offsets, exchanges = session
    trace = _build_trace(procs, offsets, exchanges)
    matcher = MessageMatcher(trace)
    sends = len(trace.by_type("send"))
    dgram_pairs = [p for p in matcher.pairs if p.send.name("destName")]
    assert len(dgram_pairs) <= sends
    # Each receive claimed at most once.
    recv_indices = [p.recv.index for p in dgram_pairs]
    assert len(recv_indices) == len(set(recv_indices))


@given(_random_sessions())
@settings(max_examples=50, deadline=None)
def test_global_order_respects_every_program_and_message_edge(session):
    procs, offsets, exchanges = session
    trace = _build_trace(procs, offsets, exchanges)
    hb = HappensBefore(trace)
    order = hb.consistent_global_order()
    position = {event.index: i for i, event in enumerate(order)}
    assert sorted(position.values()) == list(range(len(trace)))
    for pair in hb.matcher.pairs:
        assert position[pair.send.index] < position[pair.recv.index]


@given(_random_sessions())
@settings(max_examples=50, deadline=None)
def test_fold_pairs_and_clocks_equal_the_naive_reference(session):
    procs, offsets, exchanges = session
    trace = _build_trace(procs, offsets, exchanges)
    reference = ReferenceAnalysis(trace)
    hb = HappensBefore(trace)
    assert sorted(
        (p.send.index, p.recv.index, p.nbytes) for p in hb.matcher.pairs
    ) == sorted(
        (p.send.index, p.recv.index, p.nbytes) for p in reference.pairs
    )
    for event in trace:
        assert hb.vector_clock(event) == reference.clocks[event.index]
    assert batch_digest(trace) == reference_digest(trace)
