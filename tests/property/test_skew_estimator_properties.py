"""``estimate_clock_skews`` walks a plain adjacency dict; the reference
below is the networkx version it replaced, kept verbatim.  Both must
return the same dict -- same keys, same order, same floats -- for
one-way traffic, same-machine pairs, machines with no traffic or in
another component, and a reference machine that is the default, given,
or not in the trace at all."""

from types import SimpleNamespace

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.ordering import estimate_clock_skews


def _networkx_skews(trace, matcher=None, reference=None):
    matcher = matcher or trace.matcher()
    deltas = {}
    for pair in matcher.pairs:
        key = (pair.send.machine, pair.recv.machine)
        if key[0] == key[1]:
            continue
        delta = pair.recv.local_time - pair.send.local_time
        if key not in deltas or delta < deltas[key]:
            deltas[key] = delta

    graph = nx.Graph()
    for (a, b), fwd in deltas.items():
        rev = deltas.get((b, a))
        if rev is None:
            continue
        offset = (fwd - rev) / 2.0
        graph.add_edge(a, b, offset_ab=offset, a=a)

    machines = trace.machines()
    if reference is None:
        reference = machines[0] if machines else None
    skews = {machine: 0.0 for machine in machines}
    if reference is None or reference not in graph:
        return skews
    seen = {reference}
    frontier = [reference]
    while frontier:
        current = frontier.pop()
        for neighbor in graph.neighbors(current):
            if neighbor in seen:
                continue
            data = graph.edges[current, neighbor]
            offset = data["offset_ab"]
            if data["a"] != current:
                offset = -offset
            skews[neighbor] = skews[current] + offset
            seen.add(neighbor)
            frontier.append(neighbor)
    return skews


_TIMES = st.integers(min_value=0, max_value=4000).map(lambda t: t / 2)


@st.composite
def _pairs_and_reference(draw):
    """Matched pairs over links among up to seven machines (some of
    them silent; a link may be one-way or join a machine to itself),
    in any order, the trace's machine list, and a reference: None, a
    machine of the trace, or an id the trace never mentions."""
    machines = draw(st.lists(
        st.integers(min_value=1, max_value=7), unique=True, max_size=7
    ))
    pairs = []
    if machines:
        exchanges = st.lists(st.tuples(_TIMES, _TIMES), max_size=3)
        for src, dst, forward, backward in draw(st.lists(
            st.tuples(st.sampled_from(machines), st.sampled_from(machines),
                      exchanges, exchanges),
            max_size=10,
        )):
            for a, b, times in ((src, dst, forward), (dst, src, backward)):
                for send_t, recv_t in times:
                    pairs.append(SimpleNamespace(
                        send=SimpleNamespace(machine=a, local_time=send_t),
                        recv=SimpleNamespace(machine=b, local_time=recv_t),
                    ))
        pairs = draw(st.permutations(pairs))
    reference = draw(st.one_of(
        st.none(), st.sampled_from(sorted(machines) + [99])
    ))
    trace = SimpleNamespace(machines=lambda: sorted(machines))
    return trace, SimpleNamespace(pairs=pairs), reference


def _case(machines, exchanges, reference=None):
    """``(src, dst, send time, recv time)`` exchanges as a test case."""
    pairs = [
        SimpleNamespace(send=SimpleNamespace(machine=src, local_time=sent),
                        recv=SimpleNamespace(machine=dst, local_time=got))
        for src, dst, sent, got in exchanges
    ]
    trace = SimpleNamespace(machines=lambda: list(machines))
    return trace, SimpleNamespace(pairs=pairs), reference


#: A ring 1-4-3-2-1 whose offsets do not add up around it: machine 3
#: gets a different skew through 4 than through 2, so the walk's order
#: (last found, first walked; neighbours in first-link order) shows.
_INCONSISTENT_RING = _case((1, 2, 3, 4), [
    (1, 4, 0, 7), (4, 1, 10, 12),
    (1, 2, 0, 3), (2, 1, 5, 9),
    (2, 3, 0, 11), (3, 2, 20, 21),
    (3, 4, 0, 2), (4, 3, 30, 38),
])


@given(_pairs_and_reference())
@example(_INCONSISTENT_RING)
@settings(max_examples=500, deadline=None)
def test_skews_equal_the_networkx_walk(case):
    trace, matcher, reference = case
    got = estimate_clock_skews(trace, matcher, reference=reference)
    want = _networkx_skews(trace, matcher, reference=reference)
    assert list(got.items()) == list(want.items())
