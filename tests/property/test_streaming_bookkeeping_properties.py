"""The engine's bookkeeping, kept off the per-record path, against the
per-record versions it replaced (kept here as the references).

- ``OnlineMatcher.state_size()`` is a sum of running counts; the
  reference walks every listed endpoint's buffered traffic and every
  accepted connection's open spans, after every record and after
  ``finalize`` -- sockets reused (an endpoint's key re-registered)
  included.
- The window is evicted only before it is read; the reference evicts
  after every record.  Local times run backwards freely.
- The clock history is a bounded ring scanned from its newest end; the
  reference is an ordered dict keyed by ``(machine, pid, proc_seq)``
  that drops its oldest entry past ``history`` -- ids that are not
  integers included.
"""

from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.streaming.clocks import true_clock
from repro.streaming.engine import StreamEngine
from repro.streaming.fold import Event
from repro.streaming.matching import OnlineMatcher
from repro.streaming.windows import WindowedStats

_NAMES = ("inet:h1:1", "inet:h2:2")
_KINDS = ("connect", "accept", "send", "receive", "dgram_send", "dgram_recv")


def _walked_state_size(matcher):
    """What ``OnlineMatcher.state_size()`` walked before it kept counts."""
    size = matcher.outstanding_sends + matcher._queued_recvs
    for state in matcher._endpoints.values():
        size += len(state.pre)
    for state in matcher.accepted:
        if state.paired:
            for direction in (state.dir_in, state.dir_out):
                size += len(direction.spans) + len(direction.waiting)
    return size


@st.composite
def _socket_traffic(draw):
    """Connects, accepts, stream and datagram traffic on two machines
    with two socket numbers and two names each, so endpoints get
    re-registered and connections pair in every order."""
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(_KINDS),
            st.integers(min_value=1, max_value=2),  # machine
            st.integers(min_value=1, max_value=2),  # sock
            st.integers(min_value=1, max_value=2),  # accept's newSock
            st.sampled_from(_NAMES),
            st.sampled_from(_NAMES),
            st.integers(min_value=0, max_value=40),  # msgLength
        ),
        max_size=80,
    ))
    records = []
    for kind, machine, sock, new_sock, own, peer, length in steps:
        record = {"machine": machine, "pid": 10 * machine,
                  "cpuTime": len(records), "sock": sock}
        if kind in ("connect", "accept"):
            record.update(event=kind, sockName=own, peerName=peer)
            if kind == "accept":
                record["newSock"] = new_sock
        elif kind in ("send", "dgram_send"):
            record.update(event="send", msgLength=length)
            if kind == "dgram_send":
                record["destName"] = peer
        else:
            record.update(event="receive", msgLength=length)
            if kind == "dgram_recv":
                record["sourceName"] = own
        records.append(record)
    return records


_REUSED_THEN_PAIRED = [
    # A connect buffers a send, an accept on the same machine takes its
    # socket number, then the connect pairs: its buffered send was
    # already dropped from the count and must not be dropped again.
    {"event": "connect", "machine": 1, "pid": 10, "sock": 1,
     "sockName": "inet:h1:1", "peerName": "inet:h2:2"},
    {"event": "send", "machine": 1, "pid": 10, "sock": 1, "msgLength": 5},
    {"event": "accept", "machine": 1, "pid": 10, "sock": 2, "newSock": 1,
     "sockName": "inet:h1:1", "peerName": "inet:h1:1"},
    {"event": "accept", "machine": 2, "pid": 20, "sock": 2, "newSock": 2,
     "sockName": "inet:h2:2", "peerName": "inet:h1:1"},
    {"event": "receive", "machine": 2, "pid": 20, "sock": 2, "msgLength": 3},
]


@given(_socket_traffic())
@example(_REUSED_THEN_PAIRED)
@settings(max_examples=300, deadline=None)
def test_matcher_state_size_equals_the_walk(records):
    matcher = OnlineMatcher(
        on_pair=lambda send, recv, nbytes: None, on_recv_done=lambda recv: None
    )
    for index, record in enumerate(records):
        matcher.update(Event(record, index))
        assert matcher.state_size() == _walked_state_size(matcher)
    matcher.finalize()
    assert matcher.state_size() == _walked_state_size(matcher)


class _EagerWindows(WindowedStats):
    """The window as it was: evicted after every appended event."""

    def __init__(self, engine):
        WindowedStats.__init__(self, engine.window_ms)
        self.engine = engine

    def update(self, event):
        WindowedStats.update(self, event)
        self.evict(self.engine.watermark)


def _engines(window_ms):
    lazy = StreamEngine(window_ms=window_ms)
    eager = StreamEngine(window_ms=window_ms)
    eager.windows = _EagerWindows(eager)
    return lazy, eager


@st.composite
def _skewed_datagrams(draw):
    """Datagrams among three processes whose local times jump back and
    forth; about half of them are received."""
    records = []
    for src, dst, length, send_t, recv_t, received in draw(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=3),
            st.sampled_from((16, 64, 128)),
            st.integers(min_value=0, max_value=400),
            st.integers(min_value=0, max_value=400),
            st.booleans(),
        ),
        max_size=60,
    )):
        records.append({"event": "send", "machine": src, "pid": src,
                        "cpuTime": send_t, "sock": 7, "msgLength": length,
                        "destName": "inet:h%d:6000" % dst})
        if received:
            records.append({"event": "receive", "machine": dst, "pid": dst,
                            "cpuTime": recv_t, "sock": 7, "msgLength": length,
                            "sourceName": "inet:h%d:6000" % src})
    return records


@given(
    _skewed_datagrams(),
    st.sets(st.integers(min_value=0, max_value=120)),
    st.sampled_from((1.0, 25.0, 80.0)),
)
@settings(max_examples=200, deadline=None)
def test_evicting_before_reads_equals_evicting_every_record(
    records, reads, window_ms
):
    lazy, eager = _engines(window_ms)
    for index, record in enumerate(records):
        lazy.update(record)
        eager.update(record)
        if index in reads:
            assert lazy.state_size() == eager.state_size()
            assert lazy.windows.win_events == eager.windows.win_events
            assert lazy.windows.win_pairs == eager.windows.win_pairs
            assert lazy.snapshot() == eager.snapshot()
    assert lazy.finalize().digest() == eager.finalize().digest()
    assert lazy.snapshot() == eager.snapshot()


_IDS = ("red", None, 2, 2.5)


@st.composite
def _odd_id_traffic(draw):
    """Datagrams among processes whose machine and pid are not all
    integers; receives may come before their sends."""
    records = []
    for kind, machine, pid, peer, length in draw(st.lists(
        st.tuples(
            st.sampled_from(("send", "receive", "fork")),
            st.sampled_from(_IDS),
            st.sampled_from((None, "p", 7)),
            st.sampled_from(("a", "b")),
            st.sampled_from((8, 9)),
        ),
        max_size=40,
    )):
        record = {"event": kind, "machine": machine, "pid": pid,
                  "cpuTime": len(records), "sock": 7, "msgLength": length}
        if kind == "send":
            record["destName"] = "inet:%s:1" % peer
        elif kind == "receive":
            record["sourceName"] = "inet:%s:1" % peer
        records.append(record)
    return records


def _reference_happens_before(history, procs, a, b):
    """``happens_before`` over the ordered dict it used to read."""
    if a == b:
        return False
    clock_b = history.get(b)
    if clock_b is None:
        return None
    proc = procs.get((a[0], a[1]))
    if proc is None or proc.component >= len(clock_b):
        return False
    return clock_b[proc.component] >= a[2] + 1


@given(_odd_id_traffic(), st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_history_ring_equals_a_bounded_ordered_dict(records, history):
    engine = StreamEngine(clock_history=history)
    clocks = engine.fold.clocks
    reference = OrderedDict()
    resolve = clocks.on_resolve

    def on_resolve(event, clock):
        reference[(event.machine, event.pid, event.proc_seq)] = true_clock(
            event)
        if len(reference) > history:
            reference.popitem(last=False)
        resolve(event, clock)

    clocks.on_resolve = on_resolve
    keys = []

    def agree():
        assert len(clocks._history) == len(reference)
        for key in keys:
            assert clocks.clock_of(*key) == reference.get(key)
        for a in keys:
            for b in keys:
                assert engine.happens_before(a, b) == _reference_happens_before(
                    reference, clocks.procs, a, b)

    for record in records:
        event = engine.update(record)
        keys.append((event.machine, event.pid, event.proc_seq))
        agree()
    engine.finalize()
    agree()
