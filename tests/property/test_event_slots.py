"""Property: an event's slots hold what the accessors they replaced
returned, however the trace was built and whatever the records hold.

``Event`` used to read its record on every attribute access (eight
``@property`` getters) and the fold kept a second, slotted object per
record.  The one class fills its slots once; ``_deleted_accessors`` is
the old reading, kept here as the specification.  One slot differs on
purpose: a falsy ``msgLength`` (``None``, ``""``) used to come through
``Event.msg_length`` unchanged and now reads 0, as the fold's event
always read it."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace import Trace
from repro.filtering.records import format_record, parse_trace
from repro.metering.messages import MessageCodec
from repro.tracestore import StoreReader, pack_records

from tests.property.test_store_properties import HOSTS, _wire_messages

_FIELDS = (
    "event", "machine", "pid", "cpuTime", "procTime", "sock", "msgLength",
    "destName", "sourceName", "sockName", "peerName", "newSock", "pc",
)

_garbage = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=2**31),
    st.sampled_from(["", "send", "receive", "inet:red:1024", "7", "x=y", "-"]),
    st.text(alphabet="abc:019_+-", max_size=6),
)


def _deleted_accessors(record):
    get = record.get
    return {
        "event": get("event"),
        "machine": get("machine"),
        "pid": get("pid"),
        "process": (get("machine"), get("pid")),
        "local_time": get("cpuTime", 0),
        "proc_time": get("procTime", 0),
        "sock": get("sock"),
        "msg_length": get("msgLength", 0),
        "dest": get("destName") or None,
        "source": get("sourceName") or None,
        "sock_name": get("sockName") or None,
        "peer_name": get("peerName") or None,
        "new_sock": get("newSock"),
    }


def _check(trace, records):
    assert [event.record for event in trace] == records
    seen = {}
    for index, event in enumerate(trace):
        old = _deleted_accessors(event.record)
        # The deliberate difference: the old getter's None or "" is 0.
        assert event.msg_length == (old.pop("msg_length") or 0)
        assert {slot: getattr(event, slot) for slot in old} == old
        assert event.index == index
        first = seen.setdefault(event.process, event)
        # One tuple per process, and the per-process sequence.
        assert event.process is first.process
        assert event.proc_seq == trace.events_for(event.process).index(event)
        for field in ("destName", "sockName"):
            assert event.name(field) == (event.record.get(field, "") or None)
        assert event.get("pc", "absent") == event.record.get("pc", "absent")
    assert trace.processes() == list(seen)


@st.composite
def _garbage_records(draw, **fixed):
    keys = draw(st.lists(st.sampled_from(_FIELDS), unique=True))
    return {key: draw(fixed.get(key, _garbage)) for key in keys}


@given(st.lists(_garbage_records(), max_size=30))
@settings(max_examples=150, deadline=None)
def test_slots_of_a_trace_built_from_garbage_records(records):
    _check(Trace(records), records)


@given(st.lists(_garbage_records(), max_size=30))
@settings(max_examples=100, deadline=None)
def test_slots_of_a_trace_built_from_text(records):
    text = "\n".join(format_record(record) for record in records)
    _check(Trace.from_text(text), parse_trace(text))


_sortable = {
    "cpuTime": st.integers(min_value=0, max_value=50),
    "machine": st.integers(min_value=0, max_value=3),
}


@given(
    st.lists(_garbage_records(**_sortable), max_size=15),
    st.lists(_garbage_records(**_sortable), max_size=15),
)
@settings(max_examples=100, deadline=None)
def test_slots_of_a_merged_trace(left, right):
    merged = Trace.merge(Trace(left), Trace(right))
    records = sorted(
        left + right,
        key=lambda r: (r.get("cpuTime", 0), r.get("machine", 0)),
    )
    _check(merged, records)


@given(st.lists(_wire_messages(), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_slots_of_a_trace_built_from_a_store(raws):
    codec = MessageCodec(HOSTS)
    records = [codec.decode(raw) for raw in raws]
    store, __ = pack_records(
        records, "/p/s.store", segment_bytes=512, host_names=HOSTS
    )
    _check(Trace.from_store(StoreReader.from_bytes(store)), records)


def test_a_falsy_msg_length_reads_zero():
    """Not what the deleted getter returned (the value itself, which
    ``CommunicationStatistics`` then failed to add up): garbage and
    salvaged records count for no bytes."""
    records = [
        {"event": "send", "machine": 1, "pid": 2, "msgLength": length}
        for length in (None, "", 0, 7)
    ] + [{"event": "send", "machine": 1, "pid": 2}]
    assert [e.msg_length for e in Trace(records)] == [0, 0, 0, 7, 0]


def test_a_slot_is_a_snapshot_of_the_record():
    record = {"event": "send", "machine": 1, "pid": 2, "msgLength": 5}
    event = Trace([record]).events[0]
    record["msgLength"] = 9
    assert event.msg_length == 5
    assert event["msgLength"] == event.get("msgLength") == 9


def test_the_fold_hands_a_process_one_tuple_too():
    """A live engine's events outlive their update (pending sends,
    clock nodes); a tuple kept per event is a tracked allocation per
    record the filter never gets back."""
    from repro.streaming.engine import StreamEngine

    engine = StreamEngine()
    first, other, again = (
        engine.update({"event": "socket", "machine": 1, "pid": pid})
        for pid in (2, 3, 2)
    )
    assert again.process is first.process == (1, 2)
    assert other.process == (1, 3) and again.proc_seq == 1
