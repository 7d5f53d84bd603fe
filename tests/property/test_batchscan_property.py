"""Property tests: the batch fast lane is the interpreted scan.

For any record stream, any store flavour (plain, compressed), any
predicate pushdown, and any compiled rule file,
:func:`~repro.tracestore.scan_fast` / :func:`~repro.tracestore.select`
must produce record-for-record (and key-order-for-key-order) exactly
what :meth:`StoreReader.scan` + ``RuleSet.apply_interpreted`` (and
``RuleSet.apply``) produce.  Frames carry discard masks over the header
fields and ``pid`` -- a reduction may have dropped any of them -- and
rule files include wildcard-only rules over those fields, so "``*``
does not match a discarded field" is covered on every lane.  A damaged
store must agree in salvage mode too.

The same compiled program runs the live filter's record lane:
:func:`~repro.tracestore.batchscan.message_select` over a bare wire
message must equal the reference lanes -- per-field description decode,
interpreted rules, the discard mask rebuilt from the missing fields --
including the batch key and event name of records whose rule discards
``machine``, ``pid`` or ``event``.

The corrupt-store x strict-scan combination is deliberately out of
scope here: strict scans *raise* on damage in both lanes, but which
frame the error names may differ (the fast lane hoists the region CRC
check); the durability property suite owns that contract.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering.rules import parse_rules
from repro.metering import messages
from repro.metering.messages import EVENT_TYPES, MessageCodec
from repro.net.addresses import InternetName, PairName, UnixName
from repro.tracestore import (
    StoreReader,
    StoreWriter,
    collect_ops,
    scan_fast,
    select,
)
from repro.tracestore.batchscan import message_select
from tests.tracestore.harness import reference_select

HOSTS = {1: "red", 2: "green", 3: "blue", 4: "yellow"}

_names = st.one_of(
    st.none(),
    st.builds(
        lambda host_id, port: InternetName(HOSTS[host_id], port, host_id),
        host_id=st.sampled_from(sorted(HOSTS)),
        port=st.integers(min_value=1, max_value=65535),
    ),
    st.builds(
        UnixName,
        path=st.text(alphabet="abcdefghij/._", min_size=1, max_size=14),
    ),
    st.builds(PairName, unique_id=st.integers(min_value=1, max_value=2**31 - 1)),
)


@st.composite
def _wire_messages(draw):
    event = draw(st.sampled_from(sorted(EVENT_TYPES)))
    longs = st.integers(min_value=-(2**31), max_value=2**31 - 1)
    body, names = {}, {}
    for field, kind in messages.BODY_FIELDS[event]:
        if kind == "long":
            if not field.endswith("NameLen"):
                body[field] = draw(longs)
        else:
            names[field] = draw(_names)
    codec = MessageCodec(HOSTS)
    body.update(names)
    body.update(codec.name_lengths(**names))
    return codec.encode(
        event,
        machine=draw(st.sampled_from(sorted(HOSTS))),
        cpu_time=draw(st.integers(min_value=0, max_value=10**6)),
        proc_time=draw(st.integers(min_value=0, max_value=10**6)),
        **body
    )


#: A frame's discard mask: bits 0-4 are the header fields, bit 5 is
#: ``pid`` (first in every Appendix-A body).
_masks = st.one_of(st.just(0), st.integers(min_value=0, max_value=63))

_frames = st.tuples(_wire_messages(), _masks)

#: Condition fragments a rule line is assembled from: column compares,
#: NAME compares (literal and cross-field), wildcards (alone they make
#: wildcard-only rules over maskable fields), discards, and a field no
#: event carries.
_CONDITIONS = [
    "machine=*",
    "cpuTime=*",
    "type=*",
    "pid=*",
    "type=send",
    "type=accept",
    "type=fork",
    "machine=2",
    "machine!=3",
    "pid>0",
    "pid<=100",
    "cpuTime>=500000",
    "msgLength>1024",
    "sock=newSock",
    "pc=#*",
    "cpuTime=#*",
    "destName=*",
    "destName=inet:green:7777",
    "sockName=peerName",
    "peerName!=sockName",
    "nosuchfield=1",
]

#: What only the live lane can get wrong: a rule that discards the
#: very fields the filter keys batches and orders log fields by.
_LIVE_CONDITIONS = _CONDITIONS + [
    "machine=#*",
    "pid=#*",
    "event=#*",
    "type=#receive",
    "sourceName=#*",
    "pid=#sock",
    "destName!=#inet:blue:4000",
    "size>=machine",
]

_rule_lines = st.lists(
    st.lists(st.sampled_from(_CONDITIONS), min_size=1, max_size=3)
    .map(lambda conds: ", ".join(conds)),
    min_size=0,
    max_size=4,
).map(lambda lines: "\n".join(lines) + "\n")

_predicates = st.fixed_dictionaries(
    {},
    optional={
        "machines": st.lists(
            st.integers(min_value=1, max_value=5), min_size=1, max_size=2
        ),
        "events": st.lists(
            st.sampled_from(sorted(EVENT_TYPES)), min_size=1, max_size=3
        ),
        "t_min": st.integers(min_value=0, max_value=10**6),
        "t_max": st.integers(min_value=0, max_value=10**6),
    },
)

_flavours = st.sampled_from(["v2", "zlib"])


def _build(frames, flavour, segment_bytes):
    kwargs = {"segment_bytes": segment_bytes}
    if flavour == "zlib":
        kwargs["compress"] = True
    writer = StoreWriter("/p/s.store", host_names=HOSTS, **kwargs)
    for raw, mask in frames:
        writer.append(raw, mask)
    writer.close()
    sink = {}
    collect_ops(sink, writer)
    return {path: bytes(data) for path, data in sink.items()}


@given(
    frames=st.lists(_frames, min_size=1, max_size=30),
    flavour=_flavours,
    segment_bytes=st.sampled_from([400, 4096]),
    predicates=_predicates,
    rule_text=_rule_lines,
)
@settings(max_examples=120, deadline=None)
def test_fast_lane_equals_interpreted_lane(
    frames, flavour, segment_bytes, predicates, rule_text
):
    store = _build(frames, flavour, segment_bytes)
    reader = StoreReader.from_bytes(store)

    oracle_scan = list(reader.scan(**predicates))
    fast_scan = list(scan_fast(reader, **predicates))
    assert fast_scan == oracle_scan
    assert [list(r) for r in fast_scan] == [list(r) for r in oracle_scan]

    rules = parse_rules(rule_text)
    oracle_sel = [
        s for s in map(rules.apply_interpreted, oracle_scan) if s is not None
    ]
    assert [
        s for s in map(rules.apply, oracle_scan) if s is not None
    ] == oracle_sel
    fast_sel = select(reader, rules, **predicates)
    assert fast_sel == oracle_sel
    assert [list(r) for r in fast_sel] == [list(r) for r in oracle_sel]


@given(
    frames=st.lists(_frames, min_size=4, max_size=30),
    flavour=_flavours,
    damage=st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=7),
    ),
    rule_text=_rule_lines,
)
@settings(max_examples=80, deadline=None)
def test_salvage_fast_lane_equals_interpreted_lane(
    frames, flavour, damage, rule_text
):
    store = _build(frames, flavour, 400)
    path = sorted(store)[len(store) // 2]
    offset, bit = damage
    blob = bytearray(store[path])
    blob[offset % len(blob)] ^= 1 << bit
    store[path] = bytes(blob)

    reader = StoreReader.from_bytes(store)
    oracle = list(reader.scan(salvage=True))
    oracle_stats = repr(reader.last_stats)
    fast = list(scan_fast(reader, salvage=True))
    assert fast == oracle
    assert repr(reader.last_stats) == oracle_stats

    rules = parse_rules(rule_text)
    oracle_sel = [
        s
        for s in (rules.apply(r) for r in reader.scan(salvage=True))
        if s is not None
    ]
    assert select(reader, rules, salvage=True) == oracle_sel


@given(
    raws=st.lists(_wire_messages(), min_size=1, max_size=20),
    rule_text=st.lists(
        st.lists(st.sampled_from(_LIVE_CONDITIONS), min_size=1, max_size=4)
        .map(lambda conds: ", ".join(conds)),
        min_size=1,
        max_size=4,
    ).map(lambda lines: "\n".join(lines) + "\n"),
    host_names=st.sampled_from([HOSTS, {2: "green"}, {}]),
)
@settings(max_examples=150, deadline=None)
def test_message_select_equals_reference_lane(raws, rule_text, host_names):
    rules = parse_rules(rule_text)
    live = message_select(rules, host_names)
    for raw in raws:
        got = live(raw)
        want = reference_select(raw, rules, host_names)
        assert got == want
        if got is not None:
            assert list(got[0]) == list(want[0])
