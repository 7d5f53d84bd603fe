"""The batch fast lane: column pre-screens, compression, mmap access.

Companion to the throughput gate in benchmarks/test_perf_batchscan.py:
these are the *correctness* units -- the pre-screen's soundness on
every Appendix-A record type, the compressed segment round trip, the
lazy (mmap / referenced-buffer) store constructors, and the trace CLI
surface the fast lane grew (``pack --compress``, ``inspect`` cost
lines).
"""

import mmap

import pytest

from repro.__main__ import main
from repro.filtering.records import format_record
from repro.filtering.rules import DEFAULT_TEMPLATES_TEXT, parse_rules
from repro.metering.messages import (
    BODY_FIELDS,
    EVENT_TYPES,
    MessageCodec,
    record_fields,
)
from repro.net.addresses import InternetName
from repro.tracestore import (
    StoreReader,
    StoreWriter,
    collect_ops,
    pack_records,
    scan_fast,
    select,
)
from repro.tracestore.batchscan import message_select
from repro.tracestore.writer import flush_to_files
from tests.tracestore.harness import reference_select

HOSTS = {1: "red", 2: "green", 3: "blue", 4: "yellow"}


def _wire_for(codec, event, i=0):
    """One well-formed wire message of ``event``, with every long set
    to a distinctive value and every NAME populated."""
    name = InternetName(HOSTS[1 + i % 4], 6000 + i, 1 + i % 4)
    body, names = {}, {}
    for field, kind in BODY_FIELDS[event]:
        if kind == "long":
            if not field.endswith("NameLen"):
                body[field] = 10 + i
        else:
            names[field] = name
    body.update(names)
    body.update(codec.name_lengths(**names))
    return codec.encode(
        event, machine=1 + i % 4, cpu_time=100 + i, proc_time=10, **body
    )


def _all_type_wire(n_per_type=5):
    codec = MessageCodec(HOSTS)
    wire = []
    for event in sorted(EVENT_TYPES):
        for i in range(n_per_type):
            wire.append(_wire_for(codec, event, i))
    return codec, wire


def _store_from(wire, base="/t/b.store", **kwargs):
    writer = StoreWriter(base, host_names=HOSTS, **kwargs)
    for raw in wire:
        writer.append(raw)
    writer.close()
    sink = {}
    collect_ops(sink, writer)
    return {path: bytes(data) for path, data in sink.items()}


# ----------------------------------------------------------------------
# The pre-screen, on every Appendix-A record type
# ----------------------------------------------------------------------


@pytest.mark.parametrize("event", sorted(EVENT_TYPES))
def test_prescreen_every_type_matches_oracle(event):
    """For each Appendix-A type: a type-pinned rule file selects on the
    batch lane exactly what the interpreted RuleSet.apply accepts, and
    records of every *other* type are rejected before materializing."""
    codec, wire = _all_type_wire()
    reader = StoreReader.from_bytes(_store_from(wire))
    # One selecting rule on this type plus one long condition, so the
    # screen has real column work; pid is on every Appendix-A body.
    rules = parse_rules("type={0}, pid>=10\n".format(event))
    oracle = [r for r in reader.scan() if rules.apply(r) is not None]
    fast = select(reader, rules)
    assert fast == oracle
    assert [r["event"] for r in fast] == [event] * 5
    # Every record of the other nine types was rejected on columns
    # alone: no dict, no rules.apply.
    stats = reader.last_stats
    assert stats.records_prescreened == len(wire) - len(fast)


@pytest.mark.parametrize("event", sorted(EVENT_TYPES))
def test_prescreen_soundness_on_wire_messages(event):
    """message_select is the reference lane (per-field decode,
    interpreted rules, mask from the missing fields) on every wire
    message -- checked per type against rules that accept, rules that
    reject, first-match order with discards, and a NAME condition."""
    codec, wire = _all_type_wire(n_per_type=2)
    rule_texts = [
        "type={0}, pid>=10\n".format(event),
        "type={0}, pid<0\n".format(event),
        "machine=1\n",
        "#type={0}\nevent=*\n".format(event),
        "type={0}, machine=#*, pid=#*, event=#*\ncpuTime=#*\n".format(event),
    ]
    name_fields = [f for f, k in BODY_FIELDS[event] if k == "name"]
    if name_fields:
        rule_texts.append(
            "type={0}, {1}=#inet:green:6001\n".format(event, name_fields[0])
        )
    for text in rule_texts:
        rules = parse_rules(text)
        select = message_select(rules, HOSTS)
        for raw in wire:
            got = select(raw)
            want = reference_select(raw, rules, HOSTS)
            assert got == want, (text, raw)
            if got is not None:
                assert list(got[0]) == list(want[0])  # key order too


def test_prescreen_name_rule_needs_host_table():
    """A NAME condition compares display strings, and a display string
    is a function of the host table: the same wire bytes select under
    the table that names host 2 "green" and not under one that does
    not -- in both cases exactly as the reference decides."""
    codec, __ = _all_type_wire()
    rules = parse_rules("type=send, destName=inet:green:6001\n")
    hit = _wire_for(codec, "send", 1)     # destName inet:green:6001
    miss = _wire_for(codec, "send", 2)    # destName inet:blue:6002
    sighted = message_select(rules, HOSTS)
    assert sighted(hit)[0]["destName"] == "inet:green:6001"
    assert sighted(miss) is None
    renamed = dict(HOSTS)
    renamed[2] = "teal"
    for table in (HOSTS, renamed, {}):
        select = message_select(rules, table)
        for raw in (hit, miss):
            assert select(raw) == reference_select(raw, rules, table)
    assert message_select(rules, renamed)(hit) is None


def test_select_lane_gates_on_rules_and_message_shape():
    """Nothing to compile -> no select lane (the filter keeps the dict
    lane); and what is not a whole Appendix-A message raises, so the
    filter's malformed-message handler drops it."""
    assert message_select(parse_rules(""), HOSTS) is None
    assert message_select(parse_rules("machine=1\n", compiled=False), HOSTS) is None
    assert message_select(None, HOSTS) is None
    select = message_select(parse_rules("machine=*\n"), HOSTS)
    codec, __ = _all_type_wire()
    raw = _wire_for(codec, "socket")
    assert select(raw)[3] == "socket"
    for bad in (
        raw[:10],                                         # no header
        (34).to_bytes(4, "big") + raw[4:34],              # short body
        raw[:20] + (77).to_bytes(4, "big") + raw[24:],    # unknown type
    ):
        with pytest.raises(ValueError):
            select(bad)


def test_cross_field_name_comparison_matches_oracle():
    """sockName=peerName -- the Figure 3.4 shape that compares two NAME
    columns -- selects identically on both lanes."""
    codec, wire = _all_type_wire()
    reader = StoreReader.from_bytes(_store_from(wire))
    rules = parse_rules("type=accept, sockName=peerName\n")
    oracle = [r for r in reader.scan() if rules.apply(r) is not None]
    assert select(reader, rules) == oracle
    assert oracle  # _wire_for gives accept equal sockName/peerName


@pytest.mark.parametrize("reduction, lost", [
    ("type=1, machine=#*\n", "machine"),
    ("type=accept, cpuTime=#*\n", "cpuTime"),
])
@pytest.mark.parametrize("text", [
    DEFAULT_TEMPLATES_TEXT,
    "machine=*, cpuTime=*\n",
    "machine=*, pid=*\n",
])
def test_wildcard_does_not_match_a_discarded_header_field(
    reduction, lost, text
):
    """A reduction may discard a *header* field; what is left of the
    record no longer has it, so ``field=*`` ("matches any value") does
    not hold -- on the column program (a presence-bit guard), on the
    dispatch walk and on the file-order reference alike."""
    codec, wire = _all_type_wire()
    reduce = parse_rules(reduction + "size=*\n")
    store, __ = pack_records(
        [reduce.apply(codec.decode(raw)) for raw in wire],
        "/t/r.store", host_names=HOSTS,
    )
    reader = StoreReader.from_bytes(store)
    scanned = list(reader.scan())
    assert sum(lost not in record for record in scanned) == 5
    rules = parse_rules(text)
    (rule,) = rules.rules
    reference = [
        s for s in map(rules.apply_interpreted, scanned) if s is not None
    ]
    assert reference == [
        r for r in scanned if all(c.field in r for c in rule.conditions)
    ]
    assert select(reader, rules) == reference
    assert [s for s in map(rules.apply, scanned) if s is not None] == reference


# ----------------------------------------------------------------------
# Compressed segments
# ----------------------------------------------------------------------


def test_compressed_store_round_trips_and_shrinks():
    __, wire = _all_type_wire(n_per_type=40)
    plain = StoreReader.from_bytes(_store_from(wire))
    packed = StoreReader.from_bytes(_store_from(wire, compress=True))
    assert packed.records() == plain.records()
    sealed = [s for s in packed.segments if s.sealed]
    assert sealed and all(s.compressed for s in sealed)
    for segment in sealed:
        assert segment.stored_data_bytes() < segment.data_bytes()
        assert segment.verify()["status"] == "sealed-clean"


def test_compressed_store_fast_lane_identical():
    __, wire = _all_type_wire(n_per_type=40)
    reader = StoreReader.from_bytes(_store_from(wire, compress=True))
    assert list(scan_fast(reader)) == list(reader.scan())


def test_flipped_compression_flag_is_harmless():
    """The header flag byte is not CRC-protected; the footer is.  A
    flipped compression bit on a sealed segment must not change the
    record stream (the footer's own fields outrank the flag)."""
    __, wire = _all_type_wire(n_per_type=10)
    for compress in (False, True):
        store = _store_from(wire, compress=compress)
        baseline = StoreReader.from_bytes(store).records()
        flipped = {
            path: bytes(data[:7] + bytes([data[7] ^ 0x1]) + data[8:])
            for path, data in store.items()
        }
        assert StoreReader.from_bytes(flipped).records() == baseline


# ----------------------------------------------------------------------
# Lazy store constructors
# ----------------------------------------------------------------------


def test_from_files_memory_maps_segments(tmp_path):
    __, wire = _all_type_wire()
    base = str(tmp_path / "m.store")
    writer = StoreWriter(base, host_names=HOSTS)
    for raw in wire:
        writer.append(raw)
    writer.close()
    flush_to_files(writer)
    reader = StoreReader.from_files(base)
    assert reader.segments
    assert all(isinstance(s._raw, mmap.mmap) for s in reader.segments)
    assert list(scan_fast(reader)) == list(reader.scan())


def test_from_bytes_defers_bytearray_snapshots():
    """A bytearray-backed segment (live filesystem buffer) is not
    copied at construction -- only when a scan first touches it."""
    __, wire = _all_type_wire()
    store = {
        path: bytearray(data) for path, data in _store_from(wire).items()
    }
    reader = StoreReader.from_bytes(store)
    untouched = [s for s in reader.segments if s.sealed]
    assert untouched and all(s._snapshot is None for s in untouched)
    list(scan_fast(reader))
    assert all(s._snapshot is not None for s in reader.segments)


# ----------------------------------------------------------------------
# The trace CLI surface
# ----------------------------------------------------------------------


@pytest.fixture
def text_log(tmp_path):
    codec, wire = _all_type_wire(n_per_type=20)
    lines = []
    for raw in wire:
        record = codec.decode(raw)
        order = ["event"] + record_fields(record["event"])
        lines.append(format_record(record, order))
    logfile = tmp_path / "t.log"
    logfile.write_text("\n".join(lines) + "\n", encoding="ascii")
    return logfile


def test_cli_pack_compress_inspect(tmp_path, capsys, text_log):
    base = str(tmp_path / "t.store")
    assert main(["trace", "pack", str(text_log), base,
                 "--compress", "yes"]) == 0
    out = capsys.readouterr().out
    assert "compressed segment(s)" in out

    assert main(["trace", "inspect", base]) == 0
    out = capsys.readouterr().out
    assert "zlib" in out          # per-segment compression ratio
    assert "verify cost:" in out
    assert "scan cost:" in out
    assert "batch fast lane" in out
