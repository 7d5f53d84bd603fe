"""Packing legacy text logs into stores, and the trace CLI."""

import hashlib
import random
import sys

import pytest

from repro.__main__ import main
from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.filtering.records import format_record, parse_trace
from repro.filtering.rules import parse_rules
from repro.kernel import defs
from repro.metering.messages import (
    BODY_FIELDS,
    EVENT_TYPES,
    WHOLE_RECORD_KEYS,
    MessageCodec,
    field_encoder,
    message_length,
    record_event,
    record_fields,
)
from repro.tracestore import StoreReader, convert, pack_text
from repro.tracestore.convert import (
    PACK_CHUNK_RECORDS,
    host_names_from_records,
    pack_records,
    wire_pairs,
)
from repro.tracestore.writer import StoreWriter


def _talker(sys, argv):
    fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
    yield sys.bind(fd, ("", 6100))
    for i in range(6):
        yield sys.sendto(fd, b"x" * (100 * (i + 1)), ("green", 6101))
    yield sys.exit(0)


@pytest.fixture(scope="module")
def log_text():
    cluster = Cluster(seed=21)
    session = MeasurementSession(cluster, control_machine="yellow")
    session.install_program("talker", _talker)
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command("addprocess j red talker")
    session.command("setflags j send socket termproc fork")
    session.command("startjob j")
    session.settle()
    __, text = session.find_filter_log("f1")
    return text


def test_pack_text_round_trips_every_record(log_text):
    records = parse_trace(log_text)
    store, writer = pack_text(log_text, "/t/f1.store")
    assert writer.records_appended == len(records)
    assert StoreReader.from_bytes(store).records() == records


def test_pack_preserves_reduced_records():
    text = (
        "event=send size=60 machine=1 cpuTime=30 procTime=10 traceType=1 "
        "pid=77 sock=3 msgLength=512 destNameLen=0 destName=\n"  # pc discarded
        "event=fork size=36 machine=2 cpuTime=31 procTime=0 traceType=7 "
        "pid=80 pc=9 newPid=81\n"
    )
    store, __ = pack_text(text, "/t/red.store")
    out = StoreReader.from_bytes(store).records()
    assert out == parse_trace(text)
    assert "pc" not in out[0]


def test_pack_records_takes_a_one_shot_iterator(log_text, monkeypatch):
    """Without a host table the pack reads host names in a pass of its
    own: a one-shot iterator packs what its list packs, and a list is
    read as it is, not copied."""
    records = parse_trace(log_text)
    from_list, listed = pack_records(records, "/t/it.store")
    from_iter, iterated = pack_records(iter(records), "/t/it.store")
    assert iterated.records_appended == listed.records_appended == len(records)
    assert from_iter == from_list
    seen = []
    real = convert.host_names_from_records
    monkeypatch.setattr(
        convert, "host_names_from_records",
        lambda given: seen.append(given) or real(given),
    )
    pack_records(records, "/t/it.store")
    assert seen[0] is records


#: Fig 3.4-style templates: type-pinned rules whose ``#`` values
#: discard fields (NAMEs, longs, header fields, ``traceType``).
REDUCING_TEMPLATES = """\
type=send, msgLength>=500
type=send, msgLength>=300, pc=#*, destName=#*
type=send, msgLength<300, sock=#*
type=socket, domain=2, protocol=#*, pc=#*
type=fork, newPid=#*
type=#termproc, status>=0, cpuTime=#*, procTime=#*
"""


def test_reduced_records_never_reach_the_per_field_encoder(log_text):
    """A pack of records a reduction left with ints and NAME display
    strings -- values ``pack`` takes as they stand -- runs the
    per-field encoder for none of them: reduced records take the shape
    lane, whole ones ``record_encoder``'s."""
    rules = parse_rules(REDUCING_TEMPLATES + "machine=*\n")
    records = [
        reduced
        for reduced in map(
            rules.apply, parse_trace(log_text + _generated_log(lines=400))
        )
        if reduced is not None
    ]
    reduced = [
        r for r in records if len(r) < WHOLE_RECORD_KEYS[record_event(r)]
    ]
    assert len({tuple(r) for r in reduced}) >= 4 and len(reduced) < len(records)
    per_field = {field_encoder(event).__code__ for event in BODY_FIELDS}
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in per_field:
            runs.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        store, writer = pack_records(records, "/t/reduced.store")
    finally:
        sys.setprofile(previous)
    assert runs == []
    assert writer.records_appended == len(records)
    assert StoreReader.from_bytes(store).records() == records


@pytest.mark.parametrize("missing", ["traceType", "pid"])
def test_stand_in_key_does_not_make_a_record_whole(missing):
    """A record with a whole record's key count, where an extra key
    stands in for ``traceType`` (or a body field), still lacks that
    field: the pack gives it ``field_encoder``'s mask, that bit set."""
    record = {
        "event": "send", "size": 60, "machine": 1, "cpuTime": 30,
        "procTime": 10, "traceType": 1, "pid": 77, "pc": 9, "sock": 3,
        "msgLength": 512, "destNameLen": 16, "destName": "inet:red:6101",
    }
    assert len(record) == WHOLE_RECORD_KEYS["send"]
    del record[missing]
    record["note"] = 0
    codec = MessageCodec({1: "red"})
    [(payload, mask)] = wire_pairs([record], codec)
    assert mask == 1 << record_fields("send").index(missing)
    assert (payload, mask) == field_encoder("send")(record, codec.name_wire_bytes)
    store, __ = pack_records([record], "/t/stand-in.store")
    del record["note"]
    assert StoreReader.from_bytes(store).records() == [record]


def test_host_names_recovered_from_display_strings(log_text):
    records = parse_trace(log_text)
    hosts = host_names_from_records(records)
    assert "green" in hosts.values()
    assert all(not name.isdigit() for name in hosts.values())


def test_cli_pack_inspect_cat(tmp_path, capsys, log_text):
    logfile = tmp_path / "f1.log"
    logfile.write_text(log_text, encoding="ascii")
    base = str(tmp_path / "f1.store")

    assert main(["trace", "pack", str(logfile), base,
                 "--segment-bytes", "256"]) == 0
    packed = capsys.readouterr().out
    assert "packed" in packed and "segment(s)" in packed
    assert "skipped" not in packed

    assert main(["trace", "inspect", base]) == 0
    inspected = capsys.readouterr().out
    assert "records" in inspected
    assert "total records: {0}".format(len(parse_trace(log_text))) in inspected

    assert main(["trace", "cat", base]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [dict_ for dict_ in parse_trace("\n".join(lines))] == parse_trace(log_text)

    assert main(["trace", "cat", base, "--event", "send"]) == 0
    sends = parse_trace(capsys.readouterr().out)
    assert sends == [r for r in parse_trace(log_text) if r["event"] == "send"]

    assert main(["trace", "cat", base, "--machine", "999"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_cli_pack_reports_records_it_skips(tmp_path, capsys):
    """A log line that names no Appendix-A event has no wire form:
    pack leaves it out and says so."""
    logfile = tmp_path / "mixed.log"
    logfile.write_text(
        "event=send size=60 machine=1 cpuTime=30 procTime=10 traceType=1 "
        "pid=77 pc=1 sock=3 msgLength=512 destNameLen=0 destName=\n"
        "note=hello\n"
        "event=frobnicate pid=2\n",
        encoding="ascii",
    )
    base = str(tmp_path / "mixed.store")
    assert main(["trace", "pack", str(logfile), base]) == 0
    out = capsys.readouterr().out
    assert out.startswith("packed 1 records into 1 segment(s)")
    assert out.rstrip().endswith("(2 skipped: not an Appendix-A event)")
    assert len(StoreReader.from_files(base).records()) == 1


def test_cli_cat_text_lines_match_original(tmp_path, capsys, log_text):
    """cat reproduces the original record lines byte for byte (the
    log's #batch commit-marker lines are metadata, not records)."""
    logfile = tmp_path / "f1.log"
    logfile.write_text(log_text, encoding="ascii")
    base = str(tmp_path / "f1.store")
    main(["trace", "pack", str(logfile), base])
    capsys.readouterr()
    main(["trace", "cat", base])
    record_lines = "\n".join(
        line for line in log_text.splitlines() if not line.startswith("#")
    )
    assert capsys.readouterr().out.strip("\n") == record_lines.strip("\n")


def _damage_first_segment(tmp_path):
    """Flip one byte inside the first segment's sealed data region."""
    from repro.tracestore import format as sformat

    seg = sorted(tmp_path.glob("f1.store.seg*"))[0]
    data = bytearray(seg.read_bytes())
    footer = sformat.parse_footer(data)
    data[(footer["data_start"] + footer["data_end"]) // 2] ^= 0x20
    seg.write_bytes(bytes(data))


def test_cli_fsck_verify_damage_and_repair(tmp_path, capsys, log_text):
    logfile = tmp_path / "f1.log"
    logfile.write_text(log_text, encoding="ascii")
    base = str(tmp_path / "f1.store")
    main(["trace", "pack", str(logfile), base, "--segment-bytes", "256"])
    capsys.readouterr()

    assert main(["trace", "fsck", base]) == 0
    out = capsys.readouterr().out
    assert "clean" in out and "sealed-clean" in out

    _damage_first_segment(tmp_path)
    assert main(["trace", "fsck", base]) == 1
    out = capsys.readouterr().out
    assert "DAMAGED" in out and "corrupt-frame" in out and "lost" in out

    # inspect surfaces the same integrity verdict without failing.
    assert main(["trace", "inspect", base]) == 0
    assert "quarantined" in capsys.readouterr().out

    # Strict cat refuses the damaged store; salvage degrades with a
    # quantified loss ledger on stderr (corrupt frames, quarantined
    # bytes, AND how many records survived the damaged segments).
    assert main(["trace", "cat", base]) == 1
    assert "trace cat" in capsys.readouterr().out
    assert main(["trace", "cat", base, "--salvage", "yes"]) == 0
    err = capsys.readouterr().err
    assert "# salvage:" in err and "quarantined" in err
    assert "1 corrupt frame(s)" in err
    assert "record(s) salvaged" in err

    # Repair writes a clean copy; the source stays damaged (offline tool).
    assert main(["trace", "fsck", base, "--repair", "yes"]) == 1
    assert "repaired copy" in capsys.readouterr().out
    assert main(["trace", "fsck", base + ".repaired"]) == 0
    assert "clean" in capsys.readouterr().out
    assert main(["trace", "fsck", base]) == 1
    capsys.readouterr()


def test_cli_inspect_skips_foreign_segment_file(tmp_path, capsys, log_text):
    logfile = tmp_path / "f1.log"
    logfile.write_text(log_text, encoding="ascii")
    base = str(tmp_path / "f1.store")
    main(["trace", "pack", str(logfile), base])
    capsys.readouterr()
    (tmp_path / "f1.store.seg99999").write_bytes(b"not a segment")
    assert main(["trace", "inspect", base]) == 0
    out = capsys.readouterr().out
    assert "UNREADABLE" in out and "foreign" in out
    assert "total records: {0}".format(len(parse_trace(log_text))) in out


def test_cli_trace_usage_and_errors(tmp_path, capsys):
    assert main(["trace"]) == 1
    assert "usage" in capsys.readouterr().out
    assert main(["trace", "nope"]) == 1
    capsys.readouterr()
    assert main(["trace", "inspect", str(tmp_path / "missing.store")]) == 1
    assert "inspect" in capsys.readouterr().out
    assert main(["trace", "cat", str(tmp_path / "x"), "--bogus", "1"]) == 1


def test_traceType_only_record_keeps_its_host_name():
    """A record typed only by ``traceType`` contributes its Internet
    host names to the pack's host table, as one with ``event`` does."""
    line = (
        "size=0 machine=1 cpuTime=5 procTime=0 traceType=1 pid=7 pc=1 "
        "sock=3 msgLength=10 destNameLen=16 destName=inet:red:5100"
    )
    for text in (line, "event=send " + line):
        store, __ = pack_text(text, "/t/tt.store")
        (record,) = StoreReader.from_bytes(store).records()
        assert record["destName"] == "inet:red:5100"


_HOSTS = ["red", "green", "blue", "yellow", "12"]


def _name(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return ""
    if kind == 1:
        return "unix:/tmp/s%d" % rng.randrange(4)
    if kind == 2:
        return "pair:%d" % rng.randrange(1, 6)
    return "inet:%s:%d" % (rng.choice(_HOSTS), 5100 + rng.randrange(6))


def _generated_log(seed=27, lines=3000):
    """A fixed text log over every Appendix-A event: repeated names,
    reduced (missing) fields and ``#batch`` marker lines."""
    rng = random.Random(seed)
    events = sorted(BODY_FIELDS)
    out = []
    for i in range(lines):
        if i % 50 == 49:
            out.append("#batch %d %d %d" % (rng.randrange(1, 5), 100, i))
            continue
        event = rng.choice(events)
        record = {
            "event": event,
            "size": message_length(event),
            "machine": rng.randrange(1, 5),
            "cpuTime": 1000 + i * 3 + rng.randrange(3),
            "procTime": rng.randrange(50),
            "traceType": EVENT_TYPES[event],
        }
        for name, kind in BODY_FIELDS[event]:
            if name != "pid" and rng.random() < 0.05:
                continue  # discarded by a reduction rule
            if kind == "name":
                record[name] = _name(rng)
            else:
                record[name] = rng.randrange(-3, 200)
        out.append(format_record(record))
    return "\n".join(out) + "\n"


def test_pack_text_bytes_are_pinned():
    """The packed store of a fixed generated log, byte for byte.  The
    pin was read off the pack before the parser and NAME memos."""
    text = _generated_log()
    store, writer = pack_text(text, "/t/pin.store", segment_bytes=8192)
    digest = hashlib.sha256()
    for path in sorted(store):
        digest.update(path.encode("ascii"))
        digest.update(store[path])
    assert len(store) == writer.segments_sealed == 23
    assert digest.hexdigest() == (
        "22b93000d27be55567320582b18fb99256971122c3c202e2841b92f55d1adae2"
    )
    assert StoreReader.from_bytes(store).records() == parse_trace(text)


def test_pack_encodes_each_chunk_just_before_appending_it(monkeypatch):
    """The pack holds one chunk's wire pairs at a time and builds each
    event's encoder once, yet queues exactly the ops -- so the bytes
    and footers -- of appending the whole log's pairs in one batch.
    Records that are not Appendix-A messages are skipped mid-chunk."""
    records = parse_trace(_generated_log(lines=2000))
    for at in range(7, len(records), 301):
        records.insert(at, {"event": "bogus", "machine": 1})
    hosts = host_names_from_records(records)
    oracle = StoreWriter("/t/chunk.store", segment_bytes=8192,
                         host_names=hosts)
    oracle.append_many(wire_pairs(records, MessageCodec(hosts)))
    oracle.close()

    encoded, built = [], []
    real_pairs, real_encoder = convert.wire_pairs, convert.record_encoder

    def counted_pairs(chunk, *args):
        encoded.append(len(chunk))
        return real_pairs(chunk, *args)

    def counted_encoder(event):
        built.append(event)
        return real_encoder(event)

    monkeypatch.setattr(convert, "wire_pairs", counted_pairs)
    monkeypatch.setattr(convert, "record_encoder", counted_encoder)
    ops = []
    __, writer = pack_records(
        records, "/t/chunk.store", segment_bytes=8192, host_names=hosts,
        writer_driver=lambda w: ops.extend(w.pending_ops()),
    )
    assert ops == oracle.pending_ops()
    assert writer.records_appended == oracle.records_appended
    assert max(encoded) == PACK_CHUNK_RECORDS and sum(encoded) == len(records)
    assert sorted(built) == sorted(set(built)) == sorted(BODY_FIELDS)


@pytest.mark.parametrize(
    "display", ["inet:red:5100", "inet:7:5100", "inet:blue:5100"],
    ids=["mapped-host", "digit-host", "unknown-host"],
)
def test_encode_record_repeats_a_fresh_codec(display):
    """The NAME memo returns what parsing the display string returns,
    on the first use and every later one (host map: red=1, green=2)."""
    hosts = {1: "red", 2: "green"}
    records = [
        {"event": "send", "machine": 1, "cpuTime": t, "procTime": 0,
         "pid": 9, "pc": 1, "sock": 3, "msgLength": 10, "destNameLen": 16,
         "destName": name}
        for t, name in enumerate([display, "inet:green:6100", display, display])
    ]
    codec = MessageCodec(hosts)
    for record in records:
        assert codec.encode_record(record) == MessageCodec(hosts).encode_record(record)
