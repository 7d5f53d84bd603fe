"""Packing legacy text logs into stores, and the trace CLI."""

import hashlib
import random

import pytest

from repro.__main__ import main
from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.filtering.records import format_record, parse_trace
from repro.kernel import defs
from repro.metering.messages import (
    BODY_FIELDS,
    EVENT_TYPES,
    MessageCodec,
    message_length,
)
from repro.tracestore import StoreReader, pack_text
from repro.tracestore.convert import host_names_from_records


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
