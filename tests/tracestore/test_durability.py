"""Durability: CRC frames, salvage reads, fsck, and rejected versions."""

import pytest

from repro.metering.messages import MessageCodec
from repro.net.addresses import InternetName
from repro.tracestore import (
    FORMAT_VERSION,
    BadSegmentHeaderError,
    CorruptSegmentError,
    StoreError,
    StoreReader,
    StoreWriter,
    collect_ops,
    fsck_store,
    repair_store,
    scan_fast,
)
from repro.tracestore import format as sformat
from repro.tracestore.errors import CorruptFrameError
from repro.tracestore.reader import (
    BAD_HEADER,
    CORRUPT_FRAME,
    FOREIGN,
    SEALED_CLEAN,
    TORN_TAIL,
    Segment,
)

HOSTS = {1: "red", 2: "green", 3: "blue"}


def _codec():
    return MessageCodec(HOSTS)


def _wire(codec, n, t0=0):
    out = []
    for i in range(n):
        machine = (i % 3) + 1
        dest = InternetName(HOSTS[machine], 6000 + i % 4, machine)
        out.append(
            codec.encode(
                "send",
                machine=machine,
                cpu_time=t0 + i * 5,
                proc_time=10,
                pid=100 + i % 2,
                pc=i,
                sock=4,
                msgLength=32 * (1 + i % 3),
                destName=dest,
                **codec.name_lengths(destName=dest)
            )
        )
    return out


def _store_from(wire, **writer_kw):
    writer_kw.setdefault("host_names", HOSTS)
    writer = StoreWriter("/t/s.store", **writer_kw)
    sink = {}
    for raw in wire:
        writer.append(raw)
    writer.close()
    collect_ops(sink, writer)
    return {path: bytes(data) for path, data in sink.items()}, writer


def _scan(reader, **predicates):
    """The oracle lane, :meth:`StoreReader.scan`, materialised."""
    return list(reader.scan(**predicates))


def _fast(reader, **predicates):
    """The fused lane, which :meth:`StoreReader.records` reads through."""
    return list(scan_fast(reader, **predicates))


def _flip_data_byte(store, path, xor=0x40, at=None):
    """Flip a byte inside the sealed data region of one segment."""
    data = bytearray(store[path])
    footer = sformat.parse_footer(data)
    offset = at if at is not None else (footer["data_start"] + footer["data_end"]) // 2
    data[offset] ^= xor
    out = dict(store)
    out[path] = bytes(data)
    return out


# ----------------------------------------------------------------------
# Format versions
# ----------------------------------------------------------------------


def test_writer_defaults_to_v2_with_per_frame_crc():
    codec = _codec()
    store, writer = _store_from(_wire(codec, 6))
    assert writer.version == FORMAT_VERSION
    (data,) = store.values()
    assert sformat.parse_segment_header(data) == FORMAT_VERSION
    reader = StoreReader.from_bytes(store)
    assert reader.segments[0].version == FORMAT_VERSION
    baseline = [codec.decode(raw) for raw in _wire(codec, 6)]
    assert _scan(reader) == reader.records() == baseline


def test_unsupported_version_rejected_by_writer_and_reader():
    header = sformat.segment_header()
    bad = header[:4] + b"\x00\x09" + header[6:]  # version field = 9
    with pytest.raises(BadSegmentHeaderError):
        sformat.parse_segment_header(bad + b"rest")


def test_version_1_segment_is_a_bad_header_everywhere():
    """The retired pre-CRC format fails loudly through the path every
    unsupported version takes: a typed error from the parser, a counted
    and skipped segment in both scan lanes, ``bad-header`` in fsck."""
    codec = _codec()
    store, __ = _store_from(_wire(codec, 8), segment_bytes=300)
    first = sorted(store)[0]
    retired = dict(store)
    retired[first] = store[first][:4] + b"\x00\x01" + store[first][6:]
    with pytest.raises(BadSegmentHeaderError, match="unsupported segment version 1"):
        sformat.parse_segment_header(retired[first], path=first)
    survivors = StoreReader.from_bytes(
        {path: data for path, data in store.items() if path != first}
    ).records()
    for scan in (_scan, _fast):
        reader = StoreReader.from_bytes(retired)
        assert scan(reader) == survivors
        assert reader.last_stats.segments_bad_header == 1
        assert not reader.last_stats.loss_free()
    report = fsck_store(StoreReader.from_bytes(retired))
    statuses = {seg["path"]: seg["status"] for seg in report["segments"]}
    assert statuses[first] == BAD_HEADER and not report["clean"]


# ----------------------------------------------------------------------
# Bad-header segments: skipped and counted, never fatal
# ----------------------------------------------------------------------


def test_bad_header_segment_skipped_with_loss_accounting():
    codec = _codec()
    wire = _wire(codec, 30)
    store, writer = _store_from(wire, segment_bytes=600)
    assert writer.segments_sealed >= 3
    first = sorted(store)[0]
    broken = dict(store)
    broken[first] = b"\x00\x00" + broken[first][2:]  # wrecked magic
    baseline = [codec.decode(raw) for raw in wire]
    for scan in (_scan, StoreReader.records):
        reader = StoreReader.from_bytes(broken)
        records = scan(reader)
        stats = reader.last_stats
        assert stats.segments_bad_header == 1
        assert not stats.loss_free()
        assert stats.segment_errors and stats.segment_errors[0][0] == first
        # Every surviving record comes from the intact segments, in order.
        assert records == baseline[len(baseline) - len(records):]
        assert reader.record_count() == len(records)


def test_foreign_file_flagged_not_parsed():
    segment = Segment("/t/x", b"GIF89a not a segment at all")
    assert not segment.valid
    report = segment.verify()
    assert report["status"] == FOREIGN
    assert report["quarantined_bytes"] == len(b"GIF89a not a segment at all")
    assert list(segment.iter_frames()) == []


# ----------------------------------------------------------------------
# Strict vs salvage reads of a corrupted data region
# ----------------------------------------------------------------------


def test_strict_scan_raises_typed_error_on_v2_bit_flip():
    codec = _codec()
    store, __ = _store_from(_wire(codec, 10))
    (path,) = store
    damaged = _flip_data_byte(store, path)
    for scan in (_scan, StoreReader.records):
        with pytest.raises(CorruptSegmentError) as exc:
            scan(StoreReader.from_bytes(damaged))
        # The hierarchy keeps old except-ValueError handlers working.
        assert isinstance(exc.value, StoreError)
        assert isinstance(exc.value, ValueError)
        assert exc.value.path == path


def test_salvage_scan_loses_exactly_the_damaged_frame():
    codec = _codec()
    wire = _wire(codec, 10)
    store, __ = _store_from(wire)
    (path,) = store
    damaged = _flip_data_byte(store, path)
    baseline = [codec.decode(raw) for raw in wire]
    for scan in (_scan, StoreReader.records):
        reader = StoreReader.from_bytes(damaged)
        records = scan(reader, salvage=True)
        stats = reader.last_stats
        assert len(records) == len(baseline) - 1
        assert all(record in baseline for record in records)
        assert stats.frames_corrupt == 1
        assert stats.bytes_quarantined > 0
        assert stats.records_salvaged == len(records)
        assert not stats.loss_free()


def test_torn_tail_is_expected_loss_not_corruption():
    codec = _codec()
    wire = _wire(codec, 8)
    writer = StoreWriter("/t/s.store", host_names=HOSTS, flush_bytes=1)
    sink = {}
    for raw in wire:
        writer.append(raw)
    collect_ops(sink, writer)  # crash: no close(), no footer
    (path,) = sink
    torn = {path: bytes(sink[path][:-5])}  # medium lost the last bytes
    for scan in (_scan, StoreReader.records):
        reader = StoreReader.from_bytes(torn, host_names=HOSTS)
        assert scan(reader) == [codec.decode(raw) for raw in wire[:-1]]
        assert reader.last_stats.loss_free()  # torn tails are accounted free
    segment = Segment(path, torn[path])
    report = segment.verify()
    assert report["status"] == TORN_TAIL
    assert report["torn_bytes"] > 0
    assert report["quarantined_bytes"] == 0


@pytest.mark.parametrize("where", ["head", "middle", "tail"])
def test_damaged_deflate_blob_is_typed_and_accounted(where):
    """One flipped byte inside a sealed compressed segment's deflate
    blob: strict scans (both lanes) raise the typed store error, and
    salvage keeps what still inflates and quarantines the rest of the
    sealed region -- every lost byte accounted."""
    codec = _codec()
    wire = _wire(codec, 800)
    store, __ = _store_from(wire, compress=True)
    (path,) = store
    stored = sformat.parse_footer(store[path])["stored_bytes"]
    at = sformat.SEGMENT_HEADER_BYTES + {
        "head": 2, "middle": stored // 2, "tail": stored - 3,
    }[where]
    damaged = _flip_data_byte(store, path, at=at)
    for scan in (_scan, _fast):
        with pytest.raises(CorruptFrameError) as exc:
            scan(StoreReader.from_bytes(damaged))
        assert exc.value.path == path
    frame_bytes = len(wire[0]) + sformat.FRAME_OVERHEAD_BYTES
    for scan in (_scan, StoreReader.records):
        reader = StoreReader.from_bytes(damaged)
        records = scan(reader, salvage=True)
        stats = reader.last_stats
        baseline = iter([codec.decode(raw) for raw in wire])
        assert all(record in baseline for record in records)  # in order
        assert bool(records) == (where != "head")
        assert stats.bytes_quarantined == (
            (len(wire) - len(records)) * frame_bytes
        )
        assert stats.bytes_quarantined and not stats.loss_free()


# ----------------------------------------------------------------------
# fsck and repair
# ----------------------------------------------------------------------


def test_fsck_clean_store():
    codec = _codec()
    store, writer = _store_from(_wire(codec, 20), segment_bytes=600)
    report = fsck_store(StoreReader.from_bytes(store))
    assert report["clean"]
    assert report["totals"]["records_recovered"] == 20
    assert report["totals"]["records_lost_known"] == 0
    assert report["totals"]["by_status"] == {
        SEALED_CLEAN: writer.segments_sealed
    }


def test_fsck_classifies_and_counts_damage():
    codec = _codec()
    store, __ = _store_from(_wire(codec, 30), segment_bytes=600)
    paths = sorted(store)
    damaged = _flip_data_byte(store, paths[1])
    damaged[paths[0]] = b"JUNKJUNK" + damaged[paths[0]][8:]
    report = fsck_store(StoreReader.from_bytes(damaged))
    assert not report["clean"]
    by_path = {seg["path"]: seg for seg in report["segments"]}
    assert by_path[paths[0]]["status"] == FOREIGN
    assert by_path[paths[1]]["status"] == CORRUPT_FRAME
    assert by_path[paths[1]]["records_lost"] == 1
    for path in paths[2:]:
        assert by_path[path]["status"] == SEALED_CLEAN
    totals = report["totals"]
    assert totals["records_lost_known"] == 1
    assert totals["bytes_quarantined"] > 0
    # Footers say how many records each sealed segment held, so the
    # recovered+lost ledger covers every intact-header segment exactly.
    expected = sum(
        seg["records_expected"] for seg in report["segments"]
        if seg["records_expected"] is not None
    )
    assert totals["records_recovered"] + totals["records_lost_known"] == expected


def test_repair_produces_a_store_that_rereads_clean():
    codec = _codec()
    wire = _wire(codec, 24)
    store, __ = _store_from(wire, segment_bytes=600)
    paths = sorted(store)
    damaged = _flip_data_byte(store, paths[0])
    reader = StoreReader.from_bytes(damaged)
    copy, writer, report = repair_store(reader, "/t/repaired.store")
    assert not report["clean"]
    repaired = StoreReader.from_bytes(copy)
    assert fsck_store(repaired)["clean"]
    salvaged = StoreReader.from_bytes(damaged).records(salvage=True)
    assert repaired.records() == salvaged
    assert writer.records_appended == len(salvaged) == len(wire) - 1
    # The repaired copy is current-format: every frame CRC-protected.
    assert all(seg.version == FORMAT_VERSION for seg in repaired.segments)
