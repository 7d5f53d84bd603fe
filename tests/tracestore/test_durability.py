"""Durability: CRC frames, salvage reads, fsck, and rejected versions."""

import pytest

from repro.metering.messages import MessageCodec, encode_batch_marker
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
    OPEN_CLEAN,
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
    assert list(segment.frames()) == []


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


def test_salvage_counts_a_gap_before_the_records_after_it():
    """A salvage read's loss ledger is current as the read goes: a
    consumer holding a record from past a quarantined frame sees the
    loss counted already."""
    codec = _codec()
    wire = _wire(codec, 10)
    store, __ = _store_from(wire)
    (path,) = store
    damaged = _flip_data_byte(store, path)
    baseline = [codec.decode(raw) for raw in wire]
    reader = StoreReader.from_bytes(damaged)
    (lost,) = [
        i for i, record in enumerate(baseline)
        if record not in _scan(reader, salvage=True)
    ]
    reader = StoreReader.from_bytes(damaged)
    seen = [
        (baseline.index(record) > lost, reader.last_stats.loss_free())
        for record in reader.scan(salvage=True)
    ]
    assert seen == [(i > lost, i < lost) for i in range(10) if i != lost]


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


# ----------------------------------------------------------------------
# One verdict: strict refuses exactly what salvage quarantines
# ----------------------------------------------------------------------


def _assert_one_verdict(store, path, gap, intact):
    """Strict scans raise at ``gap`` (a (start, end) byte range of
    ``path``) after yielding the ``intact`` records before it; salvage
    yields ``intact`` and quarantines exactly that range; ``verify()``
    and ``fsck_store`` call the segment corrupt."""
    reader = StoreReader.from_bytes(store, host_names=HOSTS)
    yielded = []
    with pytest.raises(CorruptFrameError) as exc:
        for record in reader.scan():
            yielded.append(record)
    assert yielded == intact  # lazy: the records before the gap came out
    assert (exc.value.path, exc.value.offset) == (path, gap[0])
    with pytest.raises(CorruptFrameError):
        StoreReader.from_bytes(store, host_names=HOSTS).records()
    for scan in (_scan, StoreReader.records):
        reader = StoreReader.from_bytes(store, host_names=HOSTS)
        assert scan(reader, salvage=True) == intact
        stats = reader.last_stats
        assert (stats.frames_corrupt, stats.bytes_quarantined) == (
            1, gap[1] - gap[0]
        )
        assert not stats.loss_free()
    segment = Segment(path, store[path])
    report = segment.verify()
    assert report["status"] == CORRUPT_FRAME
    assert (report["quarantined_bytes"], report["torn_bytes"]) == (
        gap[1] - gap[0], 0
    )
    fsck = fsck_store(StoreReader.from_bytes(store, host_names=HOSTS))
    assert not fsck["clean"]
    assert [seg["status"] for seg in fsck["segments"]] == [CORRUPT_FRAME]
    assert fsck["totals"]["bytes_quarantined"] == gap[1] - gap[0]


def test_an_implausible_length_word_on_an_unsealed_tail_is_damage():
    """The top bit of the last frame's length word flipped on a
    five-record unsealed tail: the frame now claims gigabytes, which
    no torn append writes.  It is damage, not a torn tail: strict
    raises after the four records before it, and salvage quarantines
    the frame."""
    codec = _codec()
    wire = _wire(codec, 5)
    writer = StoreWriter("/t/s.store", host_names=HOSTS, flush_bytes=1)
    for raw in wire:
        writer.append(raw)
    sink = collect_ops({}, writer)  # crash: no close(), no footer
    (path,) = sink
    data = bytearray(sink[path])
    last = len(data) - sformat.FRAME_OVERHEAD_BYTES - len(wire[-1])
    data[last] ^= 0x80
    _assert_one_verdict(
        {path: bytes(data)}, path, (last, len(data)),
        [codec.decode(raw) for raw in wire[:-1]],
    )


@pytest.mark.parametrize(
    "stray",
    [
        b"\x00\x00\x00\x05\x01",  # shorter than a frame header
        b"\x00\x00\x00\x3c" + bytes(16),  # a frame overrunning the region
    ],
    ids=["short", "overrun"],
)
def test_bytes_after_a_sealed_regions_last_frame_are_damage(stray):
    """A sealed region ends on a frame boundary, so bytes left over
    after its last frame cannot be a torn append: a stub shorter than
    a frame header and a frame overrunning the region are both gaps,
    to strict, salvage and fsck alike."""
    codec = _codec()
    wire = _wire(codec, 5)
    store, __ = _store_from(wire)
    (path,) = store
    data = store[path]
    footer = sformat.parse_footer(data)
    end = footer["data_end"]
    footer["data_end"] = end + len(stray)
    del footer["data_crc32"]  # a footer may lack it; the walk decides
    damaged = {path: data[:end] + stray + sformat.encode_footer(footer)}
    _assert_one_verdict(
        damaged, path, (end, end + len(stray)),
        [codec.decode(raw) for raw in wire],
    )


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "zlib"])
@pytest.mark.parametrize(
    "where",
    [
        "footer-open",  # the footer's leading '{'
        "footer-body",
        "trailer-length",  # the footer length word's low byte
        "trailer-crc",
        "trailer-magic",
    ],
)
def test_a_damaged_footer_or_trailer_costs_no_record(compress, where):
    """One flipped byte in a sealed segment's footer or trailer only
    takes its seal: every frame is intact, so the segment reads as an
    open one whose frames end where the footer starts.  Strict returns
    every record, salvage quarantines nothing, and fsck reports the
    segment open-clean."""
    codec = _codec()
    wire = _wire(codec, 5)
    store, __ = _store_from(wire, compress=compress)
    (path,) = store
    data = bytearray(store[path])
    trailer = len(data) - sformat.TRAILER_BYTES
    footer_at = trailer - len(
        sformat.encode_footer(sformat.parse_footer(data))
    ) + sformat.TRAILER_BYTES
    data[{
        "footer-open": footer_at,
        "footer-body": (footer_at + trailer) // 2,
        "trailer-length": trailer + 3,
        "trailer-crc": trailer + 5,
        "trailer-magic": trailer + 11,
    }[where]] ^= 0x40
    damaged = {path: bytes(data)}
    baseline = [codec.decode(raw) for raw in wire]
    for scan in (_scan, StoreReader.records):
        reader = StoreReader.from_bytes(damaged, host_names=HOSTS)
        assert not reader.segments[0].sealed
        assert scan(reader) == baseline
        assert scan(reader, salvage=True) == baseline
        assert reader.last_stats.loss_free()
    reader = StoreReader.from_bytes(damaged, host_names=HOSTS)
    assert reader.record_count() == len(wire)
    report = fsck_store(reader)
    assert report["clean"]
    assert [seg["status"] for seg in report["segments"]] == [OPEN_CLEAN]
    assert report["totals"]["records_recovered"] == len(wire)


def test_an_open_segment_is_not_cut_at_a_footer_it_does_not_have():
    """A never-sealed segment whose last frame ends in bytes that read
    as a trailer -- the magic, and a length word pointing at that
    frame's own start -- still reads to its end: the frame there
    verifies, so no footer starts at it."""
    codec = _codec()
    wire = _wire(codec, 5)
    writer = StoreWriter("/t/s.store", host_names=HOSTS, flush_bytes=1)
    for raw in wire:
        writer.append(raw)
    tail = bytes(12) + b"\x00\x00\x00\x18" + bytes(4) + sformat.TRAILER_MAGIC
    writer.append(tail)
    sink = collect_ops({}, writer)  # crash: no close(), no footer
    (segment,) = StoreReader.from_bytes(sink, host_names=HOSTS).segments
    assert not segment.sealed
    assert segment.data_bounds()[1] == len(segment.data)
    items = list(segment.frames())
    assert [item[0] for item in items] == ["frame"] * 6
    assert items[-1][3] == tail


def test_batch_markers_are_not_counted_as_lost_records():
    """A filter's sealed segments hold a commit marker after each
    batch; the footer counts those frames too, so fsck and
    ``record_count`` take them out before comparing with records."""
    codec = _codec()
    wire = _wire(codec, 12)
    writer = StoreWriter("/t/s.store", host_names=HOSTS, segment_bytes=300)
    for seq, start in enumerate(range(0, len(wire), 3)):
        for raw in wire[start : start + 3]:
            writer.append(raw)
        writer.append(encode_batch_marker(1, 100, seq))
    writer.close()
    store = collect_ops({}, writer)
    reader = StoreReader.from_bytes(store)
    assert len(reader.segments) > 1
    assert reader.record_count() == len(_scan(reader)) == len(wire)
    report = fsck_store(reader)
    assert report["clean"]
    assert report["totals"]["records_recovered"] == len(wire)
    assert report["totals"]["records_lost_known"] == 0
