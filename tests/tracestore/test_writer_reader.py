"""StoreWriter/StoreReader: segmentation, recovery, pushdown, merge."""

import struct

import pytest

from repro.metering.messages import MessageCodec
from repro.net.addresses import InternetName
from repro.tracestore import (
    CorruptSegmentError,
    StoreReader,
    StoreWriter,
    collect_ops,
    merge_scan,
    scan_fast,
    segment_path,
)
from repro.tracestore.format import discard_mask, zero_masked_bytes

HOSTS = {1: "red", 2: "green", 3: "blue"}


def _codec():
    return MessageCodec(HOSTS)


def _wire(codec, n, t0=0, machine_of=lambda i: (i % 3) + 1):
    out = []
    for i in range(n):
        machine = machine_of(i)
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


def _store_from(wire_masks, **writer_kw):
    writer_kw.setdefault("host_names", HOSTS)
    writer = StoreWriter("/t/s.store", **writer_kw)
    sink = {}
    for payload, mask in wire_masks:
        writer.append(payload, mask)
    writer.close()
    collect_ops(sink, writer)
    return {path: bytes(data) for path, data in sink.items()}, writer


def _scan(reader, **predicates):
    """The oracle lane, :meth:`StoreReader.scan`, materialised beside
    :meth:`StoreReader.records` (the fused lane) in the checks below."""
    return list(reader.scan(**predicates))


def test_writer_rolls_segments_at_capacity():
    codec = _codec()
    store, writer = _store_from(
        [(raw, 0) for raw in _wire(codec, 40)], segment_bytes=600
    )
    assert writer.segments_sealed == len(store) > 1
    assert sorted(store) == [
        segment_path("/t/s.store", i) for i in range(len(store))
    ]
    reader = StoreReader.from_bytes(store)
    assert reader.record_count() == 40
    assert all(segment.sealed for segment in reader.segments)


def test_reader_streams_in_append_order():
    codec = _codec()
    wire = _wire(codec, 25)
    store, __ = _store_from([(raw, 0) for raw in wire], segment_bytes=500)
    reader = StoreReader.from_bytes(store)
    baseline = [codec.decode(raw) for raw in wire]
    assert _scan(reader) == reader.records() == baseline


def test_unclosed_writer_leaves_recoverable_tail():
    codec = _codec()
    wire = _wire(codec, 10)
    writer = StoreWriter("/t/s.store", segment_bytes=10_000, flush_bytes=1)
    sink = {}
    for raw in wire:
        writer.append(raw)
    collect_ops(sink, writer)  # note: no close() -- simulated crash
    reader = StoreReader.from_bytes(sink, host_names=HOSTS)
    assert not reader.segments[0].sealed
    for scan in (_scan, StoreReader.records):
        assert scan(reader) == [codec.decode(raw) for raw in wire]
        assert reader.last_stats.segments_recovered == 1


@pytest.mark.parametrize("sealed", [True, False], ids=["sealed", "unsealed"])
def test_a_size_that_overruns_its_frame_is_refused_by_both_lanes(sealed):
    """A frame whose CRC verifies but whose message header claims more
    bytes than the frame holds is damage, not a record: the oracle
    scan and the fused lane both refuse it, naming the truncation."""
    codec = _codec()
    wire = _wire(codec, 3)
    overrun = bytearray(wire[1])
    struct.pack_into(">i", overrun, 0, len(overrun) + 8)
    wire[1] = bytes(overrun)
    if sealed:
        store, __ = _store_from([(raw, 0) for raw in wire])
    else:
        writer = StoreWriter("/t/s.store", flush_bytes=1, host_names=HOSTS)
        store = {}
        for raw in wire:
            writer.append(raw)
        collect_ops(store, writer)  # no close(): an unsealed tail
    reader = StoreReader.from_bytes(store)
    assert reader.segments[0].sealed == sealed
    for lane in (StoreReader.scan, scan_fast):
        with pytest.raises(CorruptSegmentError, match="truncated meter message"):
            list(lane(reader))


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "zlib"])
def test_a_strict_read_raises_at_the_gaps_first_byte(compress, monkeypatch):
    """A strict read of a damaged region stops where the gap starts:
    it walks the frames before it and the first bad one, never the
    bytes after (a compressed segment inflates garbage from a flipped
    blob byte on, the whole rest of the region).  Both lanes raise at
    the offset the salvage walk reports, which still walks to the
    gap's end."""
    from repro.tracestore import CorruptFrameError
    from repro.tracestore import format as sformat

    codec = _codec()
    store, __ = _store_from(
        [(raw, 0) for raw in _wire(codec, 2000)], compress=compress
    )
    path = sorted(store)[0]
    damaged = bytearray(store[path])
    damaged[sformat.SEGMENT_HEADER_BYTES + 200] ^= 0xFF
    store[path] = bytes(damaged)
    segment = StoreReader.from_bytes(store).segments[0]
    walk = list(segment.frames())
    gap = next(i for i, item in enumerate(walk) if item[0] == "gap")
    assert walk[gap][2] > walk[gap][1] + 1  # salvage slides to its end

    real = sformat._read_frame
    calls = []

    def counting(data, offset, end):
        calls.append(offset)
        return real(data, offset, end)

    monkeypatch.setattr(sformat, "_read_frame", counting)
    for lane in (StoreReader.scan, scan_fast):
        del calls[:]
        with pytest.raises(CorruptFrameError) as raised:
            list(lane(StoreReader.from_bytes(store)))
        assert raised.value.offset == walk[gap][1]
        assert len(calls) == gap + 1  # the frames before it, and the gap


def test_buffered_tail_lost_on_crash_but_flushed_frames_survive():
    codec = _codec()
    wire = _wire(codec, 10)
    writer = StoreWriter("/t/s.store", segment_bytes=10_000, flush_bytes=10**9)
    sink = {}
    for raw in wire[:7]:
        writer.append(raw)
    writer.sync()  # a meter batch boundary
    for raw in wire[7:]:
        writer.append(raw)  # still buffered when the machine dies
    collect_ops(sink, writer)
    reader = StoreReader.from_bytes(sink, host_names=HOSTS)
    assert len(_scan(reader)) == len(reader.records()) == 7


def test_pushdown_skips_whole_segments():
    codec = _codec()
    wire = _wire(codec, 60)  # cpuTime 0..295, ~8 segments
    store, writer = _store_from([(raw, 0) for raw in wire], segment_bytes=600)
    assert writer.segments_sealed >= 4
    reader = StoreReader.from_bytes(store)
    for scan in (_scan, StoreReader.records):
        full = scan(reader)
        full_bytes = reader.last_stats.bytes_scanned
        narrow = scan(reader, t_min=100, t_max=140)
        stats = reader.last_stats
        assert narrow == [r for r in full if 100 <= r["cpuTime"] <= 140]
        assert stats.segments_skipped > 0
        assert stats.bytes_scanned < full_bytes


def test_pushdown_by_machine_pid_event():
    codec = _codec()
    # Machine 3 only ever appears in the last records.
    wire = _wire(codec, 30, machine_of=lambda i: 3 if i >= 27 else (i % 2) + 1)
    store, __ = _store_from([(raw, 0) for raw in wire], segment_bytes=400)
    reader = StoreReader.from_bytes(store)
    for scan in (_scan, StoreReader.records):
        full = scan(reader)
        by_machine = scan(reader, machines=[3])
        assert by_machine == [r for r in full if r["machine"] == 3]
        assert reader.last_stats.segments_skipped > 0
        by_pid = scan(reader, pids=[(1, 101)])
        assert by_pid == [
            r for r in full if (r["machine"], r["pid"]) == (1, 101)
        ]
        assert scan(reader, events=["fork"]) == []
        # Every footer excludes fork.
        assert reader.last_stats.segments_scanned == 0


def test_discard_masks_drop_fields_on_read():
    codec = _codec()
    raw = _wire(codec, 1)[0]
    mask = discard_mask("send", {"pc", "destName"})
    store, __ = _store_from([(zero_masked_bytes(raw, "send", mask), mask)])
    reader = StoreReader.from_bytes(store)
    for scan in (_scan, StoreReader.records):
        (record,) = scan(reader)
        assert "pc" not in record
        assert "destName" not in record
        assert record["pid"] == 100


def test_host_names_travel_in_footers():
    codec = _codec()
    store, __ = _store_from([(raw, 0) for raw in _wire(codec, 4)],
                            host_names=HOSTS)
    # No host_names given to the reader: the footer supplies them.
    reader = StoreReader.from_bytes(store)
    assert all(
        record["destName"].startswith(("inet:red", "inet:green", "inet:blue"))
        for record in reader.records()
    )


def test_merge_scan_interleaves_stores_by_time():
    codec = _codec()
    store_a, __ = _store_from(
        [(raw, 0) for raw in _wire(codec, 10, t0=0, machine_of=lambda i: 1)]
    )
    store_b, __ = _store_from(
        [(raw, 0) for raw in _wire(codec, 10, t0=2, machine_of=lambda i: 2)]
    )
    readers = [StoreReader.from_bytes(store_a), StoreReader.from_bytes(store_b)]
    merged = list(merge_scan(readers))
    assert len(merged) == 20
    times = [record["cpuTime"] for record in merged]
    assert times == sorted(times)
    machines = [record["machine"] for record in merged]
    assert machines == [1, 2] * 10  # perfect interleave of 0,2,4... and 2,7,12...


def test_restart_index_continues_numbering():
    codec = _codec()
    first, writer = _store_from([(raw, 0) for raw in _wire(codec, 5)])
    relaunched = StoreWriter("/t/s.store", start_index=writer.next_index)
    sink = dict(first)
    for raw in _wire(codec, 5, t0=1000):
        relaunched.append(raw)
    relaunched.close()
    collect_ops(sink, relaunched)
    reader = StoreReader.from_bytes(
        {path: bytes(data) for path, data in sink.items()}
    )
    assert reader.record_count() == 10
    times = [record["cpuTime"] for record in reader.records()]
    assert times[:5] == [0, 5, 10, 15, 20] and times[5] == 1000
