"""Durability gate: exhaustive crashpoint and bit-flip sweeps.

The store's durability contract (DESIGN.md, on-disk integrity) is
checked by brute force over a small sealed v2 store:

- **Crashpoint sweep**: the store's byte stream is cut at *every* byte
  offset -- mid header, mid frame, mid footer, mid trailer -- standing
  for a crash at an arbitrary point of the write stream; additionally a
  :class:`FaultyWriter` tears the stream at every flush boundary.
  Every cut must salvage to an exact *prefix* of the clean records:
  records can be lost to the crash, never invented or altered.

- **Bit-flip sweep**: one bit is flipped at every byte offset of the
  sealed store.  Every flip must be *detected* (strict scan raises a
  typed StoreError, or the loss ledger is non-empty) or *harmless*
  (the record stream is byte-identical to the clean one).

``silent_wrong_records`` / ``silent_corruptions`` must both be zero --
that is the blocking acceptance criterion (the CI ``durability`` job).
"""

from benchmarks.conftest import HOSTS, synthetic_send_records
from repro.faults import FaultyWriter, StorageFaultPlan
from repro.metering.messages import MessageCodec
from repro.tracestore import (
    StoreError,
    StoreReader,
    StoreWriter,
    collect_ops,
)

N_RECORDS = 30
SEGMENT_BYTES = 900  # several segments, a few KB total: sweepable


def _build_store():
    wire = synthetic_send_records(N_RECORDS)
    writer = StoreWriter(
        "/b/s.store", segment_bytes=SEGMENT_BYTES, host_names=HOSTS
    )
    for raw in wire:
        writer.append(raw)
    writer.close()
    sink = {}
    collect_ops(sink, writer)
    store = {path: bytes(data) for path, data in sink.items()}
    codec = MessageCodec(HOSTS)
    return store, [codec.decode(raw) for raw in wire]


def _truncate_stream(store, paths, cut):
    """The store as left by a crash after ``cut`` stream bytes."""
    damaged, consumed = {}, 0
    for path in paths:
        data = store[path]
        if consumed >= cut:
            break
        damaged[path] = data[: cut - consumed]
        consumed += len(data)
    return damaged


def test_crashpoint_sweep_every_byte_offset_salvages_to_a_prefix():
    store, baseline = _build_store()
    paths = sorted(store)
    total = sum(len(store[path]) for path in paths)
    silent_wrong = 0
    recovered_at = []
    for cut in range(total + 1):
        damaged = _truncate_stream(store, paths, cut)
        if not damaged:
            recovered_at.append(0)
            continue
        reader = StoreReader.from_bytes(damaged, host_names=HOSTS)
        records = reader.records(salvage=True)
        if records != baseline[: len(records)]:
            silent_wrong += 1
        recovered_at.append(len(records))
    assert silent_wrong == 0, (
        "{0} crashpoints produced non-prefix record streams".format(silent_wrong)
    )
    # Recovery is monotone in how much survived, and complete at the end.
    assert recovered_at[-1] == len(baseline)
    assert all(a <= b for a, b in zip(recovered_at, recovered_at[1:]))


def test_torn_write_at_every_flush_boundary_salvages_to_a_prefix():
    wire = synthetic_send_records(N_RECORDS)
    codec = MessageCodec(HOSTS)
    baseline = [codec.decode(raw) for raw in wire]
    # Sweeping every byte via the writer seam would rebuild the store
    # per offset; flush boundaries are the seam-visible crash points.
    boundaries = sorted({0} | set(_flush_offsets(wire)))
    silent_wrong = 0
    for cut in boundaries:
        faulty = FaultyWriter(
            StoreWriter("/b/s.store", segment_bytes=SEGMENT_BYTES,
                        host_names=HOSTS, flush_bytes=1),
            StorageFaultPlan().torn_write(cut),
        )
        sink = {}
        for raw in wire:
            faulty.append(raw)
            collect_ops(sink, faulty)
        faulty.close()
        collect_ops(sink, faulty)
        store = {p: bytes(d) for p, d in sink.items() if d}
        if not store:
            continue
        reader = StoreReader.from_bytes(store, host_names=HOSTS)
        records = reader.records(salvage=True)
        if records != baseline[: len(records)]:
            silent_wrong += 1
    assert silent_wrong == 0


def _flush_offsets(wire):
    """Cumulative intended-byte offsets after each write op."""
    faulty = FaultyWriter(
        StoreWriter("/b/s.store", segment_bytes=SEGMENT_BYTES,
                    host_names=HOSTS, flush_bytes=1),
        StorageFaultPlan(),
    )
    offsets = []
    for raw in wire:
        faulty.append(raw)
        collect_ops({}, faulty)
        offsets.append(faulty.bytes_intended)
    faulty.close()
    collect_ops({}, faulty)
    offsets.append(faulty.bytes_intended)
    return offsets


def test_bit_flip_sweep_every_byte_detected_or_harmless():
    store, baseline = _build_store()
    paths = sorted(store)
    outcomes = {"detected_strict": 0, "accounted_loss": 0, "harmless": 0}
    silent_corruptions = 0
    total = 0
    for path in paths:
        clean = store[path]
        for offset in range(len(clean)):
            total += 1
            damaged = dict(store)
            data = bytearray(clean)
            data[offset] ^= 1 << (offset % 8)  # deterministic bit choice
            damaged[path] = bytes(data)
            reader = StoreReader.from_bytes(damaged, host_names=HOSTS)
            try:
                records = reader.records()
            except StoreError:
                outcomes["detected_strict"] += 1
                continue
            if records == baseline:
                outcomes["harmless"] += 1
            elif not reader.last_stats.loss_free():
                outcomes["accounted_loss"] += 1
            else:
                silent_corruptions += 1
    assert silent_corruptions == 0, (
        "{0}/{1} flips silently changed the record stream".format(
            silent_corruptions, total
        )
    )
