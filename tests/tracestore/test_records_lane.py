"""``StoreReader.records()`` materializes through the fused lane: it
must be ``list(scan(...))`` -- same records, order, strict errors and
``last_stats`` -- for every predicate, on a store with sealed segments,
masked fields and an unsealed tail whose last batch never committed."""

import pytest

from repro.metering.messages import MessageCodec, encode_batch_marker
from repro.net.addresses import InternetName
from repro.tracestore import (
    CorruptSegmentError,
    StoreReader,
    StoreWriter,
    collect_ops,
    discard_mask,
)
from repro.tracestore import format as sformat

HOSTS = {1: "red", 2: "green", 3: "blue"}

_PREDICATES = [
    {},
    {"machines": [2]},
    {"pids": [(1, 100), (3, 101)]},
    {"events": ["send"]},
    {"events": ["fork"]},
    {"t_min": 40, "t_max": 120},
    {"machines": [1, 3], "events": ["send"], "t_min": 15},
]


def _wire(codec, i):
    machine = i % 3 + 1
    dest = InternetName(HOSTS[machine], 6000 + i % 4, machine)
    return codec.encode(
        "send", machine=machine, cpu_time=i * 5, proc_time=10,
        pid=100 + i % 2, pc=i, sock=4, msgLength=32 * (1 + i % 3),
        destName=dest, **codec.name_lengths(destName=dest)
    )


def _store(n_sealed=40, n_tail=12):
    """Sealed segments, then an unsealed tail: a committed batch (its
    marker written) and an uncommitted one after it.  Every third
    record has its pc and msgLength discarded."""
    codec = MessageCodec(HOSTS)
    writer = StoreWriter("/t/p.store", host_names=HOSTS, segment_bytes=700,
                         flush_bytes=1)
    mask = discard_mask("send", {"pc", "msgLength"})
    for i in range(n_sealed):
        writer.append(_wire(codec, i), mask if i % 3 == 0 else 0)
    writer.close()
    writer.auto_seal = False
    for i in range(n_sealed, n_sealed + n_tail):
        writer.append(_wire(codec, i), mask if i % 3 == 0 else 0)
        if i == n_sealed + n_tail // 2:
            writer.append_marker(encode_batch_marker(1, 100, 1))
    sink = {}
    collect_ops(sink, writer)
    return {path: bytes(data) for path, data in sink.items()}


def test_store_has_every_segment_kind():
    reader = StoreReader.from_bytes(_store())
    sealed = [segment.sealed for segment in reader.segments]
    assert sealed.count(True) >= 3 and sealed[-1] is False
    records = reader.records()
    assert any("pc" not in record for record in records)
    # The tail's batch after the marker never committed.
    assert len(records) == 40 + 7


@pytest.mark.parametrize("predicates", _PREDICATES)
def test_records_equal_the_scan(predicates):
    store = _store()
    oracle = StoreReader.from_bytes(store)
    want = list(oracle.scan(**predicates))
    reader = StoreReader.from_bytes(store)
    assert reader.records(**predicates) == want
    assert vars(reader.last_stats) == vars(oracle.last_stats)


def test_records_raise_the_scans_error_on_a_damaged_region():
    store = _store()
    path = sorted(store)[1]
    data = bytearray(store[path])
    footer = sformat.parse_footer(data)
    data[(footer["data_start"] + footer["data_end"]) // 2] ^= 0x40
    damaged = dict(store, **{path: bytes(data)})
    errors = []
    for read in (lambda r: list(r.scan()), StoreReader.records):
        reader = StoreReader.from_bytes(damaged)
        with pytest.raises(CorruptSegmentError) as exc:
            read(reader)
        errors.append((type(exc.value), exc.value.path, str(exc.value)))
    assert errors[0] == errors[1]
