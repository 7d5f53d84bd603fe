"""Property: strict, salvage and fsck give one verdict on damaged bytes.

A strict read is the salvage walk refusing to skip, so on *any*
damage -- flipped bytes, a truncated segment, garbage appended --
exactly one of two things holds for a store of sealed segments and an
unsealed tail:

- the strict scan raises a typed :class:`CorruptSegmentError`, and the
  salvage scan and ``fsck_store`` both account a loss; or
- the strict scan yields exactly the salvage scan's records, salvage
  quarantined nothing, and ``fsck_store`` calls the store clean and
  finds every record a surviving footer counts.

A segment whose header no longer parses is skipped and counted by
both scans alike (it is no frame verdict), so there ``loss_free()``
is False and fsck unclean while strict still reads the rest.

The fast lanes give the same verdict as their oracles on the same
bytes: ``scan_fast(salvage=True)`` yields the salvage scan's records
and accounts the same ``last_stats``, and ``merge_scan_fast`` over the
damaged store and a clean one equals ``merge_scan``, strict and
salvage alike.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metering.messages import MessageCodec, encode_batch_marker
from repro.net.addresses import InternetName
from repro.tracestore import (
    CorruptSegmentError,
    StoreReader,
    StoreWriter,
    collect_ops,
    fsck_store,
    merge_scan,
    merge_scan_fast,
    scan_fast,
)

HOSTS = {1: "red", 2: "green", 3: "blue"}


def _build_store(compress):
    """Sealed segments (zlib-compressed ones when ``compress``) and an
    unsealed plain tail; each batch of three records is trailed by its
    commit marker, as the filter writes."""
    codec = MessageCodec(HOSTS)
    sink = {}
    sealed = StoreWriter(
        "/v/s.store", segment_bytes=400, host_names=HOSTS, compress=compress
    )
    tail = StoreWriter(
        "/v/s.store", flush_bytes=1, start_index=10, host_names=HOSTS
    )
    for i in range(24):
        writer = sealed if i < 18 else tail
        machine = (i % 3) + 1
        dest = InternetName(HOSTS[machine], 6000 + i % 4, machine)
        writer.append(
            codec.encode(
                "send", machine=machine, cpu_time=i * 5, proc_time=10,
                pid=100, pc=i, sock=4, msgLength=32, destName=dest,
                **codec.name_lengths(destName=dest)
            )
        )
        if i % 3 == 2:
            writer.append(encode_batch_marker(machine, 100, i // 3))
    sealed.close()
    collect_ops(sink, sealed)
    collect_ops(sink, tail)  # no close(): the tail stays open
    return {path: bytes(data) for path, data in sorted(sink.items())}


STORES = {compress: _build_store(compress) for compress in (False, True)}
PATHS = sorted(STORES[False])


@pytest.mark.parametrize("compress", [False, True])
def test_the_store_has_sealed_segments_and_an_unsealed_tail(compress):
    reader = StoreReader.from_bytes(STORES[compress])
    assert sorted(STORES[compress]) == PATHS
    assert [segment.sealed for segment in reader.segments] == [True] * 4 + [
        False
    ]
    assert [segment.compressed for segment in reader.segments] == [
        compress
    ] * 4 + [False]
    assert len(reader.records()) == 24
    assert reader.last_stats.loss_free()


_damage = st.one_of(
    st.tuples(
        st.just("flip"),
        st.integers(min_value=0, max_value=len(PATHS) - 1),
        st.floats(min_value=0, max_value=1, exclude_max=True),
        st.integers(min_value=1, max_value=255),
    ),
    st.tuples(
        st.just("truncate"),
        st.integers(min_value=0, max_value=len(PATHS) - 1),
        st.floats(min_value=0, max_value=1, exclude_max=True),
    ),
    st.tuples(
        st.just("append"),
        st.integers(min_value=0, max_value=len(PATHS) - 1),
        st.binary(min_size=1, max_size=40),
    ),
)
_damaged_stores = dict(
    compress=st.booleans(),
    damages=st.lists(_damage, min_size=1, max_size=3),
)


def _damaged(compress, damages):
    store = {path: bytearray(data) for path, data in STORES[compress].items()}
    for damage in damages:
        data = store[PATHS[damage[1]]]
        if damage[0] == "flip" and data:
            data[int(damage[2] * len(data))] ^= damage[3]
        elif damage[0] == "truncate":
            del data[int(damage[2] * len(data)):]
        elif damage[0] == "append":
            data.extend(damage[2])
    return {path: bytes(data) for path, data in store.items()}


def _strict(store, read):
    """``read``'s strict records and ``loss_free()``, or None if it
    raised the typed error."""
    reader = StoreReader.from_bytes(store, host_names=HOSTS)
    try:
        records = list(read(reader))
    except CorruptSegmentError:
        return None
    return records, reader.last_stats.loss_free()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**_damaged_stores)
def test_strict_raises_exactly_when_salvage_and_fsck_see_loss(compress, damages):
    store = _damaged(compress, damages)
    salvage_reader = StoreReader.from_bytes(store, host_names=HOSTS)
    salvaged = list(salvage_reader.scan(salvage=True))
    stats = salvage_reader.last_stats
    quarantined = stats.frames_corrupt or stats.bytes_quarantined
    fsck = fsck_store(StoreReader.from_bytes(store, host_names=HOSTS))
    strict = _strict(store, StoreReader.scan)
    assert _strict(store, StoreReader.records) == strict  # both lanes
    if strict is None:
        assert quarantined
        assert not stats.loss_free()
        assert not fsck["clean"]
        return
    records, loss_free = strict
    assert records == salvaged
    assert not quarantined
    assert stats.loss_free() == (stats.segments_bad_header == 0)
    assert loss_free == stats.loss_free() == fsck["clean"]
    # A footer that survived vouches for its records: none went missing
    # without a gap to show for it.
    assert fsck["totals"]["records_lost_known"] == 0


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**_damaged_stores)
def test_fast_salvage_scan_matches_the_oracle(compress, damages):
    store = _damaged(compress, damages)
    oracle = StoreReader.from_bytes(store, host_names=HOSTS)
    fast = StoreReader.from_bytes(store, host_names=HOSTS)
    assert list(scan_fast(fast, salvage=True)) == list(oracle.scan(salvage=True))
    assert vars(fast.last_stats) == vars(oracle.last_stats)


def _merged(merge, store, salvage):
    """``merge``'s records over the damaged store and a clean one, or
    None if the strict read raised the typed error."""
    readers = [
        StoreReader.from_bytes(store, host_names=HOSTS),
        StoreReader.from_bytes(STORES[True], host_names=HOSTS),
    ]
    try:
        return list(merge(readers, salvage=salvage))
    except CorruptSegmentError:
        return None


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(salvage=st.booleans(), **_damaged_stores)
def test_fast_merge_matches_the_oracle_merge(salvage, compress, damages):
    store = _damaged(compress, damages)
    merged = _merged(merge_scan, store, salvage)
    assert _merged(merge_scan_fast, store, salvage) == merged
    if salvage:
        assert merged is not None
