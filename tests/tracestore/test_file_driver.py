"""``flush_to_files``, the ``trace pack`` driver, leaves on disk the
bytes ``collect_ops`` gathers from the same ops, however the ops are
split between driver calls: a segment's writes spread over two calls,
an ``open`` right after another file's writes, a pack over files an
earlier pack left."""

import pytest

from repro.metering.messages import MessageCodec
from repro.tracestore import StoreReader, StoreWriter, collect_ops, flush_to_files
from repro.tracestore.convert import wire_pairs


class _Drained:
    """One driver call's share of the ops."""

    def __init__(self, ops):
        self._ops = ops

    def pending_ops(self):
        ops, self._ops = self._ops, []
        return ops


def _writer_ops(base):
    records = [
        {"event": "send", "machine": 1, "cpuTime": 30 + pid, "procTime": 10,
         "pid": pid, "pc": 9, "sock": 3, "msgLength": 512,
         "destNameLen": 16, "destName": "inet:red:6101"}
        for pid in range(60)
    ]
    writer = StoreWriter(base, segment_bytes=700, flush_bytes=120)
    writer.append_many(wire_pairs(records, MessageCodec({1: "red"})))
    writer.close()
    ops = writer.pending_ops()
    assert writer.segments_sealed >= 3
    return ops


def _apply(ops, every):
    """Both drivers over ``ops``, ``every`` ops per call; the dict the
    oracle fills."""
    store = {}
    for start in range(0, len(ops), every):
        batch = ops[start:start + every]
        flush_to_files(_Drained(list(batch)))
        collect_ops(store, _Drained(list(batch)))
    return store


def _on_disk(store):
    return {path: open(path, "rb").read() for path in store}


def _expected(store):
    return {path: bytes(data) for path, data in store.items()}


@pytest.mark.parametrize("every", [1, 2, 3, 5, 7, 10_000])
def test_file_bytes_equal_the_collected_ops(tmp_path, every):
    base = str(tmp_path / "t.store")
    ops = _writer_ops(base)
    # Some segment's writes do span two driver calls.
    assert every == 10_000 or any(
        ops[cut - 1][0] == ops[cut][0] == "write"
        and ops[cut - 1][1] == ops[cut][1]
        for cut in range(every, len(ops), every)
    )
    store = _apply(ops, every)
    assert _on_disk(store) == _expected(store)
    assert len(StoreReader.from_bytes(_on_disk(store)).records()) == 60
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        path.rsplit("/", 1)[1] for path in store
    )


@pytest.mark.parametrize("every", [1, 2, 10_000])
def test_a_pack_over_an_earlier_one_truncates_its_files(tmp_path, every):
    base = str(tmp_path / "t.store")
    ops = _writer_ops(base)
    for path in {op[1] for op in ops}:
        with open(path, "wb") as handle:
            handle.write(b"left by an earlier pack" * 50)
    _apply(ops, every)
    store = _apply(ops, every)
    assert _on_disk(store) == _expected(store)


@pytest.mark.parametrize("every", [1, 2, 3, 10_000])
def test_interleaved_files_keep_their_own_bytes(tmp_path, every):
    """Ops no writer emits today, but the driver takes: an ``open``
    right after another file's writes, a write to a file another
    file's ops interrupted, and a write with no ``open`` before it."""
    a, b, c = (str(tmp_path / name) for name in "abc")
    ops = [
        ("open", a), ("write", a, b"a1"), ("write", a, b"a2"),
        ("open", b), ("write", b, b"b1"),
        ("write", a, b"a3"), ("write", b, b"b2"), ("close", a),
        ("write", c, b"c1"), ("close", b), ("write", c, b"c2"),
    ]
    store = _apply(ops, every)
    assert _on_disk(store) == {a: b"a1a2a3", b: b"b1b2", c: b"c1c2"}
    assert _expected(store) == _on_disk(store)
