"""Property tests: corruption is detected or provably harmless.

The durability claim of the v2 store format (DESIGN.md, on-disk
integrity): for a sealed current-format store, *any* single-bit flip
anywhere in the bytes either

- leaves the decoded record stream byte-identical to the clean store
  (the flip hit redundant bytes -- e.g. it de-sealed a footer whose
  every record is still intact on a frame boundary), or
- is detected: the strict scan raises a typed :class:`StoreError`, or
  the scan's loss ledger is non-empty (``loss_free()`` False).

Never a silently different record stream.  A companion property checks
truncation (a crash at an arbitrary byte): salvage always yields a
prefix of the clean records, never an invented or altered record.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metering.messages import MessageCodec
from repro.net.addresses import InternetName
from repro.tracestore import (
    StoreError,
    StoreReader,
    StoreWriter,
    collect_ops,
    fsck_store,
)
from repro.tracestore.format import (
    FRAME_OVERHEAD_BYTES,
    _FRAME_STRUCT,
    _read_frame,
    encode_footer,
    encode_frame,
    parse_footer,
)

HOSTS = {1: "red", 2: "green", 3: "blue"}


def _build_store(n=18, segment_bytes=500):
    codec = MessageCodec(HOSTS)
    writer = StoreWriter(
        "/p/s.store", segment_bytes=segment_bytes, host_names=HOSTS
    )
    wire = []
    for i in range(n):
        machine = (i % 3) + 1
        dest = InternetName(HOSTS[machine], 6000 + i % 4, machine)
        raw = codec.encode(
            "send",
            machine=machine,
            cpu_time=i * 7,
            proc_time=10,
            pid=100 + i % 2,
            pc=i,
            sock=4,
            msgLength=32,
            destName=dest,
            **codec.name_lengths(destName=dest)
        )
        wire.append(raw)
        writer.append(raw)
    writer.close()
    sink = {}
    collect_ops(sink, writer)
    store = {path: bytes(data) for path, data in sink.items()}
    baseline = [codec.decode(raw) for raw in wire]
    return store, baseline


STORE, BASELINE = _build_store()
PATHS = sorted(STORE)
SIZES = [len(STORE[path]) for path in PATHS]
FOOTER_STARTS = [
    len(STORE[path]) - len(encode_footer(parse_footer(STORE[path])))
    for path in PATHS
]


def _is_subsequence(sub, full):
    it = iter(full)
    return all(any(item == other for other in it) for item in sub)


@st.composite
def _bit_positions(draw):
    index = draw(st.integers(min_value=0, max_value=len(PATHS) - 1))
    offset = draw(st.integers(min_value=0, max_value=SIZES[index] - 1))
    bit = draw(st.integers(min_value=0, max_value=7))
    return index, offset, bit


@given(_bit_positions())
@settings(max_examples=120, deadline=None)
def test_single_bit_flip_detected_or_harmless(position):
    index, offset, bit = position
    damaged = dict(STORE)
    data = bytearray(damaged[PATHS[index]])
    data[offset] ^= 1 << bit
    damaged[PATHS[index]] = bytes(data)

    reader = StoreReader.from_bytes(damaged, host_names=HOSTS)
    try:
        records = reader.records()
    except StoreError:
        return  # detected: the strict scan refused the store
    if records == BASELINE:
        return  # provably harmless: identical record stream
    # Anything else must be accounted loss, never silent difference.
    assert not reader.last_stats.loss_free()
    assert _is_subsequence(records, BASELINE)

    # And salvage mode must agree: a subsequence plus a non-empty ledger.
    salvaged = reader.records(salvage=True)
    assert _is_subsequence(salvaged, BASELINE)
    assert not reader.last_stats.loss_free()


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_single_bit_flip_in_a_footer_or_trailer_is_harmless(data):
    """A flip there only takes the segment's seal: its frames still
    end where the footer starts, so strict and salvage reads both
    return the clean records with no loss, and fsck calls the store
    clean."""
    index = data.draw(st.integers(min_value=0, max_value=len(PATHS) - 1))
    offset = data.draw(
        st.integers(min_value=FOOTER_STARTS[index], max_value=SIZES[index] - 1)
    )
    bit = data.draw(st.integers(min_value=0, max_value=7))
    damaged = dict(STORE)
    flipped = bytearray(damaged[PATHS[index]])
    flipped[offset] ^= 1 << bit
    damaged[PATHS[index]] = bytes(flipped)
    for salvage in (False, True):
        reader = StoreReader.from_bytes(damaged, host_names=HOSTS)
        assert reader.records(salvage=salvage) == BASELINE
        assert reader.last_stats.loss_free()
    assert fsck_store(StoreReader.from_bytes(damaged, host_names=HOSTS))["clean"]


@given(
    index=st.integers(min_value=0, max_value=len(PATHS) - 1),
    keep_fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80, deadline=None)
def test_truncation_yields_a_prefix_never_wrong_records(index, keep_fraction):
    damaged = dict(STORE)
    path = PATHS[index]
    keep = int(len(STORE[path]) * keep_fraction)
    damaged[path] = STORE[path][:keep]
    for later in PATHS[index + 1:]:
        del damaged[later]  # the crash lost every later segment too

    reader = StoreReader.from_bytes(damaged, host_names=HOSTS)
    records = reader.records(salvage=True)
    assert records == BASELINE[: len(records)]


def _reencode_read_frame(data, offset, end):
    """The frame check the CRC-only one replaced, kept verbatim as its
    oracle: re-encode the frame and compare bytes."""
    if offset + FRAME_OVERHEAD_BYTES > end:
        return None, None, end, "torn"
    length, mask, __ = _FRAME_STRUCT.unpack_from(data, offset)
    body_start = offset + FRAME_OVERHEAD_BYTES
    if body_start + length > end:
        return None, None, end, "torn"
    payload = bytes(data[body_start : body_start + length])
    if encode_frame(payload, mask) != data[offset : body_start + length]:
        return None, None, body_start + length, "crc"
    return mask, payload, body_start + length, None


def _frames_region():
    """Three frames back to back: a masked send, an unmasked one, an
    empty payload."""
    codec = MessageCodec(HOSTS)
    dest = InternetName("red", 6000, 1)
    raw = codec.encode(
        "send",
        machine=1,
        cpu_time=70,
        proc_time=10,
        pid=100,
        pc=3,
        sock=4,
        msgLength=32,
        destName=dest,
        **codec.name_lengths(destName=dest)
    )
    frames = [encode_frame(raw, 0b1010), encode_frame(raw), encode_frame(b"")]
    starts = [0, len(frames[0]), len(frames[0]) + len(frames[1])]
    return b"".join(frames), starts


REGION, FRAME_STARTS = _frames_region()


def _frame_verdict(reader, data, offset, end):
    try:
        return reader(data, offset, end)
    except struct.error:
        return "struct.error"


@given(
    frame=st.integers(min_value=0, max_value=len(FRAME_STARTS) - 1),
    position=st.integers(min_value=0, max_value=len(REGION) - 1),
    value=st.integers(min_value=0, max_value=255),
    end_kind=st.sampled_from(["region", "frame", "past_data"]),
)
@settings(max_examples=400, deadline=None)
def test_crc_only_frame_check_matches_reencode_and_compare(
    frame, position, value, end_kind
):
    """Any single-byte change -- to a length, mask or CRC word or to
    a payload byte, of this frame or a later one -- gives the CRC-only
    check the verdict re-encoding gave, whatever ``end`` the caller
    passes (including one past the bytes it holds)."""
    data = bytearray(REGION)
    data[position] = value
    offset = FRAME_STARTS[frame]
    if end_kind == "region":
        end = len(data)
    elif end_kind == "frame":
        end = (FRAME_STARTS + [len(REGION)])[frame + 1]
    else:
        end = len(data) + 64
    for view in (bytes(data), data, memoryview(data)):
        assert _frame_verdict(_read_frame, view, offset, end) == _frame_verdict(
            _reencode_read_frame, view, offset, end
        )
