"""The writer's region CRC and footer index against a per-frame
reference: every sealed segment's ``data_crc32`` and footer JSON must
equal what folding each frame in turn gives, whatever the drain points
(``flush_bytes``, ``sync()``), markers, segment rollover and
compression."""

import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metering import messages
from repro.metering.messages import EVENT_NAMES, EVENT_TYPES, MessageCodec
from repro.tracestore import StoreWriter, collect_ops
from repro.tracestore import format as sformat

HOSTS = {1: "red", 2: "green"}
_CODEC = MessageCodec(HOSTS)


def _payload(kind, event, machine, cpu_time, pid):
    if kind == "event":
        return _CODEC.encode(
            event, machine=machine, cpu_time=cpu_time, proc_time=3, pid=pid, pc=1
        )
    # An unknown traceType: indexed under its digits.
    head = messages.HEADER_PID.pack(28, machine, cpu_time, 0, 55, pid)
    if kind == "unknown":
        return head
    return head[: messages.HEADER_BYTES]  # a bare header: pid 0


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.sampled_from(["event", "event", "event", "unknown", "bare"]),
            st.sampled_from(sorted(EVENT_TYPES)),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=0, max_value=2**12),
        ),
        st.tuples(st.just("marker"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("sync")),
    ),
    min_size=1,
    max_size=60,
)


def _reference_footer(data, host_names):
    """(region frames, footer) re-derived from one sealed segment's
    bytes by folding its frames one at a time, as the writer did
    before it folded whole chunks."""
    footer_len = struct.unpack_from(">I", data, len(data) - sformat.TRAILER_BYTES)[0]
    stored = data[sformat.SEGMENT_HEADER_BYTES : len(data) - sformat.TRAILER_BYTES - footer_len]
    compressed = sformat.segment_flags(data) & sformat.FLAG_COMPRESSED
    region = zlib.decompress(stored) if compressed else stored
    buf = data[: sformat.SEGMENT_HEADER_BYTES] + region
    crc = 0
    frames = []
    ref = {
        "records": 0, "t_min": None, "t_max": None, "machines": {},
        "pids": {}, "events": {}, "event_offsets": {},
    }
    for offset, mask, payload in sformat.iter_frames(
        buf, sformat.SEGMENT_HEADER_BYTES, len(buf), sealed=True
    ):
        end = offset + sformat.FRAME_OVERHEAD_BYTES + len(payload)
        crc = zlib.crc32(buf[offset:end], crc)
        frames.append((mask, payload))
        if messages.is_batch_marker(payload):
            continue
        head = payload
        if len(head) < messages.HEADER_PID.size:
            head = head[: messages.HEADER_BYTES] + b"\0\0\0\0"
        __, machine, cpu_time, __, trace_type, pid = messages.HEADER_PID.unpack_from(head)
        event = EVENT_NAMES.get(trace_type, str(trace_type))
        ref["records"] += 1
        if ref["t_min"] is None or cpu_time < ref["t_min"]:
            ref["t_min"] = cpu_time
        if ref["t_max"] is None or cpu_time > ref["t_max"]:
            ref["t_max"] = cpu_time
        for table, key in (
            ("machines", str(machine)),
            ("pids", "%s:%s" % (machine, pid)),
            ("events", event),
        ):
            ref[table][key] = ref[table].get(key, 0) + 1
        ref["event_offsets"].setdefault(event, [offset, offset])[1] = offset
    ref.update(
        version=sformat.FORMAT_VERSION,
        data_start=sformat.SEGMENT_HEADER_BYTES,
        data_end=len(buf),
        hosts={str(i): name for i, name in host_names.items()},
        data_crc32=crc,
    )
    if compressed:
        ref.update(compressed=True, raw_bytes=len(region), stored_bytes=len(stored))
    return frames, ref, data[len(data) - sformat.TRAILER_BYTES - footer_len :]


@given(
    _ops,
    st.integers(min_value=64, max_value=700),
    st.integers(min_value=1, max_value=400),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_region_crc_and_footer_equal_a_per_frame_fold(ops, segment_bytes, flush_bytes, compress):
    writer = StoreWriter("/w/s.store", segment_bytes=segment_bytes,
                         flush_bytes=flush_bytes, host_names=HOSTS, compress=compress)
    store = {}
    appended = []
    for op in ops:
        if op[0] == "append":
            __, kind, event, machine, cpu_time, pid, mask = op
            payload = _payload(kind, event, machine, cpu_time, pid)
            writer.append(payload, mask)
            appended.append((mask, payload))
        elif op[0] == "marker":
            payload = messages.encode_batch_marker(1, 2, op[1])
            writer.append_marker(payload)
            appended.append((0, payload))
        else:
            writer.sync()
        collect_ops(store, writer)
    writer.close()
    collect_ops(store, writer)

    assert len(store) == writer.segments_sealed
    frames = []
    for path in sorted(store):
        data = bytes(store[path])
        seg_frames, ref, footer_bytes = _reference_footer(data, HOSTS)
        frames += seg_frames
        assert sformat.parse_footer(data) == ref
        assert sformat.encode_footer(ref) == footer_bytes
    assert frames == appended


def test_unknown_trace_type_and_bare_header_footer_entries():
    writer = StoreWriter("/w/u.store")
    writer.append(_payload("unknown", None, 2, 10, 9))
    writer.append(_payload("bare", None, 3, 11, 9))
    writer.append(_payload("event", "fork", 1, 12, 4))
    writer.close()
    footer = sformat.parse_footer(bytes(collect_ops({}, writer)["/w/u.store.seg00000"]))
    assert footer["events"] == {"55": 2, "fork": 1}
    assert footer["pids"] == {"2:9": 1, "3:0": 1, "1:4": 1}
    assert footer["machines"] == {"1": 1, "2": 1, "3": 1}
    assert footer["event_offsets"]["55"][0] == sformat.SEGMENT_HEADER_BYTES
