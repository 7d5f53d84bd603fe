"""Property tests: ``StoreWriter.append_many`` queues exactly the ops a
run of the per-record ``append`` it replaced queued.

The oracle below is that ``append`` and the ``SegmentStats.add`` it
called, kept verbatim: one frame built by ``encode_frame``, the footer
index updated by a method call, the drain and seal checks after every
record.  Over scripts of record batches (header-only payloads and
unknown traceTypes among them), batch markers, syncs and explicit
seals, with ``auto_seal`` on and off and tiny or huge ``flush_bytes``
and ``segment_bytes``, both writers must queue the same op sequence --
so the same bytes and footers -- after every step."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metering import messages
from repro.metering.messages import (
    EVENT_NAMES,
    EVENT_TYPES,
    MessageCodec,
    encode_batch_marker,
)
from repro.tracestore import StoreWriter
from repro.tracestore import format as sformat

HOSTS = {1: "red", 2: "green"}
_CODEC = MessageCodec(HOSTS)


class _OracleStats:
    """``SegmentStats`` as it was: counters updated one record at a
    time by :meth:`add`."""

    def __init__(self, host_names=None):
        self.records = 0
        self.t_min = None
        self.t_max = None
        self.counts = {}  # (traceType, machine, pid) -> records
        self.offsets = {}  # traceType -> [first, last] frame offset
        self.host_names = dict(host_names or {})

    def add(self, trace_type, machine, pid, cpu_time, offset):
        self.records += 1
        if self.t_min is None or cpu_time < self.t_min:
            self.t_min = cpu_time
        if self.t_max is None or cpu_time > self.t_max:
            self.t_max = cpu_time
        key = (trace_type, machine, pid)
        self.counts[key] = self.counts.get(key, 0) + 1
        span = self.offsets.get(trace_type)
        if span is None:
            self.offsets[trace_type] = [offset, offset]
        else:
            span[1] = offset

    def footer(self, data_start, data_end, data_crc32=None, stored_bytes=None):
        machines = {}
        pids = {}
        events = {}
        for (trace_type, machine, pid), n in self.counts.items():
            machines[machine] = machines.get(machine, 0) + n
            pids[machine, pid] = pids.get((machine, pid), 0) + n
            events[trace_type] = events.get(trace_type, 0) + n
        footer = {
            "version": sformat.FORMAT_VERSION,
            "records": self.records,
            "data_start": data_start,
            "data_end": data_end,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "machines": {str(m): n for m, n in machines.items()},
            "pids": {"%s:%s" % key: n for key, n in pids.items()},
            "events": {
                EVENT_NAMES.get(t, str(t)): n for t, n in events.items()
            },
            "event_offsets": {
                EVENT_NAMES.get(t, str(t)): span for t, span in self.offsets.items()
            },
            "hosts": {str(i): name for i, name in self.host_names.items()},
        }
        if data_crc32 is not None:
            footer["data_crc32"] = data_crc32
        if stored_bytes is not None:
            footer["compressed"] = True
            footer["raw_bytes"] = data_end - data_start
            footer["stored_bytes"] = stored_bytes
        return footer


class _OracleWriter(StoreWriter):
    """The writer with the per-record ``append`` it had."""

    def _begin_segment(self):
        super()._begin_segment()
        self._stats = _OracleStats(self.host_names)

    def append(self, payload, mask=0):
        """Queue one record.  ``payload`` is the raw wire message (with
        any reduction already applied); ``mask`` its discard bitmap."""
        if self._path is None:
            self._begin_segment()
        head = payload
        if len(head) < messages.HEADER_PID.size:
            # A bare header has no pid: it indexes as pid 0.
            head = bytes(head[: messages.HEADER_BYTES]) + b"\0\0\0\0"
        __, machine, cpu_time, __, trace_type, pid = (
            messages.HEADER_PID.unpack_from(head)
        )
        self._stats.add(trace_type, machine, pid, cpu_time, self._offset)
        frame = sformat.encode_frame(payload, mask)
        self._offset += len(frame)
        self._buffer.append(frame)
        self._buffered += len(frame)
        self.records_appended += 1
        if self._buffered >= self.flush_bytes:
            self._drain_buffer()
        if self.auto_seal and self._offset >= self.segment_bytes:
            self._seal_segment()


_events = st.sampled_from(sorted(EVENT_TYPES))


@st.composite
def _record(draw):
    """(payload, mask): a whole Appendix-A message, an unknown
    traceType, or a header with 0-3 bytes of body (pid 0)."""
    kind = draw(st.sampled_from(["event", "event", "event", "unknown", "bare"]))
    machine = draw(st.integers(min_value=1, max_value=3))
    cpu_time = draw(st.integers(min_value=-5, max_value=500))
    pid = draw(st.integers(min_value=1, max_value=4))
    mask = draw(st.integers(min_value=0, max_value=2**12))
    if kind == "event":
        payload = _CODEC.encode(
            draw(_events), machine=machine, cpu_time=cpu_time, proc_time=3,
            pid=pid, pc=1,
        )
    else:
        trace_type = draw(st.sampled_from([55, EVENT_TYPES["send"]]))
        payload = messages.HEADER_PID.pack(28, machine, cpu_time, 0, trace_type, pid)
        if kind == "bare":
            payload = payload[: messages.HEADER_BYTES + draw(st.integers(0, 3))]
    return payload, mask


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.lists(_record(), max_size=12), st.booleans()),
        st.tuples(st.just("marker"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("sync")),
        st.tuples(st.just("seal")),
    ),
    min_size=1,
    max_size=25,
)

_sizes = st.one_of(
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=80, max_value=600),
    st.just(1 << 30),
)


@given(
    _steps,
    st.booleans(),
    st.booleans(),
    _sizes,
    _sizes,
)
@settings(max_examples=300, deadline=None)
def test_append_many_queues_the_per_record_appends_ops(
    steps, auto_seal, compress, flush_bytes, segment_bytes
):
    options = dict(
        host_names=HOSTS, auto_seal=auto_seal, compress=compress,
        flush_bytes=flush_bytes, segment_bytes=segment_bytes,
    )
    batched = StoreWriter("s", **options)
    oracle = _OracleWriter("s", **options)
    for step in steps:
        if step[0] == "batch":
            __, pairs, one_by_one = step
            if one_by_one:
                for payload, mask in pairs:
                    batched.append(payload, mask)
            else:
                batched.append_many(iter(pairs))
            for payload, mask in pairs:
                oracle.append(payload, mask)
        elif step[0] == "marker":
            marker = encode_batch_marker(1, 2, step[1])
            batched.append_marker(marker)
            oracle.append_marker(marker)
        elif step[0] == "sync":
            batched.sync()
            oracle.sync()
        else:
            batched.maybe_seal()
            oracle.maybe_seal()
        assert batched.pending_ops() == oracle.pending_ops()
        assert batched.records_appended == oracle.records_appended
    batched.close()
    oracle.close()
    assert batched.pending_ops() == oracle.pending_ops()
    assert batched.segments_sealed == oracle.segments_sealed

