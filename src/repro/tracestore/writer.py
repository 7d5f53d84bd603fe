"""StoreWriter: batched, crash-safe appends to a segmented store.

The writer is deliberately I/O-free: :meth:`append` buffers frames and
turns them into a queue of *ops* -- ``("open", path)``,
``("write", path, bytes)``, ``("close", path)`` -- that a driver
applies to whatever medium holds the store:

- :func:`flush_to_guest` performs the ops with simulated syscalls, so
  the standard filter (a guest program) writes stores through the
  simulated filesystem exactly like its text log;
- :func:`flush_to_fs` applies them host-side to a machine's
  :class:`~repro.kernel.filesystem.FileSystem`;
- :func:`flush_to_files` applies them to the real OS filesystem (the
  ``trace pack`` CLI);
- :func:`collect_ops` applies them to a dict, for tests.

Crash safety: frames reach the medium in append order and the footer
is written only when a segment fills (or the writer is closed), so a
crash at any instant loses at most the frames still in the bounded
buffer; the torn tail segment stays readable by recovery scan.  A
restarted writer picks a fresh segment index and never rewrites bytes
it already flushed.
"""

import zlib

from repro.kernel import errno
from repro.kernel.errno import SyscallError
from repro.metering import messages
from repro.tracestore import format as sformat

# The batch loop's per-record calls, bound once: the footer index
# reads a record's header and the pid long every Appendix-A body starts
# with, and a frame is its length and mask words, their CRC32 with the
# payload's (format's ``encode_frame``), then the payload.
_unpack = messages.HEADER_PID.unpack_from
_PID_BYTES = messages.HEADER_PID.size
_head_pack = sformat._FRAME_CRC_HEAD.pack
_crc_pack = sformat._CRC_STRUCT.pack
_crc32 = zlib.crc32
_OVERHEAD = sformat.FRAME_OVERHEAD_BYTES
_NEVER = float("inf")

#: Frames buffered in memory before the writer emits a write op.
DEFAULT_FLUSH_BYTES = 4096

SEGMENT_SUFFIX = ".seg"


def segment_path(base, index):
    return "{0}{1}{2:05d}".format(base, SEGMENT_SUFFIX, index)


class StoreWriter:
    """Append records (Appendix-A wire messages) to a segmented store."""

    #: The segment format written (there is one).
    version = sformat.FORMAT_VERSION

    def __init__(
        self,
        base,
        segment_bytes=sformat.DEFAULT_SEGMENT_BYTES,
        flush_bytes=DEFAULT_FLUSH_BYTES,
        start_index=0,
        host_names=None,
        auto_seal=True,
        compress=False,
    ):
        self.base = base
        #: Compressed segments hold their whole frame region in memory
        #: until seal (one zlib blob per segment on disk), so the
        #: bounded crash-loss guarantee does not apply: this mode is
        #: for offline packing (``trace pack --compress``), not for a
        #: live filter's log.
        self.compress = compress
        #: With auto_seal off, a full segment is sealed only when the
        #: caller says so (:meth:`maybe_seal`), letting the standard
        #: filter keep seals on batch-commit boundaries so a sealed
        #: segment never ends inside a half-committed batch.
        self.auto_seal = auto_seal
        self.segment_bytes = max(int(segment_bytes), 1)
        self.flush_bytes = max(int(flush_bytes), 1)
        self.host_names = dict(host_names or {})
        self.next_index = start_index
        self.records_appended = 0
        self.segments_sealed = 0
        #: Driver ops queued and not yet drained by :meth:`pending_ops`;
        #: non-empty exactly when a driver call would do something.
        self.ops = []
        self._buffer = []
        self._buffered = 0
        self._path = None
        self._stats = None
        #: What the batch loop adds to while a segment is open (None
        #: otherwise): the ``extend`` of the segment's footer fields and
        #: the ``append`` of their frame offsets and of the frame buffer.
        self._index = None
        #: Buffered bytes that drain the buffer; a compressed segment
        #: drains only at seal.
        self._drain_at = _NEVER if compress else self.flush_bytes
        self._offset = 0  # next frame offset within the open segment
        self._data_crc = 0  # CRC32 over the open segment's drained frames

    # ------------------------------------------------------------------

    def append(self, payload, mask=0):
        """Queue one record: :meth:`append_many` of one pair."""
        self.append_many(((payload, mask),))

    def append_many(self, pairs):
        """Queue each ``(payload, mask)`` of ``pairs``, in order.
        ``payload`` is the raw wire message (with any reduction already
        applied); ``mask`` its discard bitmap.

        The one place a record is framed and indexed: each frame is
        built, counted into the open segment's footer index and
        buffered with locals, with no helper call per record, and the
        buffer drains and the segment seals after exactly the frames a
        run of single appends would drain and seal after.  A payload
        shorter than a message header is a ValueError (the records
        before it stay queued); a bare header indexes as pid 0."""
        drain_at = self._drain_at
        seal_at = self.segment_bytes if self.auto_seal else _NEVER
        index = self._index
        if index is not None:
            fields, offsets, buffer = index
        offset = self._offset
        buffered = self._buffered
        appended = 0
        try:
            for payload, mask in pairs:
                size = len(payload)
                if size >= _PID_BYTES:
                    header = _unpack(payload)
                elif size >= messages.HEADER_BYTES:
                    # A bare header has no pid: it indexes as pid 0.
                    header = _unpack(
                        bytes(payload[: messages.HEADER_BYTES]) + b"\0\0\0\0"
                    )
                else:
                    raise ValueError(
                        "record payload of %d bytes is shorter than the "
                        "%d-byte message header" % (size, messages.HEADER_BYTES)
                    )
                if index is None:
                    self._begin_segment()
                    fields, offsets, buffer = index = self._index
                    offset = self._offset
                fields(header)
                offsets(offset)
                head = _head_pack(size, mask)
                buffer(head + _crc_pack(_crc32(payload, _crc32(head))) + payload)
                size += _OVERHEAD
                offset += size
                buffered += size
                appended += 1
                if buffered >= drain_at:
                    self._drain_buffer()
                    buffered = 0
                if offset >= seal_at:
                    self._offset = offset
                    self._buffered = buffered
                    self._seal_segment()
                    index = None
                    buffered = 0
        finally:
            self._offset = offset
            self._buffered = buffered
            self.records_appended += appended

    def append_marker(self, payload):
        """Queue one batch-marker frame (a kernel batch-sequence
        marker).  Markers are delivery-protocol control frames: they
        carry no record, never touch the footer index or
        ``records_appended``, and readers skip them."""
        if self._path is None:
            self._begin_segment()
        frame = sformat.encode_frame(payload, 0)
        self._offset += len(frame)
        self._buffer.append(frame)
        self._buffered += len(frame)
        if self._buffered >= self.flush_bytes:
            self._drain_buffer()

    def maybe_seal(self):
        """Seal the open segment once it is past capacity; with
        ``auto_seal=False`` this is called at batch boundaries only."""
        if self._path is not None and self._offset >= self.segment_bytes:
            self._seal_segment()

    def sync(self):
        """Move everything buffered into the op queue (end of a meter
        batch: bounded buffering, not unbounded deferral)."""
        self._drain_buffer()

    def close(self):
        """Seal the open segment, if any records reached it."""
        if self._path is not None:
            self._seal_segment()

    def pending_ops(self):
        """Drain the queued driver ops."""
        ops, self.ops = self.ops, []
        return ops

    # ------------------------------------------------------------------

    def _begin_segment(self):
        self._path = segment_path(self.base, self.next_index)
        self.next_index += 1
        stats = self._stats = sformat.SegmentStats(self.host_names)
        self._index = (
            stats.fields.extend, stats.offsets.append, self._buffer.append
        )
        self._offset = sformat.SEGMENT_HEADER_BYTES
        self._data_crc = 0
        flags = sformat.FLAG_COMPRESSED if self.compress else 0
        self.ops.append(("open", self._path))
        self.ops.append(
            ("write", self._path, sformat.segment_header(flags))
        )

    def _drain_buffer(self):
        if self.compress:
            return  # the whole frame region compresses as one blob at seal
        if self._buffer:
            chunk = b"".join(self._buffer)
            self._data_crc = zlib.crc32(chunk, self._data_crc)
            self.ops.append(("write", self._path, chunk))
            self._buffer.clear()
            self._buffered = 0

    def _seal_segment(self):
        stored_bytes = None
        if self.compress:
            region = b"".join(self._buffer)
            self._data_crc = zlib.crc32(region)
            blob = sformat.compress_region(region)
            self._buffer.clear()
            self._buffered = 0
            stored_bytes = len(blob)
            self.ops.append(("write", self._path, blob))
        else:
            self._drain_buffer()
        footer = self._stats.footer(
            sformat.SEGMENT_HEADER_BYTES,
            self._offset,
            data_crc32=self._data_crc,
            stored_bytes=stored_bytes,
        )
        self.ops.append(("write", self._path, sformat.encode_footer(footer)))
        self.ops.append(("close", self._path))
        self.segments_sealed += 1
        self._path = None
        self._stats = None
        self._index = None


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


def flush_to_guest(sys, writer):
    """Apply pending ops with simulated syscalls (use inside a guest:
    ``yield from flush_to_guest(sys, writer)``).  Keeps one fd open per
    segment across calls."""
    fds = writer.__dict__.setdefault("_guest_fds", {})
    for op in writer.pending_ops():
        kind, path = op[0], op[1]
        if kind == "open":
            fds[path] = yield sys.open(path, "w")
        elif kind == "write":
            fd = fds.get(path)
            if fd is None:
                fd = fds[path] = yield sys.open(path, "a")
            yield sys.write(fd, op[2])
        else:  # close
            fd = fds.pop(path, None)
            if fd is not None:
                yield sys.close(fd)


def flush_to_fs(fs, writer):
    """Apply pending ops host-side to a simulated FileSystem."""
    for op in writer.pending_ops():
        kind, path = op[0], op[1]
        if kind == "open":
            fs.install(path, b"")
        elif kind == "write":
            if not fs.exists(path):
                fs.install(path, b"")
            fs.node(path).data.extend(op[2])


def flush_to_files(writer):
    """Apply pending ops to the real filesystem (the pack CLI).  A file
    is opened once per run of writes to it: at its ``open`` op (which
    truncates), or else at the run's first write, for appending."""
    path = handle = None
    try:
        for op in writer.pending_ops():
            kind = op[0]
            if handle is not None and (kind != "write" or op[1] != path):
                handle.close()
                handle = None
            if kind == "close":
                continue
            if handle is None:
                path = op[1]
                handle = open(path, "wb" if kind == "open" else "ab")
            if kind == "write":
                handle.write(op[2])
    finally:
        if handle is not None:
            handle.close()


def collect_ops(store, writer):
    """Apply pending ops to a dict path -> bytearray (tests)."""
    for op in writer.pending_ops():
        kind, path = op[0], op[1]
        if kind == "open":
            store[path] = bytearray()
        elif kind == "write":
            store.setdefault(path, bytearray()).extend(op[2])
    return store


def next_segment_index(sys, base):
    """Guest helper: first segment index not already on disk, so a
    relaunched filter appends new segments instead of clobbering the
    records a previous incarnation flushed."""
    index = 0
    while True:
        try:
            fd = yield sys.open(segment_path(base, index), "r")
        except SyscallError as err:
            if err.errno == errno.ENOENT:
                return index
            raise
        yield sys.close(fd)
        index += 1
