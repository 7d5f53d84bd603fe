"""StoreReader: streaming, predicate-pushdown access to a trace store.

Reading never materializes a whole store: :meth:`StoreReader.scan` is
a generator that walks segments in order, consults each sealed
segment's footer first, and decodes only the segments that can contain
a matching record.  Unsealed tail segments (the writer crashed, or the
filter is still running) are recovered by scanning their
self-delimiting frames.

Damage handling is explicit, never silent:

- a segment whose header does not parse (foreign file, truncated or
  bit-rotted header) is skipped and counted in
  :attr:`ScanStats.segments_bad_header`, with the reason kept in
  :attr:`ScanStats.segment_errors`;
- in the default *strict* mode, a corrupt frame (v2 CRC mismatch, or a
  frame overrunning a sealed data region) raises
  :class:`~repro.tracestore.errors.CorruptSegmentError` -- the scan
  refuses to return a record stream it cannot vouch for;
- in *salvage* mode (``scan(salvage=True)``), the scan resynchronizes
  past corrupt byte ranges to the next verifiable frame, quarantines
  what it skipped, and accounts the loss in
  :attr:`ScanStats.bytes_quarantined` / :attr:`ScanStats.frames_corrupt`,
  so a damaged store degrades into "these records, minus this much
  quantified loss" instead of an exception or a lie.

:func:`merge_scan` merges several filters' stores into one stream
ordered by (header cpuTime, machine) -- the same heuristic interleaving
as :meth:`Trace.merge`, but computed with a k-way heap merge over lazy
streams instead of sorting a materialized list.
"""

import heapq

from repro.metering.messages import MessageCodec, is_batch_marker
from repro.tracestore import format as sformat
from repro.tracestore.errors import (
    BadSegmentHeaderError,
    CorruptFrameError,
    CorruptSegmentError,
)
from repro.tracestore.writer import SEGMENT_SUFFIX

#: Segment integrity classes (``Segment.verify()`` / ``trace fsck``).
SEALED_CLEAN = "sealed-clean"
OPEN_CLEAN = "open-clean"
TORN_TAIL = "torn-tail"
CORRUPT_FRAME = "corrupt-frame"
BAD_HEADER = "bad-header"
FOREIGN = "foreign"


class Segment:
    """One segment file, parsed lazily.

    Construction touches only the 8-byte header and (for sealed
    segments) the footer/trailer bytes; the data region is neither
    copied nor inflated until a frame walk needs it.  ``data`` may be
    ``bytes``, a ``bytearray`` (a live filesystem buffer -- snapshotted
    to bytes on first use, so a scan never races the writing filter),
    or an ``mmap`` (``StoreReader.from_files`` -- the OS pages frames
    in on demand, and a pushdown-skipped segment costs two pages).

    A segment whose header fails to parse is still constructed --
    ``valid`` is False and ``header_error`` holds the typed error --
    so one damaged or foreign file can be reported and skipped instead
    of aborting access to the whole store.
    """

    def __init__(self, path, data):
        self.path = path
        self._raw = data
        self._snapshot = data if not isinstance(data, bytearray) else None
        self._region = None  # inflated frame region (compressed segments)
        self._region_damaged = False
        self.header_error = None
        try:
            self.version = sformat.parse_segment_header(data, path=path)
        except BadSegmentHeaderError as err:
            self.version = None
            self.header_error = err
        self.valid = self.header_error is None
        self.compressed = bool(
            self.valid
            and sformat.segment_flags(data) & sformat.FLAG_COMPRESSED
        )
        self.footer = sformat.parse_footer(data) if self.valid else None
        self.sealed = self.footer is not None
        if self.sealed:
            # The footer is CRC-protected; the header flag byte is not.
            # On a sealed segment the footer's own compression fields
            # therefore outrank the flag, so a single flipped flag bit
            # cannot make the reader inflate plain frames (or walk a
            # deflate stream as frames).
            self.compressed = bool(self.footer.get("compressed"))

    @property
    def data(self):
        """The segment bytes (bytearray sources are snapshotted once)."""
        if self._snapshot is None:
            self._snapshot = bytes(self._raw)
        return self._snapshot

    def frame_region(self, best_effort=False):
        """(buffer, start, end) of the frame bytes to walk.

        Plain segments return the segment buffer itself (zero-copy);
        compressed segments inflate their data region once and cache
        it, with offsets matching the footer's uncompressed
        coordinates (frames start right after the 8-byte header).  A
        sealed compressed region that fails to inflate raises
        :class:`CorruptFrameError`; with ``best_effort=True`` (salvage
        and verify paths) it degrades to whatever prefix inflates.
        """
        if not self.valid:
            return b"", 0, 0
        if not self.compressed:
            start, end = self.data_bounds()
            return self.data, start, end
        head = sformat.SEGMENT_HEADER_BYTES
        if self._region is None:
            data = self.data
            if self.sealed:
                blob = bytes(data[head : head + self.footer["stored_bytes"]])
                try:
                    raw = sformat.decompress_region(
                        blob, self.footer["raw_bytes"]
                    )
                except CorruptSegmentError as err:
                    if not best_effort:
                        raise CorruptFrameError(str(err), path=self.path)
                    self._region_damaged = True
                    raw = sformat.decompress_region(blob, None)
            else:
                raw = sformat.decompress_region(bytes(data[head:]), None)
            self._region = bytes(data[:head]) + raw
        elif self._region_damaged and not best_effort:
            raise CorruptFrameError(
                "compressed data region is damaged", path=self.path
            )
        return self._region, head, len(self._region)

    def data_bounds(self):
        if not self.valid:
            return 0, 0
        if self.sealed:
            return self.footer["data_start"], self.footer["data_end"]
        if self.compressed:
            __, start, end = self.frame_region(best_effort=True)
            return start, end
        return sformat.SEGMENT_HEADER_BYTES, len(self.data)

    def data_bytes(self):
        start, end = self.data_bounds()
        return end - start

    def stored_data_bytes(self):
        """On-disk size of the data region (inspect: what compression
        actually saved; equals :meth:`data_bytes` when uncompressed)."""
        if self.compressed and self.sealed:
            return self.footer["stored_bytes"]
        if self.compressed:
            return max(len(self.data) - sformat.SEGMENT_HEADER_BYTES, 0)
        return self.data_bytes()

    def iter_frames(self):
        """Strict frame walk: raises CorruptFrameError on damage."""
        if not self.valid:
            return iter(())
        data, start, end = self.frame_region()
        return sformat.iter_frames(
            data, start, end, sealed=self.sealed, path=self.path
        )

    def salvage_frames(self):
        """Damage-tolerant walk: ("frame", offset, mask, payload) /
        ("gap", start, end) / ("torn", start, end) items."""
        if not self.valid:
            return
        data, start, end = self.frame_region(best_effort=True)
        lost_from = end
        for item in sformat.salvage_frames(data, start, end):
            if self._region_damaged and item[0] == "torn":
                lost_from = item[1]
            else:
                yield item
        if self._region_damaged:
            # A sealed region has no torn tail: whatever the blob did
            # not inflate, up to the footer's size, is quarantined.
            sealed_end = start + self.footer["raw_bytes"]
            if lost_from < sealed_end:
                yield "gap", lost_from, sealed_end

    def committed_frames(self):
        """Frames whose batch the writing filter actually committed.

        Sealed segments seal on a batch boundary, so every frame
        counts.  An unsealed tail that contains batch markers may end
        with frames of a batch whose trailing marker never reached the
        medium (the filter died mid-commit); those frames are
        uncommitted -- a relaunched filter re-appends the whole batch
        in a later segment, so reading them would double-count.
        Marker-free unsealed segments (packed stores, markerless
        senders) are taken whole.
        """
        if self.sealed:
            return self.iter_frames()
        return iter(_commit_truncate(list(self.iter_frames())))

    def committed_salvage(self):
        """The salvage-mode analogue of :meth:`committed_frames`:
        returns (frames, gaps) where gaps is a list of quarantined
        (start, end) byte ranges.  Torn-tail items are expected loss
        and are not treated as gaps."""
        frames, gaps = [], []
        for item in self.salvage_frames():
            if item[0] == "frame":
                frames.append(item[1:])
            elif item[0] == "gap":
                gaps.append((item[1], item[2]))
        if not self.sealed:
            frames = _commit_truncate(frames)
        return frames, gaps

    def verify(self):
        """Classify this segment's integrity without decoding records.

        Returns a dict: ``status`` (one of the class constants above),
        ``version``, ``sealed``, ``frames``/``markers`` verified,
        ``committed_bytes``, ``torn_bytes`` (clean torn tail),
        ``quarantined_bytes`` (unverifiable, non-tail), and ``error``
        (header error text, when status is bad-header/foreign).
        """
        report = {
            "path": self.path,
            "status": SEALED_CLEAN,
            "version": self.version,
            "sealed": self.sealed,
            "compressed": self.compressed,
            "frames": 0,
            "markers": 0,
            "committed_bytes": 0,
            "torn_bytes": 0,
            "quarantined_bytes": 0,
            "error": None,
        }
        if not self.valid:
            report["status"] = (
                FOREIGN if self.header_error.foreign else BAD_HEADER
            )
            report["error"] = str(self.header_error)
            report["quarantined_bytes"] = len(self.data)
            return report
        for item in self.salvage_frames():
            if item[0] == "frame":
                payload = item[3]
                report["frames"] += 1
                if is_batch_marker(payload):
                    report["markers"] += 1
                report["committed_bytes"] += (
                    len(payload) + sformat.FRAME_OVERHEAD_BYTES
                )
            elif item[0] == "torn":
                report["torn_bytes"] += item[2] - item[1]
            else:
                report["quarantined_bytes"] += item[2] - item[1]
        if report["quarantined_bytes"]:
            report["status"] = CORRUPT_FRAME
        elif report["torn_bytes"]:
            report["status"] = TORN_TAIL
        elif not self.sealed:
            report["status"] = OPEN_CLEAN
        return report

    def host_names(self):
        if not self.sealed:
            return {}
        return {
            int(host_id): name
            for host_id, name in self.footer.get("hosts", {}).items()
        }


def _commit_truncate(frames):
    """Drop unsealed-tail frames after the last batch marker (see
    :meth:`Segment.committed_frames`); marker-free lists pass whole."""
    last_marker = None
    for index, entry in enumerate(frames):
        payload = entry[2]
        if is_batch_marker(payload):
            last_marker = index
    if last_marker is None:
        return frames
    return frames[: last_marker + 1]


class ScanStats:
    """What one scan actually touched (the pushdown evidence), plus the
    loss ledger: everything a scan could not verify is counted here,
    never silently dropped."""

    def __init__(self):
        self.segments_total = 0
        self.segments_scanned = 0
        self.segments_skipped = 0
        self.segments_recovered = 0
        #: Segments whose header failed to parse (skipped, not fatal).
        self.segments_bad_header = 0
        self.bytes_scanned = 0
        self.records_decoded = 0
        self.records_yielded = 0
        #: Records rejected by the batch fast lane's columnar rule
        #: pre-screen without ever being materialized as dicts (always
        #: 0 on the interpreted scan; counted toward records_yielded,
        #: since the oracle yields them and the rules reject them).
        self.records_prescreened = 0
        #: Corrupt frames / quarantined byte ranges survived in salvage
        #: mode (strict mode raises instead of counting).
        self.frames_corrupt = 0
        self.bytes_quarantined = 0
        #: Records recovered from segments that contained damage.
        self.records_salvaged = 0
        #: (path, reason) for every segment-level problem encountered.
        self.segment_errors = []

    def loss_free(self):
        """True when nothing was quarantined or skipped as damaged."""
        return (
            self.segments_bad_header == 0
            and self.frames_corrupt == 0
            and self.bytes_quarantined == 0
        )

    def __repr__(self):
        text = (
            "ScanStats(scanned={0}/{1}, skipped={2}, recovered={3}, "
            "bytes={4}, decoded={5}, yielded={6}".format(
                self.segments_scanned,
                self.segments_total,
                self.segments_skipped,
                self.segments_recovered,
                self.bytes_scanned,
                self.records_decoded,
                self.records_yielded,
            )
        )
        if not self.loss_free():
            text += (
                ", bad_header={0}, corrupt_frames={1}, quarantined={2}B, "
                "salvaged={3}".format(
                    self.segments_bad_header,
                    self.frames_corrupt,
                    self.bytes_quarantined,
                    self.records_salvaged,
                )
            )
        return text + ")"


class StoreReader:
    """Read one store (one filter's segment family)."""

    def __init__(self, segments, host_names=None):
        self.segments = sorted(segments, key=lambda seg: seg.path)
        names = {}
        for segment in self.segments:
            names.update(segment.host_names())
        names.update(host_names or {})
        self.codec = MessageCodec(names)
        #: Stats of the most recent scan (updated as the scan advances).
        self.last_stats = ScanStats()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_bytes(cls, mapping, host_names=None):
        """From a dict path -> segment bytes."""
        return cls(
            [Segment(path, data) for path, data in mapping.items()],
            host_names=host_names,
        )

    @classmethod
    def from_fs(cls, fs, base, host_names=None):
        """From a simulated machine filesystem, host-side.  Segment
        buffers are referenced, not copied: construction parses only
        headers and footers, and a segment's bytes are snapshotted the
        first time a scan actually touches it -- a pushdown query over
        a large store materializes only the segments it reads.  A
        segment with a damaged header is kept (flagged invalid) so the
        rest of the store stays readable."""
        prefix = base + SEGMENT_SUFFIX
        segments = [
            Segment(path, fs.node(path).data)
            for path in fs.paths()
            if path.startswith(prefix)
        ]
        if not segments:
            raise FileNotFoundError(prefix + "*")
        return cls(segments, host_names=host_names)

    @classmethod
    def from_files(cls, base, host_names=None):
        """From real files (the CLI): ``<base>.seg*`` siblings, memory-
        mapped read-only so the OS pages frames in on demand -- a
        pushdown-skipped segment costs its header and footer pages,
        nothing else, and no segment is ever held in memory whole.  A
        damaged or foreign file among them is kept (flagged invalid)
        instead of aborting the whole store."""
        import glob
        import mmap

        paths = sorted(glob.glob(base + SEGMENT_SUFFIX + "*"))
        if not paths:
            raise FileNotFoundError(base + SEGMENT_SUFFIX + "*")
        segments = []
        for path in paths:
            with open(path, "rb") as handle:
                try:
                    data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                except (ValueError, OSError):
                    data = handle.read()  # empty file: nothing to map
            segments.append(Segment(path, data))
        return cls(segments, host_names=host_names)

    # -- scanning -------------------------------------------------------

    def footers(self):
        """(path, footer-or-None) per segment, for inspect."""
        return [(segment.path, segment.footer) for segment in self.segments]

    def integrity(self):
        """Per-segment :meth:`Segment.verify` reports (inspect/fsck)."""
        return [segment.verify() for segment in self.segments]

    def record_count(self):
        """Total records, from footers where sealed, scans otherwise."""
        total = 0
        for segment in self.segments:
            if not segment.valid:
                continue
            if segment.sealed:
                total += segment.footer["records"]
            else:
                total += sum(
                    1
                    for __, __mask, payload in segment.committed_frames()
                    if not is_batch_marker(payload)
                )
        return total

    def scan(self, machines=None, pids=None, events=None, t_min=None,
             t_max=None, salvage=False):
        """Stream matching records as decoded dicts (the exact shape
        ``parse_trace`` yields from a text log).

        Pushdown: a sealed segment whose footer proves no record can
        match is skipped without touching its data region; only its
        footer/trailer bytes are read.  The residual predicate is then
        applied per record, and masked (discarded) fields are dropped.

        Integrity: strict by default -- a corrupt frame raises
        :class:`CorruptSegmentError` rather than yielding a record
        stream that silently differs from what was written.  With
        ``salvage=True`` the scan skips to the next verifiable frame,
        quarantines the damaged range, and accounts the loss in
        :attr:`last_stats` (``bytes_quarantined``, ``frames_corrupt``).
        Segments with unreadable headers are skipped and counted in
        either mode.
        """
        stats = self.last_stats = ScanStats()
        stats.segments_total = len(self.segments)
        machine_set = set(machines) if machines is not None else None
        pid_set = set(pids) if pids is not None else None
        event_set = set(events) if events is not None else None
        for segment in self.segments:
            if not segment.valid:
                stats.segments_bad_header += 1
                stats.segment_errors.append(
                    (segment.path, str(segment.header_error))
                )
                continue
            if segment.sealed:
                if not sformat.footer_matches(
                    segment.footer,
                    machines=machine_set,
                    pids=pid_set,
                    events=event_set,
                    t_min=t_min,
                    t_max=t_max,
                ):
                    stats.segments_skipped += 1
                    continue
            else:
                stats.segments_recovered += 1
            stats.segments_scanned += 1
            stats.bytes_scanned += segment.data_bytes()
            yield from self._segment_records(
                segment, stats, machine_set, pid_set, event_set,
                t_min, t_max, salvage,
            )

    def _segment_records(self, segment, stats, machine_set, pid_set,
                         event_set, t_min, t_max, salvage):
        """Decode one segment's committed frames through the residual
        predicate (the per-segment body of :meth:`scan`, shared with
        the batch fast lane's slow path so both walk damage and apply
        predicates with byte-identical semantics)."""
        if salvage:
            frames, gaps = segment.committed_salvage()
            for start, end in gaps:
                stats.frames_corrupt += 1
                stats.bytes_quarantined += end - start
            if gaps:
                stats.segment_errors.append(
                    (
                        segment.path,
                        "quarantined {0} byte(s) in {1} range(s)".format(
                            sum(end - start for start, end in gaps),
                            len(gaps),
                        ),
                    )
                )
            damaged = bool(gaps)
        else:
            frames = segment.committed_frames()
            damaged = False
        for __, mask, payload in frames:
            if is_batch_marker(payload):
                continue  # delivery-protocol control frame
            try:
                record = self.codec.decode(payload)
            except ValueError as err:
                # A frame that parses but whose payload is not a
                # meter message.  Frames are CRC-verified, so this is
                # real damage: the loss is accounted (or, strict,
                # surfaced) -- never silently dropped.
                if salvage:
                    stats.frames_corrupt += 1
                    stats.bytes_quarantined += (
                        len(payload) + sformat.FRAME_OVERHEAD_BYTES
                    )
                    stats.segment_errors.append(
                        (segment.path, "undecodable frame: %s" % err)
                    )
                    damaged = True
                    continue
                raise CorruptSegmentError(
                    "undecodable frame payload: %s" % err,
                    path=segment.path,
                )
            stats.records_decoded += 1
            if damaged:
                stats.records_salvaged += 1
            if event_set is not None and record["event"] not in event_set:
                continue
            if machine_set is not None and record["machine"] not in machine_set:
                continue
            if pid_set is not None:
                if (record["machine"], record.get("pid")) not in pid_set:
                    continue
            time = record["cpuTime"]
            if t_min is not None and time < t_min:
                continue
            if t_max is not None and time > t_max:
                continue
            if mask:
                for name in sformat.masked_fields(record["event"], mask):
                    record.pop(name, None)
            stats.records_yielded += 1
            yield record

    def records(self, **predicates):
        """Materialize a scan (convenience for small selections)."""
        return list(self.scan(**predicates))


def merge_scan(readers, **predicates):
    """K-way merge of several stores' scans by (cpuTime, machine).

    Each store's stream is consumed lazily; ordering across machines is
    the same local-clock heuristic as :meth:`Trace.merge` (Section 4.1:
    causal questions belong to happens-before, not to this order).
    """
    streams = [reader.scan(**predicates) for reader in readers]
    return heapq.merge(
        *streams,
        key=lambda record: (record.get("cpuTime", 0), record.get("machine", 0))
    )
