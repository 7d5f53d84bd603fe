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
- every read takes one frame walk (:meth:`Segment.frames`, over
  :func:`~repro.tracestore.format.salvage_frames`): it yields each
  frame whose CRC verifies and each *gap*, a byte range no verifiable
  frame covers (a CRC mismatch, a length word no torn append writes,
  bytes left after a sealed region's last frame);
- in the default *strict* mode a read is that walk refusing to skip:
  at the first gap it raises
  :class:`~repro.tracestore.errors.CorruptFrameError` with the segment
  path and the gap's offset, after yielding the records before it --
  the scan refuses to return a record stream it cannot vouch for;
- in *salvage* mode (``scan(salvage=True)``) the same gap is
  quarantined and the loss accounted in
  :attr:`ScanStats.bytes_quarantined` / :attr:`ScanStats.frames_corrupt`,
  so a damaged store degrades into "these records, minus this much
  quantified loss" instead of an exception or a lie.  Whatever strict
  refuses, salvage counts, and ``trace fsck`` calls the segment
  corrupt.

The batch fast lane (:mod:`repro.tracestore.batchscan`), whose oracle
this scan is, shares its segment admission and residual predicate.

:func:`merge_scan` merges several filters' stores into one stream
ordered by (header cpuTime, machine) -- the same heuristic interleaving
as :meth:`Trace.merge`, but computed with a k-way heap merge over lazy
streams instead of sorting a materialized list.
"""

import heapq

from repro.metering.messages import (
    BATCH_MARKER_TYPE,
    EVENT_TYPES,
    MessageCodec,
    is_batch_marker,
)
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
        self._end = None  # frame region end of an unsealed plain segment
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

    def frame_region(self):
        """(buffer, start, end) of the frame bytes to walk.

        Plain segments return the segment buffer itself (zero-copy);
        compressed segments inflate their data region once and cache
        it, with offsets matching the footer's uncompressed
        coordinates (frames start right after the 8-byte header).  A
        sealed region that fails to inflate is the prefix that does
        (:func:`~repro.tracestore.format.decompress_region`), and its
        end stays the footer's, past the buffer: the walk reads what
        the blob lost as one gap.
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
                raw = sformat.decompress_region(blob, self.footer["raw_bytes"])
            else:
                raw = sformat.decompress_region(bytes(data[head:]))
            self._region = bytes(data[:head]) + raw
        if self.sealed:
            return self._region, head, head + self.footer["raw_bytes"]
        return self._region, head, len(self._region)

    def data_bounds(self):
        if not self.valid:
            return 0, 0
        if self.sealed:
            return self.footer["data_start"], self.footer["data_end"]
        if self.compressed:
            __, start, end = self.frame_region()
            return start, end
        if self._end is None:
            data = self.data
            at = sformat.footer_start(data, sformat.SEGMENT_HEADER_BYTES)
            self._end = len(data) if at is None else at
        return sformat.SEGMENT_HEADER_BYTES, self._end

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

    def frames(self):
        """This segment's one frame walk
        (:func:`~repro.tracestore.format.salvage_frames`): ``("frame",
        offset, mask, payload)``, ``("gap", start, end)`` and, on an
        unsealed segment only, ``("torn", start, end)`` items, in
        order.  A plain segment that lost its seal to a damaged footer
        or trailer still ends its region on a frame boundary, where the
        footer starts (:func:`~repro.tracestore.format.footer_start`),
        so the walk reads that region as sealed."""
        if not self.valid:
            return iter(())
        data, start, end = self.frame_region()
        bounded = self.sealed or (not self.compressed and end < len(data))
        return sformat.salvage_frames(data, start, end, bounded)

    def committed_frames(self, items=None):
        """The walk's frames whose batch the writing filter actually
        committed, and its gaps; ``items`` is the walk when the caller
        holds it already.  Strict and salvage reads both take these
        items: one raises at the first gap, the other counts it.

        Sealed segments seal on a batch boundary, so every frame
        counts, and the walk stays lazy.  An unsealed tail that
        contains batch markers may end with frames of a batch whose
        trailing marker never reached the medium (the filter died
        mid-commit); those frames are uncommitted -- a relaunched
        filter re-appends the whole batch in a later segment, so
        reading them would double-count.  Marker-free unsealed
        segments are taken whole: a filter commits every batch with its
        marker, so those are packed stores.
        A torn tail is expected loss and is left out.
        """
        if items is None:
            items = self.frames()
        if self.sealed:
            return items
        items = [item for item in items if item[0] != "torn"]
        last_marker = None
        for index, item in enumerate(items):
            if item[0] == "frame" and is_batch_marker(item[3]):
                last_marker = index
        if last_marker is None:
            return items
        return items[: last_marker + 1] + [
            item for item in items[last_marker + 1 :] if item[0] == "gap"
        ]

    def gap_error(self, start, end):
        """What a strict read raises at the gap ``start``..``end``."""
        return CorruptFrameError(
            "no frame verifies in bytes %d..%d" % (start, end),
            path=self.path,
            offset=start,
        )

    def verify(self, items=None):
        """Classify this segment's integrity without decoding records,
        from its walk (``items``, when the caller holds it already).

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
        for item in self.frames() if items is None else items:
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

    def footer_records(self):
        """The records a sealed segment's footer counts: its frames
        less the batch markers (a footer names the marker's traceType
        by its digits), so it compares with what a scan decodes."""
        events = self.footer["events"]
        return self.footer["records"] - events.get(str(BATCH_MARKER_TYPE), 0)

    def host_names(self):
        if not self.sealed:
            return {}
        return {
            int(host_id): name
            for host_id, name in self.footer.get("hosts", {}).items()
        }


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
        #: Records recovered from segments that contained damage
        #: (added when such a segment's read ends; a gap is counted
        #: above as soon as the walk reaches it).
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


class Predicates:
    """One scan's predicates: pushed down to sealed footers, then
    applied to each decoded record."""

    __slots__ = ("machines", "pids", "events", "t_min", "t_max")

    def __init__(self, machines=None, pids=None, events=None, t_min=None,
                 t_max=None):
        self.machines = set(machines) if machines is not None else None
        self.pids = set(pids) if pids is not None else None
        self.events = set(events) if events is not None else None
        self.t_min = t_min
        self.t_max = t_max

    def residual(self, record, mask):
        """``record`` as a scan yields it (the fields ``mask`` discards
        dropped), or None when the residual predicate rejects it."""
        if self.events is not None and record["event"] not in self.events:
            return None
        machine = record["machine"]
        if self.machines is not None and machine not in self.machines:
            return None
        if self.pids is not None and (machine, record.get("pid")) not in self.pids:
            return None
        time = record["cpuTime"]
        if self.t_min is not None and time < self.t_min:
            return None
        if self.t_max is not None and time > self.t_max:
            return None
        if mask:
            for name in sformat.masked_fields(record["event"], mask):
                record.pop(name, None)
        return record


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

    def record_count(self):
        """Total records, from footers where sealed, scans otherwise."""
        total = 0
        for segment in self.segments:
            if not segment.valid:
                continue
            if segment.sealed:
                total += segment.footer_records()
                continue
            for item in segment.committed_frames():
                if item[0] == "gap":
                    raise segment.gap_error(item[1], item[2])
                if not is_batch_marker(item[3]):
                    total += 1
        return total

    def scan(self, machines=None, pids=None, events=None, t_min=None,
             t_max=None, salvage=False):
        """Stream matching records as decoded dicts (the exact shape
        ``parse_trace`` yields from a text log).

        Pushdown: a sealed segment whose footer proves no record can
        match is skipped without touching its data region; only its
        footer/trailer bytes are read.  The residual predicate is then
        applied per record, and masked (discarded) fields are dropped.

        Integrity: strict by default -- at the first gap in a
        segment's walk (bytes no verifiable frame covers) the scan
        raises :class:`CorruptSegmentError`, after the records before
        it, rather than yield a record stream that silently differs
        from what was written.  With ``salvage=True`` the same walk
        goes on to the next verifiable frame, and the gap is
        quarantined and accounted in :attr:`last_stats`
        (``bytes_quarantined``, ``frames_corrupt``).  Segments with
        unreadable headers are skipped and counted in either mode.
        """
        query = Predicates(machines, pids, events, t_min, t_max)
        stats = self.last_stats = ScanStats()
        for segment in self.admitted(stats, query):
            yield from self._segment_records(segment, stats, query, salvage)

    def admitted(self, stats, query, rule_events=None):
        """The segments a scan must read, in order, accounted in
        ``stats``: a bad header is counted and skipped, and so is a
        sealed segment whose footer proves that no record matches
        ``query``, or -- given ``rule_events``, the events some rule
        can accept -- that holds only decodable events no rule
        accepts (a footer naming an unknown event is read, so a
        strict scan's corruption errors are not skipped with it)."""
        stats.segments_total = len(self.segments)
        for segment in self.segments:
            if not segment.valid:
                stats.segments_bad_header += 1
                stats.segment_errors.append(
                    (segment.path, str(segment.header_error))
                )
                continue
            if segment.sealed:
                footer = segment.footer
                if not sformat.footer_matches(
                    footer, machines=query.machines, pids=query.pids,
                    events=query.events, t_min=query.t_min, t_max=query.t_max,
                ) or (
                    rule_events is not None
                    and all(key in EVENT_TYPES for key in footer["events"])
                    and not any(key in rule_events for key in footer["events"])
                ):
                    stats.segments_skipped += 1
                    continue
            else:
                stats.segments_recovered += 1
            stats.segments_scanned += 1
            stats.bytes_scanned += segment.data_bytes()
            yield segment

    def _segment_records(self, segment, stats, query, salvage):
        """Decode one segment's committed frames through the residual
        predicate (the per-segment body of :meth:`scan`, shared with
        the batch fast lane's slow path so both walk damage and apply
        predicates with byte-identical semantics).  A strict read
        raises at the first gap, after the records before it; a
        salvage read counts the gap and goes on."""
        decoded = 0
        damaged = False
        for item in segment.committed_frames():
            if item[0] == "gap":
                if not salvage:
                    raise segment.gap_error(item[1], item[2])
                stats.frames_corrupt += 1
                stats.bytes_quarantined += item[2] - item[1]
                stats.segment_errors.append(
                    (segment.path, "quarantined bytes %d..%d" % item[1:])
                )
                damaged = True
                continue
            __, __, mask, payload = item
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
            decoded += 1
            record = query.residual(record, mask)
            if record is not None:
                stats.records_yielded += 1
                yield record
        if damaged:
            stats.records_salvaged += decoded

    def records(self, **predicates):
        """Materialize a scan through the fused lane
        (:func:`~repro.tracestore.batchscan.scan_fast`: the same records,
        order, strict errors and :attr:`last_stats` as :meth:`scan`,
        which stays its oracle)."""
        from repro.tracestore.batchscan import scan_fast  # imports this module

        return list(scan_fast(self, **predicates))


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
