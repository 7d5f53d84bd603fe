"""Offline store checking and repair (``python -m repro trace fsck``).

``fsck_store`` classifies every segment of a store without decoding it
into a trace (sealed-clean / open-clean / torn-tail / corrupt-frame /
bad-header / foreign), verifies each surviving frame (v2 CRC plus a
payload decode check), and totals the loss: records recovered, records
known lost (sealed footers record how many frames a segment held), and
bytes quarantined.

``repair_store`` rewrites a damaged store as a fresh copy containing
only the verified frames, re-sealing every segment with a rebuilt
footer in the current format version.  The copy re-reads clean by
construction; the original is never modified (fsck is an offline tool,
the medium may be the only evidence of what happened).  Batch-marker
control frames are not carried over -- the repaired copy is a plain
record store, like the output of ``trace pack``.
"""

from repro.metering.messages import MessageCodec, is_batch_marker
from repro.tracestore import format as sformat
from repro.tracestore import reader as sreader
from repro.tracestore.writer import StoreWriter, collect_ops


def fsck_store(reader):
    """Check one store; returns a report dict.

    ``segments`` holds one entry per segment file: the
    :meth:`Segment.verify` report extended with ``records_recovered``
    (frames that decode to records), ``records_expected`` (from the
    footer, sealed segments only) and ``records_lost`` (when known).
    ``totals`` aggregates, and ``clean`` is True when nothing was
    quarantined, skipped, or undecodable -- torn tails are expected
    crash loss and do not make a store unclean.
    """
    segments = []
    totals = {
        "segments": len(reader.segments),
        "records_recovered": 0,
        "records_lost_known": 0,
        "bytes_quarantined": 0,
        "torn_bytes": 0,
        "by_status": {},
    }
    for segment in reader.segments:
        report = segment.verify()
        report["records_recovered"] = 0
        report["records_expected"] = (
            segment.footer["records"] if segment.sealed else None
        )
        if segment.valid:
            frames, __gaps = segment.committed_salvage()
            for __, __mask, payload in frames:
                if is_batch_marker(payload):
                    continue
                try:
                    reader.codec.decode(payload)
                except ValueError:
                    # Counts as damage even though the frame's CRC
                    # verified: what was written is no meter message.
                    report["quarantined_bytes"] += (
                        len(payload) + sformat.FRAME_OVERHEAD_BYTES
                    )
                    if report["status"] in (
                        sreader.SEALED_CLEAN,
                        sreader.OPEN_CLEAN,
                        sreader.TORN_TAIL,
                    ):
                        report["status"] = sreader.CORRUPT_FRAME
                    continue
                report["records_recovered"] += 1
        if report["records_expected"] is not None:
            report["records_lost"] = (
                report["records_expected"] - report["records_recovered"]
            )
        else:
            report["records_lost"] = None
        segments.append(report)
        totals["records_recovered"] += report["records_recovered"]
        if report["records_lost"]:
            totals["records_lost_known"] += report["records_lost"]
        totals["bytes_quarantined"] += report["quarantined_bytes"]
        totals["torn_bytes"] += report["torn_bytes"]
        status = report["status"]
        totals["by_status"][status] = totals["by_status"].get(status, 0) + 1
    clean = all(
        report["status"]
        in (sreader.SEALED_CLEAN, sreader.OPEN_CLEAN, sreader.TORN_TAIL)
        for report in segments
    )
    return {"segments": segments, "totals": totals, "clean": clean}


def repair_store(reader, out_base, segment_bytes=sformat.DEFAULT_SEGMENT_BYTES,
                 writer_driver=None):
    """Write a repaired copy of ``reader``'s store at ``out_base``.

    Every verified, decodable record frame is re-appended (discard
    masks preserved) through a fresh writer, so the copy carries
    rebuilt footers even when the source's were damaged or missing.
    ``writer_driver(writer)``
    applies the ops to a medium (e.g. ``flush_to_files``); without one
    the copy is returned as a dict path -> bytes.  Returns
    ``(result, writer, report)`` where report is the source store's
    :func:`fsck_store` output.
    """
    report = fsck_store(reader)
    host_names = dict(reader.codec.host_names)
    writer = StoreWriter(
        out_base, segment_bytes=segment_bytes, host_names=host_names
    )
    sink = {} if writer_driver is None else None
    codec = MessageCodec(host_names)
    for segment in reader.segments:
        if not segment.valid:
            continue
        frames, __gaps = segment.committed_salvage()
        for __, mask, payload in frames:
            if is_batch_marker(payload):
                continue
            try:
                codec.decode(payload)
            except ValueError:
                continue  # already accounted by fsck_store
            writer.append(payload, mask)
            if writer_driver is None:
                collect_ops(sink, writer)
            else:
                writer_driver(writer)
    writer.close()
    if writer_driver is None:
        collect_ops(sink, writer)
        return (
            {path: bytes(data) for path, data in sink.items()},
            writer,
            report,
        )
    writer_driver(writer)
    return None, writer, report


def format_report(report, verbose=True):
    """Human-readable fsck report lines (the CLI output)."""
    lines = []
    for seg in report["segments"]:
        parts = [
            "{0}: {1}".format(seg["path"], seg["status"]),
        ]
        if seg["version"] is not None:
            parts.append("v{0}".format(seg["version"]))
        if seg.get("compressed"):
            parts.append("zlib")
        parts.append("{0} record(s)".format(seg["records_recovered"]))
        if seg["markers"]:
            parts.append("{0} marker(s)".format(seg["markers"]))
        if seg["records_lost"]:
            parts.append("{0} lost".format(seg["records_lost"]))
        if seg["torn_bytes"]:
            parts.append("{0}B torn tail".format(seg["torn_bytes"]))
        if seg["quarantined_bytes"]:
            parts.append("{0}B quarantined".format(seg["quarantined_bytes"]))
        if seg["error"]:
            parts.append("({0})".format(seg["error"]))
        if verbose:
            lines.append(", ".join(parts))
    totals = report["totals"]
    lines.append(
        "fsck: {0} segment(s), {1} record(s) recovered, "
        "{2} known lost, {3}B quarantined, {4}B torn -- {5}".format(
            totals["segments"],
            totals["records_recovered"],
            totals["records_lost_known"],
            totals["bytes_quarantined"],
            totals["torn_bytes"],
            "clean" if report["clean"] else "DAMAGED",
        )
    )
    return lines
