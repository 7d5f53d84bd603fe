"""The binary trace store: segmented, indexed meter logs.

The paper's filters log accepted records as text lines (Section 3.4);
at Appendix-B scale that is fine, but the ROADMAP's large computations
emit millions of meter messages, and slurping whole text logs defeats
analysis.  This package keeps accepted records in their Appendix-A
wire encoding inside fixed-capacity segment files, each sealed with an
index footer, so analyses can stream exactly the records they need:

- :mod:`repro.tracestore.format` -- segments, frames, footers;
- :mod:`repro.tracestore.writer` -- :class:`StoreWriter` (batched,
  crash-safe appends; usable from filter guests);
- :mod:`repro.tracestore.reader` -- :class:`StoreReader` (streaming
  scans with segment pushdown) and :func:`merge_scan`;
- :mod:`repro.tracestore.convert` -- text log <-> store packing;
- :mod:`repro.tracestore.errors` -- the typed :class:`StoreError`
  hierarchy (all integrity failures raise these, never bare
  ``ValueError``);
- :mod:`repro.tracestore.fsck` -- offline store checking and repair
  (the ``trace fsck`` CLI).

Durability: there is one segment format (version 2) -- every frame
carries a CRC32 over its length, mask, and payload -- so corruption
anywhere in the data region is *detectable*, not just at the sealed
footer.  Any other version in a header is a bad header, reported and
skipped like a foreign file.  Reads are strict by default
(a corrupt frame raises :class:`CorruptSegmentError`); salvage mode
(``scan(salvage=True)``) resynchronizes past damage and accounts every
quarantined byte in :class:`ScanStats`.
"""

from repro.tracestore.format import (
    DEFAULT_SEGMENT_BYTES,
    FORMAT_VERSION,
    discard_mask,
    masked_fields,
    zero_masked_bytes,
)
from repro.tracestore.batchscan import (
    merge_scan_fast,
    message_select,
    scan_fast,
    select,
)
from repro.tracestore.convert import pack_records, pack_text
from repro.tracestore.errors import (
    BadSegmentHeaderError,
    CorruptFrameError,
    CorruptSegmentError,
    StoreError,
)
from repro.tracestore.fsck import fsck_store, repair_store
from repro.tracestore.reader import ScanStats, Segment, StoreReader, merge_scan
from repro.tracestore.writer import (
    StoreWriter,
    collect_ops,
    flush_to_files,
    flush_to_fs,
    flush_to_guest,
    next_segment_index,
    segment_path,
)

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "FORMAT_VERSION",
    "discard_mask",
    "masked_fields",
    "zero_masked_bytes",
    "pack_records",
    "pack_text",
    "StoreError",
    "BadSegmentHeaderError",
    "CorruptSegmentError",
    "CorruptFrameError",
    "fsck_store",
    "repair_store",
    "ScanStats",
    "Segment",
    "StoreReader",
    "merge_scan",
    "merge_scan_fast",
    "message_select",
    "scan_fast",
    "select",
    "StoreWriter",
    "collect_ops",
    "flush_to_files",
    "flush_to_fs",
    "flush_to_guest",
    "next_segment_index",
    "segment_path",
]
