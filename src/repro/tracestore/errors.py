"""Typed trace-store errors.

Every storage-integrity failure raises one of these instead of a bare
``ValueError``, so callers can tell "this store is damaged" apart from
ordinary argument errors and react per class (skip a segment, switch to
salvage, refuse to trust the scan).  The hierarchy still subclasses
``ValueError`` so pre-existing ``except ValueError`` call sites keep
working unchanged.

- :class:`StoreError` -- base class for all store integrity errors;
- :class:`BadSegmentHeaderError` -- the first 8 bytes are not a valid
  segment header (foreign file, truncated header, unknown version);
- :class:`CorruptSegmentError` -- a segment's data region is damaged;
- :class:`CorruptFrameError` -- a strict read met a gap: bytes of a
  data region that no verifiable frame covers (carries the gap's
  first byte offset).
"""


class StoreError(ValueError):
    """Base class: a trace store failed an integrity check."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path

    def __str__(self):
        base = super().__str__()
        if self.path:
            return "{0}: {1}".format(self.path, base)
        return base


class BadSegmentHeaderError(StoreError):
    """The segment header is unreadable: wrong magic (a foreign file),
    too short, or an unsupported format version."""

    def __init__(self, message, path=None, foreign=False):
        super().__init__(message, path=path)
        #: True when the magic itself is wrong -- the file was never a
        #: trace-store segment (as opposed to a damaged/newer one).
        self.foreign = foreign


class CorruptSegmentError(StoreError):
    """A segment's data region holds bytes that are provably not the
    frames the writer appended."""

    def __init__(self, message, path=None, offset=None):
        super().__init__(message, path=path)
        #: Byte offset (within the segment) where corruption was found.
        self.offset = offset


class CorruptFrameError(CorruptSegmentError):
    """A frame walk found bytes no verifiable frame covers: a CRC
    mismatch, a length word no torn append writes, or bytes left
    after a sealed region's last frame (``offset`` is the first)."""
