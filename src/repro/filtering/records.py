"""Trace log record serialization.

Accepted event records are stored in the filter's log file as one text
line per record: space-separated ``key=value`` pairs, header fields
first, body fields in description order.  (The paper does not pin the
log format; a line-oriented text trace keeps getlog and the analysis
programs simple and the traces human-readable.)
"""


def format_record(record, field_order=None):
    """Render a record dict to its log line: the keys ``field_order``
    names, in that order and each once, then the rest in record
    order."""
    if field_order is not None:
        ordered = {key: record[key] for key in field_order if key in record}
        if len(ordered) < len(record):
            ordered.update(record)  # known keys keep their place
        record = ordered
    return " ".join([f"{key}={value}" for key, value in record.items()])


def parse_record_line(line):
    """Parse a log line back into a record dict (ints where possible)."""
    record = dict(map(_Chunks().__getitem__, line.split()))
    record.pop(None, None)
    return record


def parse_trace(text):
    """Parse a whole log file into a list of records.

    Lines whose first chunk starts with ``#`` are filter metadata
    (batch-commit markers such as ``#batch <machine> <pid> <seq>``),
    not records; so are blank lines, which have no chunk.

    Each kept line's split ``words`` becomes ``dict(map(
    chunks.__getitem__, words))`` with no Python frame of its own:
    ``chunks`` is this call's :class:`_Chunks` memo, which parses a
    chunk the first time the log shows it.  A chunk with no ``=`` parses to the pair
    ``(None, None)``; once the memo has met one, every record drops
    the key None, which no real chunk has.
    """
    chunks = _Chunks()
    pair_of = chunks.__getitem__
    records = [
        dict(map(pair_of, words))
        for line in text.splitlines()
        if (words := line.split()) and words[0][0] != "#"
    ]
    if chunks.pairless:
        for record in records:
            record.pop(None, None)
    return records


class _Chunks(dict):
    """chunk -> ``(key, value)`` for one parse (``(None, None)`` for a
    chunk with no ``=``, which sets ``pairless``): a log repeats a few
    thousand distinct ``key=value`` chunks endlessly, and keys and
    values are immutable strs and ints, so records may share them.
    Never kept across calls."""

    __slots__ = ("pairless",)

    def __init__(self):
        self.pairless = False

    def __missing__(self, chunk):
        key, sep, value = chunk.partition("=")
        if not sep:
            self.pairless = True
            pair = self[chunk] = None, None
            return pair
        # No base-10 int literal starts with a letter (``event=send`` on
        # every line): such a value is a string without raising to find
        # out.
        if not value[:1].isalpha():
            try:
                value = int(value)
            except ValueError:
                pass
        pair = self[chunk] = key, value
        return pair

