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
    return _parse_line(line, {})


def parse_trace(text):
    """Parse a whole log file into a list of records.

    Lines starting with ``#`` are filter metadata (batch-commit
    markers such as ``#batch <machine> <pid> <seq>``), not records;
    so are blank lines.  Only a line that is empty or starts with
    whitespace needs stripping to tell.
    """
    chunks = {}
    return [
        _parse_line(line, chunks)
        for line in text.splitlines()
        if (head := line[:1]) != "#"
        and (head.strip() or line.strip() and not line.lstrip().startswith("#"))
    ]


_MISS = object()


def _parse_line(line, chunks):
    """The one line parser.  ``chunks`` memoises chunk -> ``(key,
    value)`` (None for a chunk with no ``=``) for one parse: a log
    repeats a few thousand distinct ``key=value`` chunks endlessly, and
    keys and values are immutable strs and ints, so records may share
    them."""
    record = {}
    for chunk in line.split():
        pair = chunks.get(chunk, _MISS)
        if pair is _MISS:
            pair = chunks[chunk] = _parse_chunk(chunk)
        if pair is not None:
            record[pair[0]] = pair[1]
    return record


def _parse_chunk(chunk):
    key, sep, value = chunk.partition("=")
    if not sep:
        return None
    # No base-10 int literal starts with a letter (``event=send`` on
    # every line): such a value is a string without raising to find out.
    if not value[:1].isalpha():
        try:
            value = int(value)
        except ValueError:
            pass
    return key, value
