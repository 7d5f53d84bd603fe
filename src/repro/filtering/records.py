"""Trace log record serialization.

Accepted event records are stored in the filter's log file as one text
line per record: space-separated ``key=value`` pairs, header fields
first, body fields in description order.  (The paper does not pin the
log format; a line-oriented text trace keeps getlog and the analysis
programs simple and the traces human-readable.)
"""


def format_record(record, field_order=None):
    """Render a record dict to its log line."""
    if field_order is None:
        keys = list(record)
    else:
        keys = [key for key in field_order if key in record]
        keys += [key for key in record if key not in keys]
    return " ".join("{0}={1}".format(key, record[key]) for key in keys)


def parse_record_line(line):
    """Parse a log line back into a record dict (ints where possible)."""
    record = {}
    for chunk in line.split():
        key, sep, value = chunk.partition("=")
        if not sep:
            continue
        # No base-10 int literal starts with a letter (``event=send`` on
        # every line): such a value is a string without raising to find out.
        if not value[:1].isalpha():
            try:
                value = int(value)
            except ValueError:
                pass
        record[key] = value
    return record


def parse_trace(text):
    """Parse a whole log file into a list of records.

    Lines starting with ``#`` are filter metadata (batch-commit
    markers such as ``#batch <machine> <pid> <seq>``), not records.
    """
    return [
        parse_record_line(line)
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
