"""Property: a text write's one ``#batch`` line per process loses no
recovery evidence.

A text filter buffers committed batches in a
:class:`~repro.filtering.standard.TextLogBuffer` and writes the buffer
in one atomic write; each write keeps only the ``#batch`` line of each
process's last batch in it.  Over random interleavings of a few
processes' batches, random rejections (a batch whose every record is
rejected commits nothing) and random write points, the log holds the
same records as one that keeps a line per batch, recovery reads the
same highest seq per process, and every ``#batch`` line directly
follows a record of its own process.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering.records import format_record, parse_record_line, parse_trace
from repro.filtering.standard import (
    TextLogBuffer,
    format_batch_line,
    parse_batch_line,
    recover_text_seqs,
)

PROCESSES = ((1, 100), (1, 101), (2, 100))

_step = st.one_of(
    st.tuples(
        st.just("batch"),
        st.integers(min_value=0, max_value=len(PROCESSES) - 1),
        st.lists(st.booleans(), min_size=1, max_size=4),  # accepted?
    ),
    st.just(("write",)),
)


def _run(steps):
    """The buffered log's writes, and the one-line-per-batch log."""
    buffer = TextLogBuffer()
    seqs = dict.fromkeys(PROCESSES, 0)
    writes = []
    reference = []
    pc = 0
    for step in steps + [("write",)]:
        if step[0] == "write":
            if buffer.lines:
                expected = buffer.nbytes
                data = buffer.take()
                assert len(data) == expected
                writes.append(data.decode("ascii"))
            continue
        key = PROCESSES[step[1]]
        seq = seqs[key]
        seqs[key] += 1
        lines = []
        for accepted in step[2]:
            pc += 1
            if accepted:
                record = {"machine": key[0], "pid": key[1], "event": "send", "pc": pc}
                lines.append(format_record(record))
        if lines:
            buffer.commit(lines, key, seq)
            reference.extend(lines + [format_batch_line(key[0], key[1], seq)])
    return writes, "".join(line + "\n" for line in reference)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_step, max_size=30))
def test_one_batch_line_per_process_per_write_keeps_records_and_seqs(steps):
    writes, reference = _run(steps)
    text = "".join(writes)
    assert parse_trace(text) == parse_trace(reference)
    assert recover_text_seqs(text) == recover_text_seqs(reference)
    for write in writes:
        lines = write.splitlines()
        keys = []
        for before, line in zip([None] + lines, lines):
            marker = parse_batch_line(line)
            if marker is None:
                continue
            keys.append(marker[:2])
            assert before is not None
            record = parse_record_line(before)
            assert (record["machine"], record["pid"]) == marker[:2]
        assert len(keys) == len(set(keys))
        assert lines[-1].startswith("#batch")
