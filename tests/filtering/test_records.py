"""Log record serialization round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering.records import format_record, parse_record_line, parse_trace


def test_round_trip_preserves_values():
    record = {"event": "send", "machine": 2, "pid": 2117, "destName": "inet:red:5"}
    line = format_record(record)
    assert parse_record_line(line) == record


def test_field_order_is_respected():
    record = {"b": 2, "a": 1, "c": 3}
    line = format_record(record, field_order=["a", "b", "c"])
    assert line == "a=1 b=2 c=3"


def test_extra_fields_appended_after_ordered_ones():
    record = {"z": 26, "a": 1}
    line = format_record(record, field_order=["a", "missing"])
    assert line == "a=1 z=26"


def test_parse_coerces_integers_only():
    record = parse_record_line("pid=7 name=inet:red:5 flag=0x10")
    assert record["pid"] == 7
    assert record["name"] == "inet:red:5"
    assert record["flag"] == "0x10"  # not a plain int


def test_parse_trace_skips_blank_lines():
    text = "a=1\n\nb=2\n"
    assert parse_trace(text) == [{"a": 1}, {"b": 2}]


def test_empty_value_field():
    line = format_record({"destName": "", "pid": 1}, field_order=["pid", "destName"])
    parsed = parse_record_line(line)
    assert parsed["destName"] == ""
    assert parsed["pid"] == 1


def _reference_line(line):
    """The line parser before its chunk memo: every chunk partitioned
    and converted on its own."""
    record = {}
    for chunk in line.split():
        key, sep, value = chunk.partition("=")
        if not sep:
            continue
        if not value[:1].isalpha():
            try:
                value = int(value)
            except ValueError:
                pass
        record[key] = value
    return record


def _reference_trace(text):
    return [
        _reference_line(line)
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


_values = st.one_of(
    st.sampled_from(
        ["7", "-5", "+5", "1_0", "_1", "1__0", "-", "+", "_", "", "0x10",
         "\u0663\u0664", "\uff17", "-\u0663", "send", "a=b", "=", "007",
         "inet:red:5100"]
    ),
    st.integers().map(str),
    st.text(max_size=4),
)
_chunks = st.one_of(
    st.tuples(st.sampled_from(["pid", "a", "b", "k"]), _values).map("=".join),
    st.sampled_from(["bare", "#", "x==1", "=7", "==", "a=b=c"]),
)
_lines = st.one_of(
    st.lists(_chunks, max_size=8).map(" ".join),
    st.sampled_from(["#batch 1 2 3", "  # note pid=4", "", "   "]),
)


@given(st.lists(_lines, max_size=30))
@settings(max_examples=300)
def test_memoised_parse_matches_reference(lines):
    text = "\n".join(lines)
    got = parse_trace(text)
    expected = _reference_trace(text)
    assert [list(record) for record in got] == [list(r) for r in expected]
    assert got == expected
    for record, reference in zip(got, expected):
        for key, value in record.items():
            assert type(value) is type(reference[key])
    if got:
        got[0].clear()
        got[0]["pid"] = "mutated"
        assert got[1:] == expected[1:]
        assert parse_trace(text)[0] == expected[0]
