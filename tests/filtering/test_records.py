"""Log record serialization round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering import records
from repro.filtering.descriptions import parse_descriptions
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


def test_a_key_the_order_names_twice_is_written_once():
    # parse_descriptions accepts an edited file that lists a field
    # twice, so its field_order names the key twice; the line still
    # carries it once.
    descriptions = parse_descriptions("SEND 1, pid,0,4,10 pid,0,4,10 pc,4,4,10")
    order = descriptions.field_order("send")
    assert order.count("pid") == 2
    record = {"event": "send", "pc": 9, "pid": 7, "extra": 1}
    assert format_record(record, order) == "event=send pid=7 pc=9 extra=1"
    assert format_record(record, ["pid", "pid"]) == "pid=7 event=send pc=9 extra=1"


def test_parse_coerces_integers_only():
    record = parse_record_line("pid=7 name=inet:red:5 flag=0x10")
    assert record["pid"] == 7
    assert record["name"] == "inet:red:5"
    assert record["flag"] == "0x10"  # not a plain int


def test_parse_trace_skips_blank_lines():
    text = "a=1\n\nb=2\n"
    assert parse_trace(text) == [{"a": 1}, {"b": 2}]


def test_a_chunk_with_no_equals_sign_is_skipped_in_place():
    """A pair-less chunk leaves no key behind (the memo's stand-in key
    None included), and the keys around it keep their order."""
    assert list(parse_record_line("b=1 bare a=2 # b=3").items()) == [
        ("b", 3), ("a", 2)
    ]
    assert parse_trace("a=1 c=2\nbare\nc=3 7 a=4\n") == [
        {"a": 1, "c": 2}, {}, {"c": 3, "a": 4}
    ]
    assert [list(record) for record in parse_trace("c=3 x a=4\n")] == [["c", "a"]]


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
#: Every line boundary ``str.splitlines`` knows, ``\r\n`` included.
_separators = st.sampled_from(
    ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
     "\u2028", "\u2029"]
)
#: Whitespace ``str.strip`` removes, Unicode spaces among it.
_blanks = st.text(alphabet=" \t\u00a0\u3000\x1f", min_size=1, max_size=3)
_keys = st.sampled_from(["pid", "a", "b", "k", ""])
_chunks = st.one_of(
    st.tuples(_keys, _values).map("=".join),
    # No ``=`` at all; an empty key, value or both; more than one ``=``.
    st.sampled_from(["bare", "#", "x==1", "=7", "==", "a=b=c", "=", "pid=",
                     "=send", "7"]),
)
#: A line that names one key twice or more (the last value wins).
_repeats = st.tuples(_keys, st.lists(_values, min_size=2, max_size=3)).map(
    lambda drawn: " ".join(drawn[0] + "=" + value for value in drawn[1])
)
#: Lines whose every chunk holds an ``=`` ...
_clean = st.one_of(
    st.lists(st.tuples(_keys, _values).map("=".join), min_size=1, max_size=8)
    .map(" ".join),
    _repeats,
)
#: ... and lines with a chunk that has none.
_pairless = st.tuples(
    st.lists(_chunks, max_size=3),
    st.sampled_from(["bare", "#", "7", "x"]),
    st.lists(_chunks, max_size=3),
).map(lambda drawn: " ".join(drawn[0] + [drawn[1]] + drawn[2]))
_lines = st.one_of(
    st.lists(_chunks, max_size=8).map(" ".join),
    _clean,
    _pairless,
    st.sampled_from(["#batch 1 2 3", "  # note pid=4", "", "   "]),
    # Whitespace, ASCII or not, before a ``#`` or a record.
    st.tuples(_blanks, st.sampled_from(["#batch 1 2 3", "# x", "pid=4 a=b"]))
    .map("".join),
    _blanks,
    # A separator inside what was meant as one line.
    st.tuples(st.lists(_chunks, max_size=3).map(" ".join), _separators,
              st.sampled_from(["#batch 1", " # pid=1", "pid=2", ""]))
    .map("".join),
)


#: One call's text holding clean lines and at least one pair-less line,
#: so a chunk the memo maps to None comes after records already parsed.
_mixed = st.tuples(
    st.lists(_clean, min_size=1, max_size=6),
    _pairless,
    st.lists(st.one_of(_clean, _lines), max_size=6),
).map(lambda drawn: [*drawn[0], drawn[1], *drawn[2]])
_texts = st.one_of(
    st.lists(st.tuples(_lines, _separators), max_size=30),
    st.tuples(_mixed, _separators).map(
        lambda drawn: [(line, drawn[1]) for line in drawn[0]]
    ),
)


@given(_texts)
@settings(max_examples=400)
def test_memoised_parse_matches_reference(lines):
    """``parse_trace``'s one ``dict(filter(None, map(...)))`` per line
    over the call's chunk memo gives what a parse with no memo gives,
    pair-less chunks, empty keys and repeated keys among the lines."""
    text = "".join(line + separator for line, separator in lines)
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


def test_chunk_memo_does_not_outlive_a_call(monkeypatch):
    """Each call parses its chunks afresh: a memo kept across calls
    would let a repeated parse of one log read a warm cache."""
    parsed = []
    missing = records._Chunks.__missing__
    monkeypatch.setattr(
        records._Chunks, "__missing__",
        lambda memo, chunk: parsed.append(chunk) or missing(memo, chunk),
    )
    text = "a=1 b=2\na=1 b=3\n"
    parse_trace(text)
    parse_trace(text)
    assert parsed == ["a=1", "b=2", "b=3"] * 2
