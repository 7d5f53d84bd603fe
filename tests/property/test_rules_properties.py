"""Property tests for selection rules: reduction is sound, acceptance
is monotone in rule count."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering.records import format_record, parse_record_line
from repro.filtering.rules import Rule, RuleSet, parse_rules

_FIELDS = ["machine", "pid", "sock", "msgLength", "cpuTime", "traceType"]

_records = st.fixed_dictionaries(
    {field: st.integers(min_value=0, max_value=10_000) for field in _FIELDS}
)

_ops = st.sampled_from(["=", "!=", "<", ">", "<=", ">="])


@st.composite
def _rule_texts(draw):
    n_conditions = draw(st.integers(min_value=1, max_value=4))
    conditions = []
    for __ in range(n_conditions):
        field = draw(st.sampled_from(_FIELDS))
        op = draw(_ops)
        discard = draw(st.booleans())
        wildcard = draw(st.booleans())
        if wildcard:
            value = "*"
            op = "="
        else:
            value = str(draw(st.integers(min_value=0, max_value=10_000)))
        conditions.append(
            "{0}{1}{2}{3}".format(field, op, "#" if discard else "", value)
        )
    return ", ".join(conditions)


@given(_records, st.lists(_rule_texts(), min_size=0, max_size=5))
@settings(max_examples=200)
def test_saved_record_is_subset_of_original(record, rule_lines):
    rules = parse_rules("\n".join(rule_lines))
    saved = rules.apply(dict(record))
    if saved is not None:
        for key, value in saved.items():
            assert record[key] == value
        assert set(saved) <= set(record)


@given(_records, st.lists(_rule_texts(), min_size=1, max_size=5))
@settings(max_examples=200)
def test_adding_rules_never_rejects_previously_accepted(record, rule_lines):
    """Acceptance is a disjunction over rules: supersets of rules
    accept supersets of records."""
    rules_small = parse_rules("\n".join(rule_lines[:-1]))
    rules_big = parse_rules("\n".join(rule_lines))
    if rules_small.rules and rules_small.apply(dict(record)) is not None:
        assert rules_big.apply(dict(record)) is not None


@given(_records, _rule_texts())
@settings(max_examples=200)
def test_rule_matching_is_deterministic(record, rule_text):
    rules = parse_rules(rule_text)
    first = rules.apply(dict(record))
    second = rules.apply(dict(record))
    assert first == second


@given(_records, _rule_texts())
@settings(max_examples=200)
def test_discards_only_remove_marked_fields(record, rule_text):
    rules = parse_rules(rule_text)
    saved = rules.apply(dict(record))
    if saved is None:
        return
    rule = rules.rules[0]
    if rule.matches(record):
        discarded = set(record) - set(saved)
        assert discarded <= rule.discard_fields()


@given(_records)
@settings(max_examples=100)
def test_log_line_round_trip(record):
    line = format_record(record)
    assert parse_record_line(line) == record


def _int_else_string(line):
    """``parse_record_line``'s rule before it stopped trying ``int`` on
    values that start with a letter."""
    record = {}
    for chunk in line.split():
        key, sep, value = chunk.partition("=")
        if sep:
            try:
                record[key] = int(value)
            except ValueError:
                record[key] = value
    return record


_values = st.one_of(
    st.sampled_from(
        ["+5", "-5", "1_0", "_1", "-", "+", "", " 7", "\u0663\u0664", "0x10",
         "send", "e5", "inf", "nan", "Infinity", "\u00e9t\u00e9", "7 ", "1e3"]
    ),
    st.text(max_size=6),
    st.integers().map(str),
)


@given(st.lists(st.tuples(st.text(alphabet="abk=", max_size=3), _values)))
@settings(max_examples=500)
def test_letter_shortcut_parses_what_int_else_string_parsed(tokens):
    line = " ".join("{0}={1}".format(key, value) for key, value in tokens)
    assert parse_record_line(line) == _int_else_string(line)


@given(_records, _rule_texts())
@settings(max_examples=200)
def test_rules_survive_serialization(record, rule_text):
    """Rendering conditions back to text parses to an equivalent rule."""
    rules = parse_rules(rule_text)
    rendered = "\n".join(
        ", ".join(cond.to_text() for cond in rule.conditions)
        for rule in rules.rules
    )
    reparsed = parse_rules(rendered)
    assert (rules.apply(dict(record)) is None) == (
        reparsed.apply(dict(record)) is None
    )
