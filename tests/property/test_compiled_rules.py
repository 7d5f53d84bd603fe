"""Type dispatch == file-order walk.

:meth:`RuleSet.apply` consults only the rules filed under a record's
``traceType``; :meth:`RuleSet.apply_interpreted` walks every rule in
file order and stays as the semantic reference.  Both decide a rule by
:meth:`Rule.matches`, so the property is that filing loses and reorders
nothing -- over randomized records and rule files covering the Figures
3.3-3.4 forms: every operator, the ``*`` wildcard (also alone, as
wildcard-only rules), the ``#`` discard prefix, cross-field references,
and event-name values for ``type``.

A live record always has the five header fields (and the ``event``
tag), but one read back from a store may have lost any of them to a
reduction, so here header fields are optional too, like the body
fields that vary by event.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering.rules import parse_rules
from repro.metering.messages import EVENT_NAMES, EVENT_TYPES

_HEADER_FIELDS = ["size", "machine", "cpuTime", "procTime", "traceType"]
_BODY_FIELDS = [
    "pid",
    "pc",
    "sock",
    "newSock",
    "msgLength",
    "destName",
    "sockName",
    "peerName",
    "status",
]
_ALL_FIELDS = _HEADER_FIELDS + _BODY_FIELDS + ["type"]

_STRING_VALUES = ["inet:red:5100", "inet:blue:4000", "unix:/tmp/s", "send", ""]

_ops = st.sampled_from(["=", "!=", "<", ">", "<=", ">="])

_field_values = st.one_of(
    st.integers(min_value=-50, max_value=10_000),
    st.sampled_from(_STRING_VALUES),
)


@st.composite
def _records(draw):
    trace_type = draw(
        st.one_of(
            st.integers(min_value=0, max_value=12),
            st.sampled_from(["1", "8", "send"]),  # degenerate but legal dicts
        )
    )
    record = {
        "size": draw(st.integers(min_value=24, max_value=100)),
        "machine": draw(st.integers(min_value=0, max_value=6)),
        "cpuTime": draw(st.integers(min_value=0, max_value=100_000)),
        "procTime": draw(st.integers(min_value=0, max_value=10_000)),
        "traceType": trace_type,
        "event": EVENT_NAMES.get(trace_type, "unknown"),
    }
    for field in draw(st.sets(st.sampled_from(_HEADER_FIELDS), max_size=2)):
        del record[field]
    body = draw(
        st.dictionaries(st.sampled_from(_BODY_FIELDS), _field_values, max_size=6)
    )
    record.update(body)
    return record


@st.composite
def _rule_texts(draw):
    n_conditions = draw(st.integers(min_value=1, max_value=4))
    conditions = []
    for __ in range(n_conditions):
        field = draw(st.sampled_from(_ALL_FIELDS))
        op = draw(_ops)
        discard = draw(st.booleans())
        kind = draw(
            st.sampled_from(["int", "wildcard", "fieldref", "string", "event"])
        )
        if kind == "wildcard":
            value = "*"
        elif kind == "int":
            value = str(draw(st.integers(min_value=-50, max_value=10_000)))
        elif kind == "fieldref":
            value = draw(st.sampled_from(_ALL_FIELDS))
        elif kind == "event":
            value = draw(st.sampled_from(sorted(EVENT_TYPES)))
        else:
            value = draw(st.sampled_from([v for v in _STRING_VALUES if v]))
        conditions.append(
            "{0}{1}{2}{3}".format(field, op, "#" if discard else "", value)
        )
    return ", ".join(conditions)


_wildcard_only = st.lists(
    st.sampled_from(_HEADER_FIELDS + ["pid"]), min_size=1, max_size=3
).map(lambda fields: ", ".join(field + "=*" for field in fields))

_rule_files = st.lists(
    st.one_of(_rule_texts(), _wildcard_only), min_size=0, max_size=6
).map("\n".join)


@given(_records(), _rule_files)
@settings(max_examples=400)
def test_compiled_equals_interpreted(record, rules_text):
    """Same accept/reject decision, same saved record, same discard
    mask, for every record and rule file, between a dispatching rule
    set and a ``compiled=False`` one."""
    compiled = parse_rules(rules_text)
    interpreted = parse_rules(rules_text, compiled=False)
    got = compiled.apply(dict(record))
    want = interpreted.apply(dict(record))
    assert got == want
    if got is not None:
        assert set(record) - set(got) == set(record) - set(want)


@given(_records(), _rule_files)
@settings(max_examples=200)
def test_apply_interpreted_is_the_reference_on_one_set(record, rules_text):
    """A single dispatching RuleSet agrees with its own file-order
    walk (no reliance on parse order or separate parsing)."""
    rules = parse_rules(rules_text)
    assert rules.apply(dict(record)) == rules.apply_interpreted(dict(record))


@given(_records())
@settings(max_examples=100)
def test_default_wildcard_template_accepts_everything(record):
    """...that has a ``machine``: a discarded field matches nothing."""
    rules = parse_rules("machine=*\n")
    assert rules.apply(dict(record)) == (
        record if "machine" in record else None
    )
