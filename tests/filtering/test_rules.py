"""Selection rules (Figures 3.3 and 3.4)."""

import pytest

from repro.filtering.rules import RuleSet, parse_rules
from repro.metering.messages import EVENT_TYPES, MessageCodec
from repro.tracestore.batchscan import message_select

SEND_RECORD = {
    "event": "send",
    "size": 60,
    "machine": 0,
    "cpuTime": 5000,
    "procTime": 10,
    "traceType": 1,
    "pid": 2117,
    "pc": 9,
    "sock": 4,
    "msgLength": 700,
    "destNameLen": 8,
    "destName": "228320140",
}

ACCEPT_RECORD = {
    "event": "accept",
    "size": 80,
    "machine": 5,
    "cpuTime": 9000,
    "procTime": 0,
    "traceType": 8,
    "pid": 2118,
    "pc": 3,
    "sock": 4,
    "newSock": 5,
    "sockName": "inet:red:5000",
    "peerName": "inet:red:5000",
}


def test_figure_3_3_first_rule():
    """"machine=5, cpuTime<10000" matches records from machine 5 with
    cpuTime under 10000."""
    rules = parse_rules("machine=5, cpuTime<10000\n")
    assert rules.apply(ACCEPT_RECORD) is not None
    assert rules.apply(SEND_RECORD) is None  # machine 0
    too_late = dict(ACCEPT_RECORD, cpuTime=10000)
    assert rules.apply(too_late) is None


def test_figure_3_3_second_rule():
    """"machine=0, type=1, sock=4, destName=228320140"."""
    rules = parse_rules("machine=0, type=1, sock=4, destName=228320140\n")
    assert rules.apply(SEND_RECORD) is not None
    assert rules.apply(dict(SEND_RECORD, sock=5)) is None
    assert rules.apply(ACCEPT_RECORD) is None


def test_figure_3_4_wildcard_discard_rule():
    """"machine=#*, type=1, pid=#*, size>=512": wildcard matches any
    value; '#' discards the field from the saved record."""
    rules = parse_rules("machine=#*, type=1, pid=#*, msgLength>=512\n")
    saved = rules.apply(SEND_RECORD)
    assert saved is not None
    assert "machine" not in saved
    assert "pid" not in saved
    assert saved["msgLength"] == 700
    small = dict(SEND_RECORD, msgLength=100)
    assert rules.apply(small) is None


def test_figure_3_4_cross_field_rule():
    """"type=8, sockName=peerName": compare two fields of the record."""
    rules = parse_rules("type=8, sockName=peerName\n")
    assert rules.apply(ACCEPT_RECORD) is not None
    differing = dict(ACCEPT_RECORD, peerName="inet:green:9")
    assert rules.apply(differing) is None


def test_any_rule_accepts():
    rules = parse_rules("machine=5\nmachine=0\n")
    assert rules.apply(SEND_RECORD) is not None
    assert rules.apply(ACCEPT_RECORD) is not None
    assert rules.apply(dict(SEND_RECORD, machine=9)) is None


def test_empty_ruleset_accepts_everything_unreduced():
    rules = RuleSet([])
    assert rules.apply(SEND_RECORD) == SEND_RECORD


def test_all_comparison_operators():
    record = {"x": 10}
    cases = [
        ("x=10", True), ("x=9", False),
        ("x!=9", True), ("x!=10", False),
        ("x<11", True), ("x<10", False),
        ("x>9", True), ("x>10", False),
        ("x<=10", True), ("x<=9", False),
        ("x>=10", True), ("x>=11", False),
    ]
    for text, expected in cases:
        rules = parse_rules(text + "\n")
        assert (rules.apply(record) is not None) == expected, text


def test_type_alias_accepts_event_names():
    rules = parse_rules("type=send\n")
    assert rules.apply(SEND_RECORD) is not None
    assert rules.apply(ACCEPT_RECORD) is None


def test_wildcard_without_discard_keeps_field():
    rules = parse_rules("machine=*\n")
    saved = rules.apply(SEND_RECORD)
    assert saved["machine"] == 0


def test_discard_with_literal_value():
    rules = parse_rules("machine=#0\n")
    saved = rules.apply(SEND_RECORD)
    assert saved is not None and "machine" not in saved
    assert rules.apply(ACCEPT_RECORD) is None  # machine=5 no match


def test_missing_field_fails_the_condition():
    rules = parse_rules("newSock=5\n")
    assert rules.apply(SEND_RECORD) is None
    assert rules.apply(ACCEPT_RECORD) is not None


def test_string_name_comparison():
    rules = parse_rules("destName=228320140\n")
    assert rules.apply(SEND_RECORD) is not None


def test_first_matching_rule_controls_reduction():
    rules = parse_rules("machine=#*, type=1\nmachine=*\n")
    saved_send = rules.apply(SEND_RECORD)
    assert "machine" not in saved_send  # first rule matched
    saved_accept = rules.apply(ACCEPT_RECORD)
    assert "machine" in saved_accept  # second rule matched


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rules("this is not a rule\n")
    with pytest.raises(ValueError):
        parse_rules("x=\n")


def test_blank_lines_ignored():
    rules = parse_rules("\n\nmachine=0\n\n")
    assert len(rules) == 1


# ---------------------------------------------------------------------------
# The compiled engine: dispatch table, fast paths, interpreted parity.
# ---------------------------------------------------------------------------

DISPATCH_TEXT = """
type=8, sockName=peerName
type=1, msgLength>500
machine=5, cpuTime<100000
type=#10
"""


def test_compiled_matches_interpreted_on_fixtures():
    compiled = parse_rules(DISPATCH_TEXT)
    interpreted = parse_rules(DISPATCH_TEXT, compiled=False)
    for record in (SEND_RECORD, ACCEPT_RECORD):
        assert compiled.apply(record) == interpreted.apply(record)
        assert compiled.apply(record) == compiled.apply_interpreted(record)


def test_dispatch_table_partitions_by_trace_type():
    rules = parse_rules(DISPATCH_TEXT)
    # Three pinned types (8, 1, 10) plus their string forms; the
    # machine=5 rule stays generic and is merged into every list.
    assert set(rules._dispatch) == {1, "1", 8, "8", 10, "10"}
    assert len(rules._generic) == 1
    # First-match order is preserved in the merged per-type lists: for
    # type 1 the pinned msgLength rule precedes the generic rule.
    assert len(rules._dispatch[1]) == 2


def test_pinned_rule_not_consulted_for_other_types():
    rules = parse_rules("type=1, msgLength>500\n")
    # An accept record never reaches the send-pinned rule; with no
    # generic rules the candidate list is empty and the record drops.
    assert rules.apply(ACCEPT_RECORD) is None
    assert rules.apply(SEND_RECORD) == SEND_RECORD


def test_contradictory_type_pins_match_nothing():
    rules = parse_rules("type=1, type=2\nmachine=*\n")
    for record in (SEND_RECORD, ACCEPT_RECORD):
        assert rules.apply(record) == record  # via the wildcard rule
    only = parse_rules("type=1, type=2\n")
    assert only.apply(SEND_RECORD) is None
    assert only.apply_interpreted(SEND_RECORD) is None


def test_wildcard_only_rule_takes_accept_all_fast_path():
    rules = parse_rules("machine=*\n")
    assert rules.apply(SEND_RECORD) == SEND_RECORD
    # "Matches any value" of a field the record has: one that lost
    # machine to a reduction is rejected, on both walks.
    reduced = {k: v for k, v in SEND_RECORD.items() if k != "machine"}
    assert rules.apply(reduced) is None
    assert rules.apply_interpreted(reduced) is None
    # Every well-formed wire message carries the header, so the live
    # lane still accepts them all, unreduced.
    hosts = {1: "red"}
    codec = MessageCodec(hosts)
    select = message_select(rules, hosts)
    for event in sorted(EVENT_TYPES):
        raw = codec.encode(event, machine=1, cpu_time=7, proc_time=0)
        saved, mask, __, name = select(raw)
        assert (saved, mask, name) == (codec.decode(raw), 0, event)


def test_wildcard_over_body_field_is_not_accept_all():
    # msgLength only exists on send/receive records, so the wildcard
    # must still test presence.
    rules = parse_rules("msgLength=*\n")
    assert rules.apply(SEND_RECORD) == SEND_RECORD
    assert rules.apply(ACCEPT_RECORD) is None
    assert rules.apply_interpreted(ACCEPT_RECORD) is None


def test_wildcard_with_discard_still_reduces():
    rules = parse_rules("machine=*, pc=#*\n")
    saved = rules.apply(SEND_RECORD)
    assert "pc" not in saved
    assert saved == rules.apply_interpreted(SEND_RECORD)


def test_string_trace_type_reaches_pinned_rules():
    # _compare turns mixed types into strings, so a record carrying
    # traceType as "8" still matches a type=8 pin; the dispatch
    # table's str(pin) key keeps the compiled path equivalent.
    record = dict(ACCEPT_RECORD, traceType="8")
    rules = parse_rules("type=8\n")
    assert rules.apply(record) == record
    assert rules.apply_interpreted(record) == record
