"""Selection rules / templates (Figures 3.3 and 3.4).

A templates file holds one rule per line; a rule is a comma-separated
conjunction of conditions ``field OP value`` with OP one of
``> < = != >= <=``.  A record is accepted if it matches *any* rule.

Value forms:

- an integer literal: ``cpuTime<10000``
- a name/display string: ``destName=inet:blue:4000``
- the wildcard ``*`` ("matches any value")
- another field name: ``sockName=peerName`` (cross-field comparison)
- any of the above prefixed with the discard character ``#``: the
  condition matches as usual, and "if an event record is accepted by
  the filter, any fields with this value prefix will be discarded"
  (reduction).

Field name ``type`` is accepted as an alias for the header's
``traceType``, matching the figures' spelling, and may also be compared
against event names ("type=send").

There are two evaluators and one meaning.  Dict-shaped callers (the
filter's lane for edited descriptions, watch queries, store-scan
fallbacks, the offline CLI) run :meth:`RuleSet.apply`: rules pinned to
one event type by a ``type=`` equality condition are filed in a
dispatch table keyed by ``traceType`` so only candidate rules are
consulted per record, and each candidate is decided by
:meth:`Rule.matches` walking its conditions.  The shipped descriptions'
live filter and the store scan lower the same candidate lists to
generated column programs (:mod:`repro.tracestore.batchscan`).
:meth:`RuleSet.apply_interpreted` -- the same first-match walk over
every rule in file order, no dispatch -- is the reference both are
tested against and the ``compiled=False`` baseline of the hot-path
benchmark.  A field a reduction discarded is *absent*: no condition on
it holds, the wildcard included.
"""

from repro.metering.messages import EVENT_NAMES, EVENT_TYPES

_OPERATORS = ("<=", ">=", "!=", "<", ">", "=")

_ALIASES = {"type": "traceType"}


class Condition:
    """One ``field OP value`` clause.  ``ref`` is the record field a
    cross-field reference names (alias resolved), None for a literal."""

    __slots__ = ("field", "op", "value", "discard", "is_wildcard", "ref")

    def __init__(self, field, op, value):
        self.field = _ALIASES.get(field, field)
        self.op = op
        self.discard = False
        if isinstance(value, str) and value.startswith("#"):
            self.discard = True
            value = value[1:]
        self.is_wildcard = value == "*"
        self.ref = None
        if not self.is_wildcard:
            value = self._coerce(value)
        self.value = value

    def _coerce(self, value):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
        if value in EVENT_TYPES and self.field == "traceType":
            return EVENT_TYPES[value]
        # A bare identifier naming another record field is a cross-field
        # reference; anything else is a literal string (e.g. a name).
        if isinstance(value, str) and value.isidentifier():
            self.ref = _ALIASES.get(value, value)
        return value

    def matches(self, record):
        if self.field not in record:
            return False
        if self.is_wildcard:
            return True
        expected = self.value
        if self.ref is not None:
            # A reference the record lacks compares as the literal string.
            expected = record.get(self.ref, expected)
        return self._compare(record[self.field], expected)

    def _compare(self, actual, expected):
        # Numbers compare numerically; mixed types compare as strings.
        if not (isinstance(actual, int) and isinstance(expected, int)):
            actual, expected = str(actual), str(expected)
        if self.op == "=":
            return actual == expected
        if self.op == "!=":
            return actual != expected
        if self.op == "<":
            return actual < expected
        if self.op == ">":
            return actual > expected
        if self.op == "<=":
            return actual <= expected
        return actual >= expected  # ">="

    def to_text(self):
        value = self.value
        if self.is_wildcard:
            value = "*"
        return "{0}{1}{2}{3}".format(
            self.field, self.op, "#" if self.discard else "", value
        )

    def __repr__(self):
        return "Condition({0})".format(self.to_text())


class Rule:
    """A conjunction of conditions; one line of the templates file."""

    def __init__(self, conditions):
        self.conditions = list(conditions)
        #: Fields dropped from a record this rule accepts.
        self.discards = frozenset(
            cond.field for cond in self.conditions if cond.discard
        )

    def matches(self, record):
        for cond in self.conditions:
            if not cond.matches(record):
                return False
        return True

    def discard_fields(self):
        return self.discards

    def pinned_trace_types(self):
        """Integer ``traceType`` values this rule requires via equality
        conditions, or None if the rule is not pinned to a type."""
        pins = {
            cond.value
            for cond in self.conditions
            if cond.field == "traceType"
            and cond.op == "="
            and not cond.is_wildcard
            and cond.ref is None
            and isinstance(cond.value, int)
        }
        return pins or None

    def __repr__(self):
        return "Rule({0})".format(
            ", ".join(cond.to_text() for cond in self.conditions)
        )


def _first_match(rules, record):
    """``record`` as the first of ``rules`` that matches it saves it
    (reduced by that rule's discards), or None if none does."""
    for rule in rules:
        if rule.matches(record):
            discards = rule.discards
            if not discards:
                return record
            return {
                key: value
                for key, value in record.items()
                if key not in discards
            }
    return None


class RuleSet:
    """All rules of a templates file.

    :meth:`apply` returns the (possibly reduced) record to save, or
    None if no rule accepts it.  An empty rule set accepts everything
    unreduced (a filter with no templates just logs the full trace).

    With ``compiled=True`` (the default) rules pinned to one event
    type by a ``type=`` equality condition are filed once, at
    construction, in a dispatch table keyed by ``traceType``, so a
    record is only tested against rules that could possibly accept it
    (and the batch lane may lower those lists to column programs).
    First-matching-rule semantics are preserved by merging pinned and
    generic rules in their original file order.  ``compiled=False`` is
    the reference lane end to end: no dispatch table, no column
    program, every rule walked in file order (the benchmark baseline).
    """

    def __init__(self, rules, compiled=True):
        self.rules = list(rules)
        self.compiled = compiled
        self._generic = ()
        self._dispatch = {}
        if compiled:
            self._build_dispatch()

    def _build_dispatch(self):
        """Partition the rules into per-traceType candidate lists.

        A pinned rule can only accept records whose ``traceType``
        equals its pin numerically (int records) or textually (string
        records, per :meth:`Condition._compare`), so it is filed under
        both the int pin and ``str(pin)``.  Over-approximation is safe
        -- every candidate rule still runs its own checks -- but a rule
        must never be *excluded* from a type it could match.
        """
        generic = []  # (index, rule) pairs, original file order
        pinned = {}  # dispatch key -> [(index, rule), ...]
        for index, rule in enumerate(self.rules):
            pins = rule.pinned_trace_types()
            if pins is None:
                generic.append((index, rule))
            elif len(pins) == 1:
                (pin,) = pins
                for key in (pin, str(pin)):
                    pinned.setdefault(key, []).append((index, rule))
            # Contradictory pins (type=1, type=2) can never both hold:
            # the rule matches nothing and is filed nowhere.
        self._generic = tuple(rule for __, rule in generic)
        self._dispatch = {}
        for key, entries in pinned.items():
            merged = sorted(entries + generic, key=lambda pair: pair[0])
            self._dispatch[key] = tuple(rule for __, rule in merged)

    def candidates(self, trace_type):
        """The rules :meth:`apply` would consult for a record of
        ``trace_type``, in first-match order.  This is the dispatch
        the batch pre-screen compiles column programs from, so screen
        and apply can never disagree about rule order."""
        return self._dispatch.get(trace_type, self._generic)

    def pinned_events(self):
        """Event names that could ever be accepted, or None when a
        generic (unpinned) rule exists -- segment pushdown for rule
        scans.  An empty rule set accepts everything: also None."""
        if not self.rules or not self.compiled or self._generic:
            return None
        return {
            EVENT_NAMES[key]
            for key in self._dispatch
            if isinstance(key, int) and key in EVENT_NAMES
        }

    def apply(self, record):
        if not self.compiled:
            return self.apply_interpreted(record)
        if not self.rules:
            return record
        trace_type = record.get("traceType")
        if not isinstance(trace_type, int):
            trace_type = str(trace_type)
        return _first_match(self.candidates(trace_type), record)

    def apply_interpreted(self, record):
        """Every rule walked in file order, no dispatch (reference
        semantics; also the benchmark baseline)."""
        if not self.rules:
            return record
        return _first_match(self.rules, record)

    def __len__(self):
        return len(self.rules)


def _parse_condition(text):
    text = text.strip()
    for op in _OPERATORS:
        idx = text.find(op)
        if idx > 0:
            field = text[:idx].strip()
            value = text[idx + len(op) :].strip()
            if not value:
                raise ValueError("missing value in condition %r" % text)
            return Condition(field, op, value)
    raise ValueError("no operator in condition %r" % text)


def parse_rules(text, compiled=True):
    """Parse a templates file into a :class:`RuleSet`."""
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        conditions = [
            _parse_condition(chunk)
            for chunk in line.split(",")
            if chunk.strip()
        ]
        if conditions:
            rules.append(Rule(conditions))
    return RuleSet(rules, compiled=compiled)


#: The default templates file installed on every machine: one wildcard
#: rule that accepts every record without reduction.
DEFAULT_TEMPLATES_TEXT = "machine=*\n"
