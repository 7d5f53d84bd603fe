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

Dict-shaped callers (the filter's lane for edited descriptions, watch
queries, store-scan fallbacks) run :meth:`RuleSet.apply` once per
record, so the set is compiled at parse time: every condition becomes
a closure, every rule a tuple of closures, and rules pinned to one
event type by a ``type=`` equality condition go into a dispatch table
keyed by ``traceType`` so only candidate rules are consulted per
record.  (On the shipped descriptions the live filter and the store
scan go one step further and run the same candidate lists as generated
column programs -- :mod:`repro.tracestore.batchscan`.)  The
interpreted path (:meth:`Rule.matches` walking conditions) is kept both
as the semantic reference for the property tests and as the
``compiled=False`` baseline for the hot-path benchmark.
"""

import operator

from repro.metering.messages import EVENT_NAMES, EVENT_TYPES

_OPERATORS = ("<=", ">=", "!=", "<", ">", "=")

_ALIASES = {"type": "traceType"}

_OP_FUNCS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

_MISSING = object()


class Condition:
    """One ``field OP value`` clause."""

    __slots__ = ("field", "op", "value", "discard", "is_wildcard", "is_field_ref")

    def __init__(self, field, op, value):
        self.field = _ALIASES.get(field, field)
        self.op = op
        self.discard = False
        if isinstance(value, str) and value.startswith("#"):
            self.discard = True
            value = value[1:]
        self.is_wildcard = value == "*"
        self.is_field_ref = False
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
            self.is_field_ref = True
        return value

    def matches(self, record):
        if self.field not in record:
            return False
        actual = record[self.field]
        if self.is_wildcard:
            return True
        expected = self.value
        if self.is_field_ref:
            ref = _ALIASES.get(expected, expected)
            if ref in record:
                expected = record[ref]
            # else: treat as a literal string and fall through.
        return self._compare(actual, expected)

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

    def compile(self):
        """Return a ``record -> bool`` closure equivalent to
        :meth:`matches`."""
        field = self.field
        if self.is_wildcard:
            return lambda record: field in record
        op = _OP_FUNCS[self.op]
        if self.is_field_ref:
            ref = _ALIASES.get(self.value, self.value)
            literal = self.value

            def check_ref(record):
                actual = record.get(field, _MISSING)
                if actual is _MISSING:
                    return False
                expected = record.get(ref, _MISSING)
                if expected is _MISSING:
                    expected = literal
                if isinstance(actual, int) and isinstance(expected, int):
                    return op(actual, expected)
                return op(str(actual), str(expected))

            return check_ref
        if isinstance(self.value, int):
            value = self.value
            text = str(value)

            def check_int(record):
                actual = record.get(field, _MISSING)
                if actual is _MISSING:
                    return False
                if isinstance(actual, int):
                    return op(actual, value)
                return op(str(actual), text)

            return check_int
        value = str(self.value)

        def check_str(record):
            actual = record.get(field, _MISSING)
            if actual is _MISSING:
                return False
            return op(str(actual), value)

        return check_str

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

    def matches(self, record):
        return all(cond.matches(record) for cond in self.conditions)

    def discard_fields(self):
        return {cond.field for cond in self.conditions if cond.discard}

    def pinned_trace_types(self):
        """Integer ``traceType`` values this rule requires via equality
        conditions, or None if the rule is not pinned to a type."""
        pins = {
            cond.value
            for cond in self.conditions
            if cond.field == "traceType"
            and cond.op == "="
            and not cond.is_wildcard
            and not cond.is_field_ref
            and isinstance(cond.value, int)
        }
        return pins or None

    def compile(self):
        return _CompiledRule(self)

    def __repr__(self):
        return "Rule({0})".format(
            ", ".join(cond.to_text() for cond in self.conditions)
        )


#: Header fields present in every record the filter decodes; a rule
#: whose conditions are all wildcards over these fields accepts every
#: live record, so its compiled form can skip the checks entirely.
_ALWAYS_PRESENT = frozenset(
    ("size", "machine", "cpuTime", "procTime", "traceType", "event")
)


class _CompiledRule:
    """A :class:`Rule` lowered to closures.

    ``accepts_all`` marks the wildcard-only fast path: every condition
    is a wildcard over an always-present header field and nothing is
    discarded, so :meth:`RuleSet.apply` can accept the record without
    calling any check.

    ``matches`` is an instance attribute, not a method: a one-condition
    rule *is* its check closure (no extra call frame), a conjunction
    gets a closure walking the checks.
    """

    __slots__ = ("checks", "discards", "accepts_all", "matches", "rule")

    def __init__(self, rule):
        #: The source :class:`Rule`, kept so column-oriented planners
        #: (the trace store's batch pre-screen) can recompile the same
        #: conditions against a record layout instead of a dict.
        self.rule = rule
        self.discards = frozenset(rule.discard_fields())
        wildcard_only = all(cond.is_wildcard for cond in rule.conditions)
        self.accepts_all = (
            wildcard_only
            and not self.discards
            and all(
                cond.field in _ALWAYS_PRESENT for cond in rule.conditions
            )
        )
        if wildcard_only:
            # Collapse the conjunction into one membership sweep.
            fields = tuple({cond.field: None for cond in rule.conditions})
            self.checks = (
                lambda record: all(field in record for field in fields),
            )
        else:
            self.checks = tuple(cond.compile() for cond in rule.conditions)
        if len(self.checks) == 1:
            self.matches = self.checks[0]
        else:
            self.matches = self._conjunction(self.checks)

    @staticmethod
    def _conjunction(checks):
        def matches(record):
            for check in checks:
                if not check(record):
                    return False
            return True

        return matches


class RuleSet:
    """All rules of a templates file.

    :meth:`apply` returns the (possibly reduced) record to save, or
    None if no rule accepts it.  An empty rule set accepts everything
    unreduced (a filter with no templates just logs the full trace).

    With ``compiled=True`` (the default) the rules are lowered once at
    construction: conditions become closures and rules pinned to one
    event type by a ``type=`` equality condition are filed in a
    dispatch table keyed by ``traceType``, so a record is only tested
    against rules that could possibly accept it.  First-matching-rule
    semantics are preserved by merging pinned and generic rules in
    their original file order.  ``compiled=False`` keeps the
    interpreted per-condition walk (the benchmark baseline).
    """

    def __init__(self, rules, compiled=True):
        self.rules = list(rules)
        self.compiled = compiled
        self._generic = ()
        self._dispatch = {}
        if compiled:
            self._build_dispatch()

    def _build_dispatch(self):
        """Partition compiled rules into per-traceType candidate lists.

        A pinned rule can only accept records whose ``traceType``
        equals its pin numerically (int records) or textually (string
        records, per :meth:`Condition._compare`), so it is filed under
        both the int pin and ``str(pin)``.  Over-approximation is safe
        -- every candidate rule still runs its own checks -- but a rule
        must never be *excluded* from a type it could match.
        """
        generic = []  # (index, compiled) pairs, original file order
        pinned = {}  # dispatch key -> [(index, compiled), ...]
        for index, rule in enumerate(self.rules):
            compiled = rule.compile()
            pins = rule.pinned_trace_types()
            if pins is None:
                generic.append((index, compiled))
            elif len(pins) == 1:
                (pin,) = pins
                for key in (pin, str(pin)):
                    pinned.setdefault(key, []).append((index, compiled))
            # Contradictory pins (type=1, type=2) can never both hold:
            # the rule matches nothing and is filed nowhere.
        self._generic = tuple(compiled for __, compiled in generic)
        self._dispatch = {}
        for key, entries in pinned.items():
            merged = sorted(entries + generic, key=lambda pair: pair[0])
            self._dispatch[key] = tuple(compiled for __, compiled in merged)

    def candidates(self, trace_type):
        """The compiled rules :meth:`apply` would consult for a record
        of ``trace_type``, in first-match order.  This is the dispatch
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
        candidates = self._dispatch.get(trace_type, self._generic)
        for rule in candidates:
            if rule.accepts_all or rule.matches(record):
                discards = rule.discards
                if not discards:
                    return record
                return {
                    key: value
                    for key, value in record.items()
                    if key not in discards
                }
        return None

    def apply_interpreted(self, record):
        """The original per-condition interpretation of the rule file
        (reference semantics; also the benchmark baseline)."""
        if not self.rules:
            return record
        for rule in self.rules:
            if rule.matches(record):
                discards = rule.discard_fields()
                if not discards:
                    return record
                return {
                    key: value
                    for key, value in record.items()
                    if key not in discards
                }
        return None

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
