"""Automatic schedule shrinking: ddmin over fault events.

Given a failing schedule and a deterministic failure predicate
(``fails(plan) -> bool``), :func:`shrink_plan` reduces the schedule to
a 1-minimal failing core:

1. **Move dropping** -- classic delta debugging (Zeller's ddmin) over
   the plan's moves (:meth:`FaultPlan.moves`: an outage and the
   recovery that closes it are one move, so a healed partition is
   never shrunk to its unhealed half): try dropping chunks, then
   complements, halving granularity until no single move can be
   removed.  A probe keeps its events in declaration order, so the
   result is a subsequence of the original schedule and opens no
   outage the original closed.
2. **Parameter narrowing** -- for each surviving event, try a ladder of
   simpler parameter values (``flips`` down to 1, ``drop_bytes`` down
   to 1, ``loss`` down the ladder) and snap timestamps onto coarse
   grids, keeping a change only when the schedule still fails.  This
   phase never reorders (in firing order), adds, or removes events, so
   the moves stay the same moves.

Everything is deterministic: candidate order is fixed, the predicate is
assumed pure (chaos runs are seeded simulations), and the probe budget
bounds the worst case.  Every probe's plan and outcome is recorded in
the result's ``history`` for post-mortems.
"""

from repro.faults.plan import FaultPlan

#: The one probe budget of every shrink (``chaos shrink --max-probes``
#: and ``search(max_shrink_probes=...)`` override it).
MAX_PROBES = 200


class ShrinkResult:
    """The minimal failing schedule plus how it was found."""

    def __init__(self, plan, original_events, probes, history):
        self.plan = plan
        self.original_events = original_events
        self.probes = probes
        self.history = history

    @property
    def final_events(self):
        return len(self.plan)

    def summary(self):
        return (
            "shrunk {0} -> {1} event(s) in {2} probe(s)".format(
                self.original_events, self.final_events, self.probes
            )
        )


class _Prober:
    """Counts probes, enforces the budget, memoizes by canonical form."""

    def __init__(self, fails, machines, max_probes):
        self.fails = fails
        self.machines = machines
        self.max_probes = max_probes
        self.probes = 0
        self.history = []
        self._seen = {}

    def plan_of(self, entries):
        return FaultPlan.from_jsonable(entries, machines=self.machines)

    def failing(self, entries):
        plan = self.plan_of(entries)
        key = plan.to_json()
        if key in self._seen:
            return self._seen[key]
        if self.probes >= self.max_probes:
            # Budget exhausted: treat as passing so the shrink keeps
            # its current (known-failing) candidate and terminates.
            return False
        self.probes += 1
        outcome = bool(self.fails(plan))
        self._seen[key] = outcome
        self.history.append({"events": len(entries), "failed": outcome})
        return outcome


def _ddmin(entries, moves, prober):
    """Zeller's ddmin over whole moves: returns the entries of a
    1-minimal failing set of moves, in declaration order."""

    def flat(chosen):
        return [entries[i] for i in sorted(i for move in chosen for i in move)]

    granularity = 2
    while len(moves) >= 2:
        chunk = max(1, len(moves) // granularity)
        reduced = False
        # Subsets first (big jumps), then complements (at granularity
        # 2 the two coincide).
        candidates = []
        for start in range(0, len(moves), chunk):
            candidates.append(moves[start : start + chunk])
        if granularity > 2:
            for start in range(0, len(moves), chunk):
                candidates.append(moves[:start] + moves[start + chunk :])
        for candidate in candidates:
            if len(candidate) == len(moves) or not candidate:
                continue
            if prober.failing(flat(candidate)):
                moves = candidate
                granularity = 2
                reduced = True
                break
        if not reduced:
            if granularity >= len(moves):
                break
            granularity = min(len(moves), granularity * 2)
    return flat(moves)


_PARAM_LADDERS = {
    "flips": (1, 2),
    "drop_bytes": (1, 8, 32),
    "loss": (1.0, 0.5, 0.25),
    "extra_ms": (5.0, 10.0),
    "duration_ms": (50.0, 100.0),
}

_TIME_GRIDS = (100.0, 20.0)


def _narrow_parameters(entries, prober):
    """Per-event parameter and timestamp simplification; keeps only
    changes under which the schedule still fails."""
    for index in range(len(entries)):
        for key, ladder in _PARAM_LADDERS.items():
            current = entries[index].get(key)
            if current is None:
                continue
            for value in ladder:
                if value == current:
                    break
                candidate = [dict(entry) for entry in entries]
                candidate[index][key] = value
                if prober.failing(candidate):
                    entries = candidate
                    break
    for grid in _TIME_GRIDS:
        for index in range(len(entries)):
            snapped = float(int(entries[index]["at_ms"] / grid) * grid)
            if snapped == entries[index]["at_ms"]:
                continue
            candidate = [dict(entry) for entry in entries]
            candidate[index]["at_ms"] = snapped
            # Snapping must not reorder the schedule's firing order
            # (which would re-pair its outages and recoveries).
            if _firing_order(candidate) != _firing_order(entries):
                continue
            if prober.failing(candidate):
                entries = candidate
    return entries


def _firing_order(entries):
    return sorted(
        range(len(entries)), key=lambda i: (entries[i]["at_ms"], i)
    )


def shrink_plan(plan, fails, max_probes=MAX_PROBES, narrow=True):
    """Reduce ``plan`` to a minimal schedule for which ``fails`` still
    holds.  ``fails`` receives a :class:`FaultPlan` and must be
    deterministic.  Raises ``ValueError`` if the input plan does not
    fail (nothing to shrink)."""
    entries = plan.to_jsonable()
    prober = _Prober(fails, plan.machines, max_probes)
    if not prober.failing(entries):
        raise ValueError("plan does not fail its oracle; nothing to shrink")
    entries = _ddmin(entries, plan.moves(), prober)
    if narrow:
        entries = _narrow_parameters(entries, prober)
    return ShrinkResult(
        plan=prober.plan_of(entries),
        original_events=len(plan),
        probes=prober.probes,
        history=prober.history,
    )


def is_subsequence(shrunk, original):
    """True when ``shrunk``'s event sequence (kind + targets) appears
    in order within ``original`` -- the shrinker's soundness invariant
    (narrowing may retime events or simplify their numeric parameters,
    but never invents, reorders, or retargets them)."""

    _TARGET_KEYS = ("machine", "program", "path_prefix", "groups")

    def identity(event):
        return (event.kind,) + tuple(
            event.args.get(key) for key in _TARGET_KEYS
        )

    remaining = [identity(event) for event in original.events]
    for event in shrunk.events:
        needle = identity(event)
        while remaining and remaining[0] != needle:
            remaining.pop(0)
        if not remaining:
            return False
        remaining.pop(0)
    return True
