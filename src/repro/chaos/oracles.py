"""Invariant oracles: what must stay true of a chaos run.

Each oracle is a named predicate over a :class:`RunResult` (and the
fault-free baseline run of the same scenario and seed).  Oracles
declare *applicability*: record-identity against the baseline only
means something when every injected fault is one the self-healing
machinery promises to absorb (PR 5's guarantee), so storage damage and
machine crashes switch the suite to the weaker truths that must hold
unconditionally -- accounted loss, lane equivalence, monotone clocks,
at-most-once death reporting.

The suite reuses the repo's existing checking machinery rather than
reimplementing it: PR 5's record multiset, PR 6's fsck/salvage
accounting, PR 8's replay-vs-batch digests, PR 9's fast-lane scan, and
PR 2's vector clocks.

A verdict is JSON-native and deterministic: same run artifacts => the
same verdict, byte for byte (the determinism contract the chaos CI job
asserts end to end).
"""

from repro.chaos.scenario import fast_lane_records
from repro.faults.plan import DESTRUCTIVE_KINDS, STORAGE_KINDS


class Oracle:
    """One invariant: a name, an applicability test, and a checker
    returning violation strings (empty list = holds)."""

    def __init__(self, name, check, applies=None, needs_baseline=False):
        self.name = name
        self._check = check
        self._applies = applies
        self.needs_baseline = needs_baseline

    def applies(self, run):
        return True if self._applies is None else self._applies(run)

    def check(self, run, baseline):
        return self._check(run, baseline)


def _recoverable_only(run):
    kinds = run.plan_kinds()
    return not (kinds & (STORAGE_KINDS | DESTRUCTIVE_KINDS))


def _no_crash(run):
    return not (run.plan_kinds() & DESTRUCTIVE_KINDS)


def _has_store(run):
    return not run.store_missing


# ----------------------------------------------------------------------
# The invariants
# ----------------------------------------------------------------------


def _check_session_alive(run, baseline):
    problems = []
    if not run.controller_alive:
        problems.append("controller dead at end of run")
    if run.store_missing:
        problems.append("filter never produced a trace store")
    return problems


def _check_workload_completed(run, baseline):
    problems = []
    for program, expected in sorted(run.scenario.expected_procs.items()):
        got = run.normal_exits.get(program, 0)
        if got != expected:
            problems.append(
                "{0}: {1}/{2} processes exited normally".format(
                    program, got, expected
                )
            )
    return problems


def _check_baseline_identical(run, baseline):
    """PR 5's oracle, generalized: a recoverable fault costs
    retransmission, never records."""
    problems = []
    if run.strict_error is not None:
        problems.append("strict scan failed: {0}".format(run.strict_error))
        return problems
    want = baseline.record_multiset()
    got = run.record_multiset()
    missing = want - got
    extra = got - want
    if missing:
        problems.append(
            "{0} record(s) lost, e.g. {1!r}".format(
                sum(missing.values()), sorted(missing)[:3]
            )
        )
    if extra:
        problems.append(
            "{0} record(s) duplicated or invented, e.g. {1!r}".format(
                sum(extra.values()), sorted(extra)[:3]
            )
        )
    return problems


def _check_no_invented_records(run, baseline):
    """Storage damage may *lose* records (accounted elsewhere) but must
    never mint ones the fault-free run did not produce."""
    extra = run.record_multiset() - baseline.record_multiset()
    if extra:
        return [
            "{0} record(s) not in the fault-free baseline, e.g. {1!r}".format(
                sum(extra.values()), sorted(extra)[:3]
            )
        ]
    return []


def _check_store_accounted(run, baseline):
    """PR 6's guarantee: damage is either absent or *accounted* --
    never a silently different record stream."""
    problems = []
    if run.salvage_stats is None:
        return ["salvage scan never ran"]
    if run.fsck_report is None:
        return ["fsck never ran"]
    clean = run.fsck_report["clean"]
    if run.strict_error is not None and clean:
        problems.append(
            "strict scan failed ({0}) but fsck calls the store "
            "clean".format(run.strict_error)
        )
    if (
        run.strict_error is None
        and clean
        and not run.salvage_stats.loss_free()
    ):
        problems.append(
            "store reads clean but the salvage ledger shows loss "
            "(frames_corrupt={0}, bytes_quarantined={1})".format(
                run.salvage_stats.frames_corrupt,
                run.salvage_stats.bytes_quarantined,
            )
        )
    return problems


def _check_fast_lane_equiv(run, baseline):
    """PR 9's gate, under fire: the compiled batch lane and the
    interpreted lane must tell the same story about a damaged store."""
    salvage = run.strict_error is not None
    fast = fast_lane_records(run, salvage)
    interpreted = list(run.reader.scan(salvage=salvage))
    if len(fast) != len(interpreted):
        return [
            "fast lane yields {0} record(s), interpreted {1}".format(
                len(fast), len(interpreted)
            )
        ]
    for index, (a, b) in enumerate(zip(fast, interpreted)):
        if a != b:
            return [
                "record {0} differs between lanes: fast={1!r} "
                "interpreted={2!r}".format(index, a, b)
            ]
    return []


def _check_streaming_digests(run, baseline):
    """PR 8's twin oracle: the incremental streaming fold over the
    committed stream must agree with the naive reference analyses."""
    from repro.analysis.reference import reference_digest
    from repro.analysis.trace import Trace
    from repro.streaming.twins import diff_digests, replay_engine

    online = replay_engine(run.records).finalize().digest()
    return diff_digests(online, reference_digest(Trace(list(run.records))))


def _check_monotone_clocks(run, baseline):
    """Per-process vector clocks must advance monotonically along each
    process's own event order, own component strictly."""
    from repro.analysis.ordering import HappensBefore
    from repro.analysis.trace import Trace

    trace = Trace(list(run.records))
    ordering = HappensBefore(trace)
    processes = trace.processes()
    problems = []
    for own, process in enumerate(processes):
        previous = None
        for event in trace.events_for(process):
            clock = ordering.vector_clock(event)
            if previous is not None:
                if any(a < b for a, b in zip(clock, previous)):
                    problems.append(
                        "{0}: clock went backwards at proc_seq {1}".format(
                            process, event.proc_seq
                        )
                    )
                    break
                if clock[own] <= previous[own]:
                    problems.append(
                        "{0}: own component did not advance at proc_seq "
                        "{1}".format(process, event.proc_seq)
                    )
                    break
            previous = clock
    return problems


def _check_death_reports(run, baseline):
    """At-most-once always; exactly-once when every fault is
    recoverable (PR 5's journal guarantee)."""
    problems = []
    exactly = _recoverable_only(run)
    for program, expected in sorted(run.scenario.expected_procs.items()):
        got = run.done_reports.get(program, 0)
        if got > expected:
            problems.append(
                "{0}: {1} DONE report(s) for {2} process(es) "
                "(duplicate death reporting)".format(program, got, expected)
            )
        elif exactly and got != expected:
            problems.append(
                "{0}: {1}/{2} DONE report(s) (death went "
                "unreported)".format(program, got, expected)
            )
    return problems


#: The standard suite, in reporting order.
STANDARD_ORACLES = (
    Oracle("session_alive", _check_session_alive),
    Oracle("workload_completed", _check_workload_completed, applies=_no_crash),
    Oracle(
        "baseline_identical",
        _check_baseline_identical,
        applies=_recoverable_only,
        needs_baseline=True,
    ),
    Oracle(
        "no_invented_records",
        _check_no_invented_records,
        applies=lambda run: _no_crash(run) and _has_store(run),
        needs_baseline=True,
    ),
    Oracle("store_accounted", _check_store_accounted, applies=_has_store),
    Oracle("fast_lane_equiv", _check_fast_lane_equiv, applies=_has_store),
    Oracle("streaming_digests", _check_streaming_digests, applies=_has_store),
    Oracle("monotone_clocks", _check_monotone_clocks, applies=_has_store),
    Oracle("death_reports", _check_death_reports),
)

_BY_NAME = {oracle.name: oracle for oracle in STANDARD_ORACLES}


def _count_partitions(run, baseline):
    """Demo/synthetic oracle (not in the standard suite): rejects any
    run in which two or more partitions actually fired.  Used by the
    shrinker's acceptance fixtures as a known, reliably triggerable
    "bug"."""
    fired = sum(1 for line in run.applied if "] partition" in line)
    if fired >= 2:
        return ["{0} partition(s) fired (budget: 1)".format(fired)]
    return []


SYNTHETIC_ORACLES = {
    "partition_budget": Oracle("partition_budget", _count_partitions),
}


def get_oracles(names=None):
    """Resolve oracle names to Oracle objects; None = standard suite."""
    if names is None:
        return STANDARD_ORACLES
    resolved = []
    for name in names:
        oracle = _BY_NAME.get(name) or SYNTHETIC_ORACLES.get(name)
        if oracle is None:
            raise ValueError(
                "unknown oracle {0!r}; available: {1}".format(
                    name,
                    ", ".join(sorted(set(_BY_NAME) | set(SYNTHETIC_ORACLES))),
                )
            )
        resolved.append(oracle)
    return tuple(resolved)


def run_oracles(run, baseline=None, oracles=None):
    """Check one run; returns a JSON-native verdict dict::

        {"ok": bool,
         "oracles": {name: {"applied": bool, "violations": [...]}}}
    """
    verdict = {"ok": True, "oracles": {}}
    for oracle in get_oracles(oracles):
        applied = oracle.applies(run)
        if applied and oracle.needs_baseline and baseline is None:
            applied = False
        violations = oracle.check(run, baseline) if applied else []
        verdict["oracles"][oracle.name] = {
            "applied": bool(applied),
            "violations": list(violations),
        }
        if violations:
            verdict["ok"] = False
    return verdict


def violated_names(verdict):
    """The names of oracles that failed, sorted (replay comparison)."""
    return sorted(
        name
        for name, entry in verdict["oracles"].items()
        if entry["violations"]
    )


def format_verdict(verdict, indent=""):
    """Human-readable verdict lines."""
    lines = []
    lines.append(
        "{0}verdict: {1}".format(indent, "OK" if verdict["ok"] else "VIOLATED")
    )
    for name, entry in sorted(verdict["oracles"].items()):
        if entry["violations"]:
            for violation in entry["violations"]:
                lines.append("{0}  {1}: {2}".format(indent, name, violation))
        elif not entry["applied"]:
            lines.append("{0}  {1}: not applicable".format(indent, name))
    return lines
