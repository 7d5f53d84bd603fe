"""Oracle applicability tiers and verdict determinism.

The synthetic runs here fill only the RunResult fields a given oracle
reads, with ``store_missing=True`` to keep the store-backed oracles
out of play -- the tier logic itself is what is under test.  One real
(simulated) run at the end checks the full suite holds on a fault-free
and a healed-fault run.
"""

import pytest

from repro.chaos.generator import generate_plan
from repro.chaos.oracles import (
    SYNTHETIC_ORACLES,
    format_verdict,
    get_oracles,
    reproduces,
    run_oracles,
    violated_names,
)
from repro.chaos.scenario import DgramPairScenario, RunResult, run_scenario
from repro.faults.plan import FaultPlan

MACHINES = ("red", "green", "blue", "yellow")


def _run_with(plan, **overrides):
    scenario = DgramPairScenario()
    run = RunResult(scenario, 7, plan)
    run.controller_alive = True
    run.store_missing = True
    run.normal_exits.update({"dgramproducer": 2})
    run.done_reports.update({"dgramproducer": 2})
    for key, value in overrides.items():
        setattr(run, key, value)
    return run


def _applied(verdict, name):
    return verdict["oracles"][name]["applied"]


def test_recoverable_plan_gets_the_strict_tier():
    plan = FaultPlan(machines=MACHINES).partition(
        10.0, [["red"], ["green", "blue", "yellow"]]
    ).heal(50.0)
    run = _run_with(plan)
    verdict = run_oracles(run, baseline=_run_with(None))
    assert _applied(verdict, "baseline_identical")
    assert _applied(verdict, "workload_completed")
    assert _applied(verdict, "death_reports")


def test_storage_damage_drops_baseline_identity_keeps_no_invented():
    plan = FaultPlan(machines=MACHINES).storage_bit_rot(
        10.0, "blue", "/usr/tmp/f1.store", flips=1
    )
    run = _run_with(plan, store_missing=False)
    run.records = []
    # Restrict to the two record-identity oracles: the store-backed
    # lane/digest oracles need a real reader, not a synthetic run.
    verdict = run_oracles(
        run,
        baseline=_run_with(None, store_missing=False),
        oracles=["baseline_identical", "no_invented_records"],
    )
    assert not _applied(verdict, "baseline_identical")
    assert _applied(verdict, "no_invented_records")


def test_crash_weakens_to_the_unconditional_tier():
    plan = FaultPlan(machines=MACHINES).crash(10.0, "red").reboot(60.0, "red")
    run = _run_with(plan)
    verdict = run_oracles(run, baseline=_run_with(None))
    assert not _applied(verdict, "baseline_identical")
    assert not _applied(verdict, "no_invented_records")
    assert not _applied(verdict, "workload_completed")
    assert _applied(verdict, "session_alive")
    assert _applied(verdict, "death_reports")


def test_baseline_needing_oracles_skip_without_a_baseline():
    plan = FaultPlan(machines=MACHINES).heal(10.0)
    verdict = run_oracles(_run_with(plan), baseline=None)
    assert not _applied(verdict, "baseline_identical")


def test_death_reports_duplicate_always_fails():
    plan = FaultPlan(machines=MACHINES).crash(10.0, "red").reboot(60.0, "red")
    run = _run_with(plan)
    run.done_reports["dgramproducer"] = 3
    verdict = run_oracles(run)
    assert "death_reports" in violated_names(verdict)


def test_death_reports_missing_fails_only_when_recoverable():
    missing = {"dgramproducer": 1}
    recoverable = _run_with(FaultPlan(machines=MACHINES).heal(10.0))
    recoverable.done_reports = dict(missing)
    assert "death_reports" in violated_names(run_oracles(recoverable))
    destructive = _run_with(
        FaultPlan(machines=MACHINES).crash(10.0, "red").reboot(60.0, "red")
    )
    destructive.done_reports = dict(missing)
    assert "death_reports" not in violated_names(run_oracles(destructive))


def test_an_unhealed_partition_drops_to_the_unconditional_tier():
    """The tier follows the plan's end state, not its kinds: a partition
    no heal closes keeps records away for good, so record identity with
    the baseline and exactly-once death reports no longer apply."""
    plan = FaultPlan(machines=MACHINES).heal(5.0).partition(
        10.0, [["red"], ["green", "blue", "yellow"]]
    )
    assert plan.open_moves() == [[1]]
    run = _run_with(plan, done_reports={"dgramproducer": 1})
    verdict = run_oracles(run, baseline=_run_with(None))
    assert not _applied(verdict, "baseline_identical")
    assert "  baseline_identical: not applicable" in format_verdict(verdict)
    assert "death_reports" not in violated_names(verdict)
    assert _applied(verdict, "workload_completed")


def test_reproduces_means_the_same_violated_set():
    run = _run_with(None, controller_alive=False)
    verdict = run_oracles(run)
    assert violated_names(verdict) == ["session_alive"]
    assert reproduces(verdict, ["session_alive"])
    assert not reproduces(verdict, [])
    assert not reproduces(verdict, ["death_reports", "session_alive"])
    passing = run_oracles(_run_with(None), oracles=["partition_budget"])
    assert reproduces(passing, []) and not reproduces(passing, ["session_alive"])


def test_dead_controller_fails_session_alive():
    run = _run_with(None, controller_alive=False)
    verdict = run_oracles(run)
    assert "session_alive" in violated_names(verdict)


def test_partition_budget_synthetic_oracle():
    run = _run_with(None)
    run.applied = [
        "[  90.0] partition groups=(('red',), ('green', 'blue', 'yellow'))",
        "[ 140.0] heal",
        "[ 260.0] partition groups=(('blue',), ('red', 'green', 'yellow'))",
    ]
    oracle = SYNTHETIC_ORACLES["partition_budget"]
    assert oracle.check(run, None)
    run.applied = run.applied[:2]
    assert not oracle.check(run, None)


def test_get_oracles_rejects_unknown_names():
    with pytest.raises(ValueError):
        get_oracles(["no_such_invariant"])
    names = [oracle.name for oracle in get_oracles(["partition_budget"])]
    assert names == ["partition_budget"]


def test_verdicts_are_deterministic():
    run = _run_with(FaultPlan(machines=MACHINES).heal(10.0))
    baseline = _run_with(None)
    assert run_oracles(run, baseline) == run_oracles(run, baseline)


# ----------------------------------------------------------------------
# The full suite over real runs
# ----------------------------------------------------------------------


def test_full_suite_holds_on_a_healed_partition_run():
    scenario = DgramPairScenario(sends=15)
    surface = scenario.surface(log_directory=None)
    plan = generate_plan(0, "network", surface)
    baseline = run_scenario(scenario, 21)
    run = run_scenario(scenario, 21, plan)
    verdict = run_oracles(run, baseline)
    assert verdict["ok"], violated_names(verdict)
    # And the verdict itself replays byte-identically.
    again = run_oracles(run_scenario(scenario, 21, plan), baseline)
    assert again == verdict
