"""The shrinker's contract: the output still fails its predicate, is a
subsequence of the input, keeps or drops an outage together with its
recovery, is 1-minimal for the synthetic two-partition bug, and the
whole reduction is deterministic and budget-bounded."""

import pytest

from repro.chaos.artifact import artifact_plan, load_artifact, replay_artifact
from repro.chaos.generator import generate_plan
from repro.chaos.scenario import DgramPairScenario
from repro.chaos.search import search
from repro.chaos.shrink import is_subsequence, shrink_plan
from repro.faults.plan import FaultPlan

MACHINES = ("red", "green", "blue", "yellow")


def _noisy_plan():
    """A 14-event schedule in which exactly two partitions hide among
    unrelated noise (the synthetic bug: >= 2 partitions is a failure)."""
    plan = FaultPlan(machines=MACHINES)
    plan.loss_burst(10.0, duration_ms=40.0, loss=0.3)
    plan.latency_spike(30.0, duration_ms=50.0, extra_ms=12.0)
    plan.kill_process(60.0, "green", "meterdaemon")
    plan.partition(90.0, [["red"], ["green", "blue", "yellow"]])
    plan.heal(140.0)
    plan.restart_daemon(170.0, "green")
    plan.loss_burst(200.0, duration_ms=30.0, loss=0.5)
    plan.storage_bit_rot(230.0, "blue", "/usr/tmp/f1.store", flips=3, seed=7)
    plan.partition(260.0, [["blue"], ["red", "green", "yellow"]])
    plan.heal(320.0)
    plan.latency_spike(350.0, duration_ms=20.0, extra_ms=8.0)
    plan.kill_process(380.0, "blue", "filter")
    plan.storage_torn_write(410.0, "blue", "/usr/tmp/f1.store", drop_bytes=64)
    plan.loss_burst(440.0, duration_ms=25.0, loss=0.2)
    return plan


def _two_partitions(plan):
    return sum(1 for event in plan.events if event.kind == "partition") >= 2


def test_two_partition_bug_shrinks_to_its_two_healed_partitions():
    """Each partition is kept with the heal that closes it: the core is
    two moves, four events, and the plan still ends healed."""
    plan = _noisy_plan()
    assert len(plan) >= 12
    result = shrink_plan(plan, _two_partitions)
    assert result.final_events == 4
    assert [event.kind for event in result.plan.events] == [
        "partition", "heal", "partition", "heal"
    ]
    assert len(result.plan.moves()) == 2
    assert result.plan.open_moves() == []
    assert _two_partitions(result.plan)
    assert is_subsequence(result.plan, plan)


def test_shrink_is_deterministic():
    plan = _noisy_plan()
    first = shrink_plan(plan, _two_partitions)
    second = shrink_plan(plan, _two_partitions)
    assert first.plan.to_json() == second.plan.to_json()
    assert first.probes == second.probes
    assert first.history == second.history


def test_output_always_fails_and_is_a_subsequence():
    plan = _noisy_plan()

    def fails(candidate):
        kinds = candidate.kinds()
        return "storage_bit_rot" in kinds and "kill_process" in kinds

    result = shrink_plan(plan, fails)
    assert fails(result.plan)
    assert is_subsequence(result.plan, plan)
    assert result.final_events == 2


def test_parameter_narrowing_simplifies_surviving_events():
    plan = FaultPlan(machines=MACHINES)
    plan.storage_bit_rot(137.3, "blue", "/usr/tmp/f1.store", flips=4, seed=9)

    def fails(candidate):
        return candidate.has_kind("storage_bit_rot")

    result = shrink_plan(plan, fails)
    event = result.plan.events[0]
    assert event.args["flips"] == 1
    # Timestamps snap onto the coarse grid when the failure survives.
    assert event.at_ms == 100.0


def test_narrowing_can_be_disabled():
    plan = FaultPlan(machines=MACHINES)
    plan.storage_bit_rot(137.3, "blue", "/usr/tmp/f1.store", flips=4, seed=9)
    result = shrink_plan(
        plan, lambda p: p.has_kind("storage_bit_rot"), narrow=False
    )
    assert result.plan.events[0].args["flips"] == 4
    assert result.plan.events[0].at_ms == 137.3


def test_passing_plan_is_rejected():
    with pytest.raises(ValueError):
        shrink_plan(_noisy_plan(), lambda plan: False)


def test_probe_budget_bounds_the_reduction():
    plan = _noisy_plan()
    result = shrink_plan(plan, _two_partitions, max_probes=3)
    assert result.probes <= 3
    # Whatever came out still fails -- the budget never trades away
    # the known-failing candidate.
    assert _two_partitions(result.plan)


def test_is_subsequence_rejects_reordered_and_invented_events():
    original = _noisy_plan()
    reordered = FaultPlan(machines=MACHINES)
    reordered.partition(10.0, [["blue"], ["red", "green", "yellow"]])
    reordered.partition(20.0, [["red"], ["green", "blue", "yellow"]])
    assert not is_subsequence(reordered, original)
    invented = FaultPlan(machines=MACHINES)
    invented.crash(10.0, "red")
    assert not is_subsequence(invented, original)


def test_search_writes_a_shrunk_artifact_that_replays(tmp_path):
    """The search loop's own shrink path, in-process: network seed 1
    fires two partitions, so the synthetic partition-budget oracle
    fails; the shrunk artifact keeps both heals, records the scenario
    it ran, and replays to the original violated set."""
    scenario = DgramPairScenario(sends=12)
    report = search(
        scenario,
        profiles=["network"],
        seeds=[1],
        oracles=["partition_budget"],
        artifact_dir=tmp_path,
    )
    (failure,) = report["failures"]
    assert failure["violated"] == ["partition_budget"]
    assert failure["shrunk_events"] == 4 < failure["events"]
    artifact = load_artifact(failure["artifact"])
    assert artifact["scenario"]["kwargs"] == scenario.kwargs
    assert artifact["verdict"]["violated"] == ["partition_budget"]
    assert artifact["shrink"]["original_events"] == failure["events"]
    shrunk = artifact_plan(artifact)
    assert shrunk.open_moves() == []
    original = generate_plan(1, "network", scenario.surface(None))
    assert is_subsequence(shrunk, original)
    verdict, reproduced = replay_artifact(artifact)
    assert reproduced, verdict
