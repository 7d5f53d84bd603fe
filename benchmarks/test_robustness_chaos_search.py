"""Chaos search acceptance: a fixed-seed batch over every profile.

Three gates, all blocking in CI:

* **Coverage with zero violations** -- thirty generated schedules (six
  profiles x five seeds) run against the dgram-pair scenario, spanning
  at least five distinct fault kinds, and every invariant oracle holds
  on every run.
* **End-to-end determinism** -- the same ``(seed, profile, scenario)``
  triple produces a byte-identical schedule and the same verdict
  across two fresh searches.
* **Shrinking** -- a 14-event schedule failing the synthetic
  partition-budget oracle reduces to its two partition+heal moves (four
  events), and the written artifact replays to the same verdict.

Run by the CI ``chaos-search`` job.
"""

from repro.chaos.artifact import (
    build_artifact,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.chaos.generator import generate_plan
from repro.chaos.oracles import run_oracles, violated_names
from repro.chaos.profiles import PROFILES
from repro.chaos.scenario import DgramPairScenario, run_scenario
from repro.chaos.search import search
from repro.chaos.shrink import is_subsequence, shrink_plan
from repro.faults.plan import FaultPlan

SEEDS = range(5)
CLUSTER_SEED = 7


def test_fixed_seed_batch_has_full_coverage_and_zero_violations():
    report = search(
        DgramPairScenario(),
        profiles=sorted(PROFILES),
        seeds=SEEDS,
        cluster_seed=CLUSTER_SEED,
    )
    assert report["schedules"] >= 25
    assert report["kinds_covered"] >= 5, report["coverage"]
    assert report["violations"] == 0, report["failures"]


def test_search_is_deterministic_end_to_end():
    """Same (seed, profile, scenario) => byte-identical schedule and
    the same verdict, across two completely fresh searches."""
    scenario = DgramPairScenario(sends=12)
    surface = scenario.surface(log_directory=None)
    plans_a = [generate_plan(s, "mixed", surface).to_json() for s in range(3)]
    plans_b = [generate_plan(s, "mixed", surface).to_json() for s in range(3)]
    assert plans_a == plans_b

    def stripped(report):
        return {
            key: value
            for key, value in report.items()
            if key not in ("elapsed_seconds", "schedules_per_hour")
        }

    first = search(scenario, profiles=("mixed",), seeds=range(3))
    second = search(scenario, profiles=("mixed",), seeds=range(3))
    assert stripped(first) == stripped(second)


def test_shrinker_reduces_a_synthetic_failure_to_its_core(tmp_path):
    """A 14-event schedule hiding two partitions among noise fails the
    synthetic partition-budget oracle; the shrinker must find the
    two-move core (each partition with its heal) and the saved artifact
    must replay to that verdict."""
    scenario = DgramPairScenario(sends=12)
    machines = scenario.machines
    plan = FaultPlan(machines=machines)
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
    assert len(plan) >= 12

    baseline = run_scenario(scenario, CLUSTER_SEED)

    def fails(candidate):
        run = run_scenario(scenario, CLUSTER_SEED, candidate)
        verdict = run_oracles(run, baseline, oracles=["partition_budget"])
        return "partition_budget" in violated_names(verdict)

    result = shrink_plan(plan, fails)
    assert result.final_events == 4
    assert [event.kind for event in result.plan.events] == [
        "partition", "heal", "partition", "heal"
    ]
    assert is_subsequence(result.plan, plan)

    run = run_scenario(scenario, CLUSTER_SEED, result.plan)
    verdict = run_oracles(run, baseline, oracles=["partition_budget"])
    assert violated_names(verdict) == ["partition_budget"]
    path = save_artifact(
        build_artifact(
            scenario.name,
            CLUSTER_SEED,
            result.plan,
            verdict,
            scenario_kwargs={"sends": 12},
            oracles=["partition_budget"],
            shrink_info={
                "original_events": result.original_events,
                "probes": result.probes,
            },
        ),
        tmp_path / "shrunk.json",
    )
    replayed_verdict, reproduced = replay_artifact(load_artifact(path))
    assert reproduced, replayed_verdict
