"""The chaos search driver: generate, run, judge, shrink, report.

One :func:`search` call sweeps ``profiles x seeds`` schedules against a
scenario: each seed derives a :class:`FaultPlan` (generator), each plan
runs on a fresh seeded cluster (scenario harness), and each run is
judged by the invariant-oracle suite against the scenario's fault-free
baseline.  Failing schedules are delta-debugged down to a minimal
repro and emitted as replayable JSON artifacts.

The report is the soak currency: schedules and events injected,
per-fault-kind coverage, schedules/hour, and every verdict -- the
numbers the blocking ``chaos-search`` CI job asserts on.
"""

import time

from collections import Counter

from repro.chaos.artifact import build_artifact, save_artifact
from repro.chaos.generator import generate_plan
from repro.chaos.oracles import run_oracles, violated_names
from repro.chaos.profiles import get_profile
from repro.chaos.scenario import run_scenario
from repro.chaos.shrink import shrink_plan


def search(
    scenario,
    profiles=("mixed",),
    seeds=range(5),
    cluster_seed=7,
    oracles=None,
    shrink_failures=True,
    artifact_dir=None,
    max_shrink_probes=120,
    log=None,
):
    """Run the search; returns the report dict.

    ``log``, when given, receives one human-readable progress line per
    schedule (the CLI passes ``print``).
    """
    emit = log or (lambda line: None)
    surface = scenario.surface(log_directory=None)
    began = time.perf_counter()
    baseline = run_scenario(scenario, cluster_seed)
    baseline_records = sum(baseline.record_multiset().values())
    emit(
        "baseline: {0} ({1} records)".format(
            scenario.describe(), baseline_records
        )
    )
    per_schedule = []
    failures = []
    coverage = Counter()
    events_injected = 0
    for profile_name in profiles:
        profile = get_profile(profile_name)
        for seed in seeds:
            plan = generate_plan(seed, profile, surface)
            coverage.update(event.kind for event in plan.events)
            events_injected += len(plan)
            run = run_scenario(scenario, cluster_seed, plan)
            verdict = run_oracles(run, baseline, oracles)
            violated = violated_names(verdict)
            entry = {
                "profile": profile.name,
                "seed": int(seed),
                "events": len(plan),
                "ok": verdict["ok"],
                "violated": violated,
            }
            per_schedule.append(entry)
            emit(
                "[{0}:{1}] {2} event(s) -> {3}".format(
                    profile.name,
                    seed,
                    len(plan),
                    "ok" if verdict["ok"] else "VIOLATED " + ",".join(violated),
                )
            )
            if verdict["ok"]:
                continue
            failure = dict(entry)
            if shrink_failures:
                shrunk = _shrink_failure(
                    scenario,
                    cluster_seed,
                    baseline,
                    plan,
                    violated,
                    oracles,
                    max_shrink_probes,
                )
                failure["shrunk_events"] = shrunk.final_events
                failure["shrink_probes"] = shrunk.probes
                emit("  " + shrunk.summary())
                repro_plan = shrunk.plan
                shrink_info = {
                    "original_events": shrunk.original_events,
                    "probes": shrunk.probes,
                }
            else:
                repro_plan = plan
                shrink_info = None
            if artifact_dir is not None:
                repro_run = run_scenario(scenario, cluster_seed, repro_plan)
                repro_verdict = run_oracles(repro_run, baseline, oracles)
                artifact = build_artifact(
                    scenario.name,
                    cluster_seed,
                    repro_plan,
                    repro_verdict,
                    profile=profile.name,
                    gen_seed=int(seed),
                    oracles=oracles,
                    shrink_info=shrink_info,
                )
                path = save_artifact(
                    artifact,
                    "{0}/chaos_{1}_{2}_{3}.json".format(
                        artifact_dir, scenario.name, profile.name, seed
                    ),
                )
                failure["artifact"] = str(path)
                emit("  artifact: {0}".format(path))
            failures.append(failure)
    elapsed = time.perf_counter() - began
    report = {
        "scenario": scenario.name,
        "cluster_seed": int(cluster_seed),
        "profiles": list(profiles),
        "seeds": [int(seed) for seed in seeds],
        "schedules": len(per_schedule),
        "events_injected": events_injected,
        "baseline_records": baseline_records,
        "coverage": dict(sorted(coverage.items())),
        "kinds_covered": len(coverage),
        "violations": len(failures),
        "failures": failures,
        "per_schedule": per_schedule,
        "elapsed_seconds": round(elapsed, 3),
        "schedules_per_hour": round(
            len(per_schedule) * 3600.0 / elapsed, 1
        )
        if elapsed
        else 0.0,
    }
    return report


def _shrink_failure(
    scenario, cluster_seed, baseline, plan, violated, oracles, max_probes
):
    """Delta-debug a failing schedule: a candidate still "fails" when
    it reproduces at least one of the originally violated oracles."""
    original = set(violated)

    def fails(candidate):
        run = run_scenario(scenario, cluster_seed, candidate)
        verdict = run_oracles(run, baseline, oracles)
        return bool(original & set(violated_names(verdict)))

    return shrink_plan(plan, fails, max_probes=max_probes)


def format_report(report):
    """Human-readable soak summary lines."""
    lines = [
        "chaos search: {0} schedule(s), {1} fault event(s) injected "
        "over scenario '{2}'".format(
            report["schedules"], report["events_injected"], report["scenario"]
        ),
        "coverage: "
        + ", ".join(
            "{0}={1}".format(kind, count)
            for kind, count in sorted(report["coverage"].items())
        ),
        "rate: {0} schedules/hour ({1}s elapsed)".format(
            report["schedules_per_hour"], report["elapsed_seconds"]
        ),
        "verdicts: {0} ok, {1} violated".format(
            report["schedules"] - report["violations"], report["violations"]
        ),
    ]
    for failure in report["failures"]:
        line = "  VIOLATED [{0}:{1}] {2}".format(
            failure["profile"], failure["seed"], ",".join(failure["violated"])
        )
        if "shrunk_events" in failure:
            line += " (shrunk {0} -> {1} events)".format(
                failure["events"], failure["shrunk_events"]
            )
        if "artifact" in failure:
            line += " -> " + failure["artifact"]
        lines.append(line)
    return lines
