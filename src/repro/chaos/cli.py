"""``python -m repro chaos`` -- run, replay, shrink, soak.

The search engine as an operator tool::

    python -m repro chaos run --profile mixed --seeds 0:25
    python -m repro chaos soak --schedules 25
    python -m repro chaos replay artifacts/chaos_dgram_pair_mixed_3.json
    python -m repro chaos shrink artifacts/chaos_dgram_pair_mixed_3.json

``run`` sweeps seed-derived schedules for one or more profiles and
exits 1 if any invariant was violated (artifacts land in
``--artifacts``).  ``soak`` cycles every profile for a schedule budget
and reports coverage and schedules/hour.  ``replay`` re-runs an
artifact and exits 0 only when the recorded verdict reproduces.
``shrink`` delta-debugs an artifact's schedule to a minimal repro.
"""

import json

from repro.chaos.artifact import (
    artifact_plan,
    artifact_scenario,
    build_artifact,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.chaos.oracles import (
    format_verdict,
    run_oracles,
    violated_names,
)
from repro.chaos.profiles import PROFILES
from repro.chaos.scenario import SCENARIOS, make_scenario, run_scenario
from repro.chaos.search import format_report, search
from repro.chaos.shrink import shrink_plan
from repro.cliflags import parse_flags, truthy

CHAOS_USAGE = """\
usage: python -m repro chaos <subcommand>
  run [--scenario NAME] [--profile P1,P2] [--seeds A:B|a,b,c]
      [--cluster-seed N] [--artifacts DIR] [--bench FILE]
      [--shrink yes|no] [--sends N]
                     search seed-derived fault schedules; exit 1 on any
                     invariant violation (failures shrink to artifacts)
  soak [--scenario NAME] [--schedules N] [--cluster-seed N]
       [--artifacts DIR] [--bench FILE]
                     cycle every profile over a schedule budget and
                     report coverage, verdicts, and schedules/hour
  replay <artifact.json>
                     re-run a chaos artifact; exit 0 only when the
                     recorded verdict reproduces
  shrink <artifact.json> [--out FILE] [--max-probes N]
                     delta-debug an artifact's schedule to a minimal
                     failing repro (writes <artifact>.shrunk.json)
  scenarios: {0}
  profiles:  {1}""".format(
    " ".join(sorted(SCENARIOS)), " ".join(sorted(PROFILES))
)

def _parse_seeds(text):
    """``A:B`` -> range(A, B); ``a,b,c`` -> those seeds; ``N`` -> [N]."""
    text = str(text)
    if ":" in text:
        start, stop = text.split(":", 1)
        seeds = list(range(int(start), int(stop)))
    else:
        seeds = [int(part) for part in text.split(",") if part != ""]
    if not seeds:
        raise ValueError("empty seed set {0!r}".format(text))
    return seeds


def _scenario_from_flags(flags):
    kwargs = {}
    if "sends" in flags:
        kwargs["sends"] = flags["sends"]
    return (
        make_scenario(flags.get("scenario", "dgram_pair"), **kwargs),
        kwargs,
    )


def _write_bench(report, path):
    with open(path, "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("report written to {0}".format(path))


def _chaos_run(args):
    spec = {
        "scenario": str,
        "profile": str,
        "seeds": _parse_seeds,
        "cluster-seed": int,
        "artifacts": str,
        "bench": str,
        "shrink": truthy,
        "sends": int,
    }
    positional, flags = parse_flags(args, spec)
    if positional:
        print(CHAOS_USAGE)
        return 1
    scenario, __ = _scenario_from_flags(flags)
    profiles = [
        name for name in flags.get("profile", "mixed").split(",") if name
    ]
    report = search(
        scenario,
        profiles=profiles,
        seeds=flags.get("seeds", list(range(5))),
        cluster_seed=flags.get("cluster-seed", 7),
        shrink_failures=flags.get("shrink", True),
        artifact_dir=flags.get("artifacts"),
        log=print,
    )
    for line in format_report(report):
        print(line)
    if "bench" in flags:
        _write_bench(report, flags["bench"])
    return 0 if not report["violations"] else 1


def _chaos_soak(args):
    spec = {
        "scenario": str,
        "schedules": int,
        "cluster-seed": int,
        "artifacts": str,
        "bench": str,
        "sends": int,
    }
    positional, flags = parse_flags(args, spec)
    if positional:
        print(CHAOS_USAGE)
        return 1
    scenario, __ = _scenario_from_flags(flags)
    budget = max(1, flags.get("schedules", 25))
    profiles = sorted(PROFILES)
    seeds_per_profile = max(1, (budget + len(profiles) - 1) // len(profiles))
    report = search(
        scenario,
        profiles=profiles,
        seeds=list(range(seeds_per_profile)),
        cluster_seed=flags.get("cluster-seed", 7),
        shrink_failures=True,
        artifact_dir=flags.get("artifacts"),
        log=print,
    )
    for line in format_report(report):
        print(line)
    if "bench" in flags:
        _write_bench(report, flags["bench"])
    return 0 if not report["violations"] else 1


def _chaos_replay(args):
    positional, __ = parse_flags(args, {})
    if len(positional) != 1:
        print(CHAOS_USAGE)
        return 1
    artifact = load_artifact(positional[0])
    verdict, reproduced = replay_artifact(artifact)
    for line in format_verdict(verdict):
        print(line)
    recorded = artifact["verdict"]
    print(
        "recorded verdict: {0}{1}".format(
            "OK" if recorded["ok"] else "VIOLATED",
            " " + ",".join(recorded["violated"]) if recorded["violated"] else "",
        )
    )
    print("reproduced" if reproduced else "DID NOT REPRODUCE")
    return 0 if reproduced else 1


def _chaos_shrink(args):
    positional, flags = parse_flags(
        args, {"out": str, "max-probes": int}
    )
    if len(positional) != 1:
        print(CHAOS_USAGE)
        return 1
    path = positional[0]
    artifact = load_artifact(path)
    scenario = artifact_scenario(artifact)
    plan = artifact_plan(artifact, scenario)
    cluster_seed = artifact["cluster_seed"]
    oracles = artifact.get("oracles")
    baseline = run_scenario(scenario, cluster_seed)
    original = set(artifact["verdict"]["violated"])
    if not original:
        print("artifact verdict is OK; nothing to shrink")
        return 1

    def fails(candidate):
        run = run_scenario(scenario, cluster_seed, candidate)
        verdict = run_oracles(run, baseline, oracles)
        return bool(original & set(violated_names(verdict)))

    result = shrink_plan(
        plan, fails, max_probes=flags.get("max-probes", 200)
    )
    print(result.summary())
    run = run_scenario(scenario, cluster_seed, result.plan)
    verdict = run_oracles(run, baseline, oracles)
    shrunk = build_artifact(
        scenario.name,
        cluster_seed,
        result.plan,
        verdict,
        scenario_kwargs=artifact["scenario"].get("kwargs"),
        profile=artifact.get("profile"),
        gen_seed=artifact.get("gen_seed"),
        oracles=oracles,
        shrink_info={
            "original_events": result.original_events,
            "probes": result.probes,
        },
    )
    out = flags.get("out") or (
        path[: -len(".json")] if path.endswith(".json") else path
    ) + ".shrunk.json"
    save_artifact(shrunk, out)
    print("shrunk artifact: {0}".format(out))
    for line in format_verdict(verdict):
        print(line)
    return 0


def chaos_main(args):
    handlers = {
        "run": _chaos_run,
        "soak": _chaos_soak,
        "replay": _chaos_replay,
        "shrink": _chaos_shrink,
    }
    if not args or args[0] not in handlers:
        print(CHAOS_USAGE)
        return 1
    try:
        return handlers[args[0]](args[1:])
    except (FileNotFoundError, ValueError) as err:
        print("chaos {0}: {1}".format(args[0], err))
        return 1
