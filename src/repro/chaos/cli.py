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

import contextlib
import json
import os

from repro.chaos.artifact import (
    artifact_plan,
    artifact_scenario,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.chaos.oracles import format_verdict
from repro.chaos.profiles import PROFILES
from repro.chaos.scenario import SCENARIOS, make_scenario, run_scenario
from repro.chaos.search import format_report, search, shrink_failure
from repro.chaos.shrink import MAX_PROBES
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


#: The flags ``run`` and ``soak`` share.
_SWEEP_FLAGS = {
    "scenario": str,
    "cluster-seed": int,
    "artifacts": str,
    "bench": str,
    "sends": int,
}


def _open_report(path):
    """``path`` opened for writing, its directory created first -- before
    a search that may run for minutes, so a bad path fails at once."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return open(path, "w", encoding="ascii")


def _sweep(flags, profiles, seeds, shrink):
    """Search, print the report (and write it to ``--bench``); exit 1
    on any violation."""
    kwargs = {"sends": flags["sends"]} if "sends" in flags else {}
    scenario = make_scenario(flags.get("scenario", "dgram_pair"), **kwargs)
    bench = _open_report(flags["bench"]) if "bench" in flags else None
    with bench or contextlib.nullcontext():
        report = search(
            scenario,
            profiles=profiles,
            seeds=seeds,
            cluster_seed=flags.get("cluster-seed", 7),
            shrink_failures=shrink,
            artifact_dir=flags.get("artifacts"),
            log=print,
        )
        for line in format_report(report):
            print(line)
        if bench is not None:
            json.dump(report, bench, indent=2, sort_keys=True)
            bench.write("\n")
            print("report written to {0}".format(flags["bench"]))
    return 0 if not report["violations"] else 1


def _chaos_run(args):
    positional, flags = parse_flags(
        args,
        {**_SWEEP_FLAGS, "profile": str, "seeds": _parse_seeds, "shrink": truthy},
    )
    if positional:
        print(CHAOS_USAGE)
        return 1
    profiles = [
        name for name in flags.get("profile", "mixed").split(",") if name
    ]
    return _sweep(
        flags,
        profiles,
        flags.get("seeds", list(range(5))),
        flags.get("shrink", True),
    )


def _chaos_soak(args):
    positional, flags = parse_flags(args, {**_SWEEP_FLAGS, "schedules": int})
    if positional:
        print(CHAOS_USAGE)
        return 1
    budget = max(1, flags.get("schedules", 25))
    profiles = sorted(PROFILES)
    seeds_per_profile = max(1, (budget + len(profiles) - 1) // len(profiles))
    return _sweep(flags, profiles, list(range(seeds_per_profile)), True)


def _recorded_line(artifact):
    recorded = artifact["verdict"]
    return "recorded verdict: {0}{1}".format(
        "OK" if recorded["ok"] else "VIOLATED",
        " " + ",".join(recorded["violated"]) if recorded["violated"] else "",
    )


def _chaos_replay(args):
    positional, __ = parse_flags(args, {})
    if len(positional) != 1:
        print(CHAOS_USAGE)
        return 1
    artifact = load_artifact(positional[0])
    verdict, reproduced = replay_artifact(artifact)
    for line in format_verdict(verdict):
        print(line)
    print(_recorded_line(artifact))
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
    if not artifact["verdict"]["violated"]:
        print("artifact verdict is OK; nothing to shrink")
        return 1
    scenario = artifact_scenario(artifact)
    cluster_seed = artifact["cluster_seed"]
    result, shrunk = shrink_failure(
        scenario, cluster_seed, run_scenario(scenario, cluster_seed),
        artifact_plan(artifact, scenario), artifact["verdict"]["violated"],
        artifact.get("oracles"), profile=artifact.get("profile"),
        gen_seed=artifact.get("gen_seed"),
        max_probes=flags.get("max-probes", MAX_PROBES),
    )
    print(result.summary())
    out = flags.get("out") or (
        path[: -len(".json")] if path.endswith(".json") else path
    ) + ".shrunk.json"
    save_artifact(shrunk, out)
    print("shrunk artifact: {0}".format(out))
    print(_recorded_line(shrunk))
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
    except (OSError, ValueError) as err:
        print("chaos {0}: {1}".format(args[0], err))
        return 1
