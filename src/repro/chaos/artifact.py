"""Replayable chaos artifacts: a failing (or regression) schedule as
one self-contained JSON document.

An artifact pins everything a replay needs -- scenario name and
parameters, cluster seed, the (relative) fault schedule, which oracle
suite judged it -- plus the verdict the original run produced, so
``python -m repro chaos replay`` can assert reproduction rather than
just re-run.  Shrunk artifacts carry their provenance (generator
profile and seed, pre-shrink event count, probe spend).

Committed under ``tests/chaos/corpus/`` these double as cheap tier-1
regression tests: every schedule that ever found a bug keeps guarding
against it.
"""

import json
import pathlib

from repro.chaos.oracles import reproduces, run_oracles, violated_names
from repro.chaos.scenario import make_scenario, run_scenario
from repro.faults.plan import FaultPlan

ARTIFACT_FORMAT = "repro-chaos/1"


def build_artifact(
    scenario_name,
    cluster_seed,
    plan,
    verdict,
    scenario_kwargs=None,
    profile=None,
    gen_seed=None,
    oracles=None,
    shrink_info=None,
):
    """Assemble the JSON-native artifact document."""
    return {
        "format": ARTIFACT_FORMAT,
        "scenario": {
            "name": scenario_name,
            "kwargs": dict(scenario_kwargs or {}),
        },
        "cluster_seed": int(cluster_seed),
        "profile": profile,
        "gen_seed": gen_seed,
        "oracles": list(oracles) if oracles is not None else None,
        "plan": plan.to_jsonable(),
        "verdict": {
            "ok": verdict["ok"],
            "violated": violated_names(verdict),
        },
        "shrink": shrink_info,
    }


def save_artifact(artifact, path):
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )
    return path


def load_artifact(path):
    artifact = json.loads(pathlib.Path(path).read_text(encoding="ascii"))
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            "{0}: not a chaos artifact (format {1!r})".format(
                path, artifact.get("format")
            )
        )
    return artifact


def artifact_scenario(artifact):
    spec = artifact["scenario"]
    return make_scenario(spec["name"], **spec.get("kwargs", {}))


def artifact_plan(artifact, scenario=None):
    scenario = scenario or artifact_scenario(artifact)
    return FaultPlan.from_jsonable(
        artifact["plan"], machines=scenario.machines
    )


def replay_artifact(artifact):
    """Re-run an artifact's schedule and judge it with the recorded
    oracle suite.  Returns ``(verdict, reproduced)`` where
    ``reproduced`` means the fresh verdict violates the recorded set
    of oracles, no more and no fewer (:func:`oracles.reproduces`)."""
    if isinstance(artifact, (str, pathlib.Path)):
        artifact = load_artifact(artifact)
    scenario = artifact_scenario(artifact)
    plan = artifact_plan(artifact, scenario)
    cluster_seed = artifact["cluster_seed"]
    baseline = run_scenario(scenario, cluster_seed)
    run = run_scenario(scenario, cluster_seed, plan)
    verdict = run_oracles(run, baseline, oracles=artifact.get("oracles"))
    return verdict, reproduces(verdict, artifact["verdict"]["violated"])
