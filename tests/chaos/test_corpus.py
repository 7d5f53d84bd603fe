"""Replay the committed corpus of bug-finding schedules.

Every artifact under ``tests/chaos/corpus/`` is a fault schedule that
once exposed a real bug (severed meter channels across partitions,
daemons killed mid-episode, duplicate DONE reports after a controller
resume, restarts between heartbeats, orphan batches stranded on a
retired port).  They are committed with their post-fix verdicts, so a
regression flips ``reproduced`` to False and names the oracle that
started failing.  An artifact whose recorded verdict is VIOLATED pins
a monitor bug that is found but not yet fixed (a record duplicated
after a torn write and a filter kill); its fix re-records it OK.
"""

import pathlib

import pytest

from repro.chaos.artifact import load_artifact, replay_artifact

CORPUS = pathlib.Path(__file__).parent / "corpus"
ARTIFACTS = sorted(CORPUS.glob("*.json"))


def test_corpus_is_populated():
    assert len(ARTIFACTS) >= 5


@pytest.mark.parametrize(
    "path", ARTIFACTS, ids=[path.stem for path in ARTIFACTS]
)
def test_corpus_artifact_replays_to_its_recorded_verdict(path):
    artifact = load_artifact(path)
    verdict, reproduced = replay_artifact(artifact)
    assert reproduced, (
        "corpus schedule {0} no longer reproduces its recorded verdict; "
        "violated now: {1}".format(path.name, verdict.get("violated"))
    )
