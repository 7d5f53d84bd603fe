"""``python -m repro chaos`` smoke tests: run, replay, and shrink
round-trip through the CLI surface on a small scenario."""

import json

from repro.chaos.artifact import build_artifact, load_artifact, save_artifact
from repro.chaos.cli import chaos_main
from repro.chaos.generator import generate_plan
from repro.chaos.oracles import run_oracles
from repro.chaos.scenario import DgramPairScenario, run_scenario


def test_no_arguments_prints_usage(capsys):
    assert chaos_main([]) == 1
    assert "usage:" in capsys.readouterr().out


def test_unknown_option_is_reported(capsys):
    assert chaos_main(["run", "--bogus", "1"]) == 1
    assert "unknown option" in capsys.readouterr().out


def test_run_sweeps_and_writes_the_bench_report(tmp_path, capsys):
    bench = tmp_path / "report.json"
    code = chaos_main(
        [
            "run",
            "--profile",
            "network",
            "--seeds",
            "0:2",
            "--sends",
            "12",
            "--bench",
            str(bench),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    report = json.loads(bench.read_text())
    assert report["schedules"] == 2
    assert report["violations"] == 0
    assert "chaos search: 2 schedule(s)" in out


def test_run_writes_the_bench_report_into_a_new_directory(tmp_path, capsys):
    bench = tmp_path / "new" / "dir" / "r.json"
    code = chaos_main(
        ["run", "--profile", "network", "--seeds", "0", "--sends", "12",
         "--bench", str(bench)]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert json.loads(bench.read_text())["schedules"] == 1


def test_run_refuses_a_bad_bench_path_before_searching(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = chaos_main(
        ["run", "--profile", "network", "--seeds", "0", "--sends", "12",
         "--bench", str(blocker / "r.json")]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("chaos run: ")
    assert "chaos search:" not in out


def test_replay_reproduces_a_recorded_verdict(tmp_path, capsys):
    scenario = DgramPairScenario(sends=12)
    plan = generate_plan(1, "network", scenario.surface(log_directory=None))
    baseline = run_scenario(scenario, 7)
    run = run_scenario(scenario, 7, plan)
    verdict = run_oracles(run, baseline)
    artifact = build_artifact(
        scenario.name,
        7,
        plan,
        verdict,
        scenario_kwargs={"sends": 12},
        profile="network",
        gen_seed=1,
    )
    path = tmp_path / "artifact.json"
    save_artifact(artifact, path)
    assert chaos_main(["replay", str(path)]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_replay_rejects_non_artifacts(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}')
    assert chaos_main(["replay", str(path)]) == 1


def test_shrink_refuses_a_passing_artifact(tmp_path, capsys):
    scenario = DgramPairScenario(sends=12)
    plan = generate_plan(1, "network", scenario.surface(log_directory=None))
    baseline = run_scenario(scenario, 7)
    verdict = run_oracles(run_scenario(scenario, 7, plan), baseline)
    assert verdict["ok"]
    path = tmp_path / "ok.json"
    save_artifact(
        build_artifact(
            scenario.name, 7, plan, verdict, scenario_kwargs={"sends": 12}
        ),
        path,
    )
    assert chaos_main(["shrink", str(path)]) == 1
    assert "nothing to shrink" in capsys.readouterr().out


def test_shrink_reduces_a_synthetic_failure(tmp_path, capsys):
    """End-to-end over the CLI: a schedule with two partitions fails
    the synthetic partition-budget oracle, shrinks to its two
    partition+heal moves, and the written artifact replays to the same
    verdict."""
    scenario = DgramPairScenario(sends=12)
    plan = generate_plan(1, "network", scenario.surface(log_directory=None))
    assert sum(1 for e in plan.events if e.kind == "partition") >= 2
    baseline = run_scenario(scenario, 7)
    run = run_scenario(scenario, 7, plan)
    verdict = run_oracles(run, baseline, oracles=["partition_budget"])
    assert not verdict["ok"]
    path = tmp_path / "fail.json"
    save_artifact(
        build_artifact(
            scenario.name,
            7,
            plan,
            verdict,
            scenario_kwargs={"sends": 12},
            oracles=["partition_budget"],
        ),
        path,
    )
    out_path = tmp_path / "fail.shrunk.json"
    assert chaos_main(["shrink", str(path), "--out", str(out_path)]) == 0
    shrunk = load_artifact(out_path)
    assert sorted(entry["kind"] for entry in shrunk["plan"]) == [
        "heal", "heal", "partition", "partition"
    ]
    assert shrunk["verdict"]["violated"] == ["partition_budget"]
    assert chaos_main(["replay", str(out_path)]) == 0
