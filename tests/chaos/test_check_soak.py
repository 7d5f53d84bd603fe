"""The soak gate: a report passes only with exactly its pinned violations."""

import json

from tests.chaos.check_soak import differences, load_pins, main


def _report(scenario, failures):
    return {
        "scenario": scenario,
        "violations": len(failures),
        "failures": [
            {"profile": profile, "seed": seed, "violated": list(oracles)}
            for profile, seed, oracles in failures
        ],
    }


def test_the_pin_holds_the_sixteen_known_violations():
    pins = load_pins()
    assert sorted(pins) == ["dgram_pair", "dgram_quad"]
    assert (len(pins["dgram_pair"]), len(pins["dgram_quad"])) == (7, 9)


def test_a_report_with_exactly_its_pinned_violations_passes():
    pins = {"s": {("network", 22, ("baseline_identical",))}}
    report = _report("s", [("network", 22, ["baseline_identical"])])
    assert differences(report, pins) == []


def test_a_new_a_fixed_or_a_changed_violation_fails():
    pins = {
        "s": {
            ("network", 22, ("baseline_identical",)),
            ("storage", 25, ("no_invented_records",)),
        }
    }
    report = _report(
        "s",
        [
            ("network", 22, ["baseline_identical", "death_reports"]),
            ("mixed", 3, ["death_reports"]),
        ],
    )
    assert differences(report, pins) == [
        "s: new [mixed:3] death_reports",
        "s: new [network:22] baseline_identical,death_reports",
        "s: no longer violated [network:22] baseline_identical",
        "s: no longer violated [storage:25] no_invented_records",
    ]
    assert differences(_report("other", []), pins) == [
        "other: no pinned violation set"
    ]


def test_main_exits_nonzero_on_any_departure(tmp_path, capsys):
    good = _report("dgram_pair", sorted(load_pins()["dgram_pair"]))
    bad = _report("dgram_quad", [])
    (tmp_path / "good.json").write_text(json.dumps(good))
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    assert main([str(tmp_path / "good.json")]) == 0
    assert main([str(tmp_path / "good.json"), str(tmp_path / "bad.json")]) == 1
    assert "no longer violated [network:88]" in capsys.readouterr().out
