"""Pin the 600-schedule soak's violations to a committed list.

The soak is a search: its violations are known monitor bugs or
oracles that expect too much (ROADMAP item 1), not noise.  This check
turns it into a gate that still admits them: each report's set of
(profile, seed, violated oracles) must equal the committed set for its
scenario in ``soak_violations.json`` -- a new violation fails, and so
does a fixed one, until the fix updates the file in the same change.

    python -m tests.chaos.check_soak REPORT.json [REPORT.json ...]

Each REPORT is the ``--bench`` file of ``python -m repro chaos soak``.
Exits 0 when every report matches its pin.
"""

import json
import os
import sys

PIN_PATH = os.path.join(os.path.dirname(__file__), "soak_violations.json")


def violation_set(report):
    """(profile, seed, sorted violated oracles) of every failure."""
    return {
        (failure["profile"], int(failure["seed"]), tuple(sorted(failure["violated"])))
        for failure in report["failures"]
    }


def load_pins(path=PIN_PATH):
    """scenario -> pinned violation set."""
    with open(path, encoding="ascii") as handle:
        pins = json.load(handle)
    return {
        scenario: {
            (profile, int(seed), tuple(sorted(oracles)))
            for profile, seed, oracles in entries
        }
        for scenario, entries in pins.items()
    }


def differences(report, pins):
    """Lines naming how ``report`` departs from its scenario's pin; an
    empty list when it matches."""
    scenario = report["scenario"]
    if scenario not in pins:
        return ["{0}: no pinned violation set".format(scenario)]
    got, want = violation_set(report), pins[scenario]
    lines = []
    for label, ids in (("new", got - want), ("no longer violated", want - got)):
        for profile, seed, oracles in sorted(ids):
            lines.append(
                "{0}: {1} [{2}:{3}] {4}".format(
                    scenario, label, profile, seed, ",".join(oracles)
                )
            )
    return lines


def main(argv):
    if not argv:
        print(__doc__.strip())
        return 2
    pins = load_pins()
    failed = False
    for path in argv:
        with open(path, encoding="ascii") as handle:
            report = json.load(handle)
        lines = differences(report, pins)
        for line in lines:
            print(line)
        if lines:
            failed = True
        else:
            print(
                "{0}: {1} violation(s), as pinned".format(
                    report["scenario"], report["violations"]
                )
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
