"""``python -m ledger.compare A.json B.json``: is B worse than A?

A and B are documents written by ``python -m ledger run``.  Every
(metric, workload) pair that has a bound -- the end-to-end bounds in
``BENCHMARK.json`` plus :data:`ledger.metrics.EXTRA_BOUNDS` -- gets a
verdict:

- ``better`` / ``within`` / ``WORSE`` against the bound;
- ``unresolved`` when either side is marked ``noisy`` or the row's
  exact columns differ (the two runs did not do the same work, so a
  timing difference proves nothing);
- a row whose ``records_committed`` differ is refused outright.

Exact metrics must repeat bit-for-bit.  Exits non-zero on any WORSE or
on a higher failed-operations fraction.
"""

import json
import sys
from pathlib import Path

from ledger import metrics

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_bounds(benchmark_path=BENCHMARK_JSON):
    """metric -> bound: BENCHMARK.json's where it exists (it is the
    contract), the ledger's own tables otherwise."""
    bounds = metrics.bounds()
    if benchmark_path.exists():
        declared = json.loads(benchmark_path.read_text())
        bounds.update(
            {row["name"]: row["bound"] for row in declared["end_to_end"]}
        )
    return bounds


def worsening(old, new, better):
    """How much worse ``new`` is than ``old``, as a share of ``old``
    (negative when it is better)."""
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def verdict(old, new, better, bound):
    worse_by = worsening(old, new, better)
    if worse_by > bound:
        return "WORSE"
    if worse_by < -bound:
        return "better"
    return "within"


def failed_fraction(row):
    return row["failed"] / row["attempted"] if row["attempted"] else 0.0


def _outcome(name, old, new, shaky, bounds):
    """One metric's verdict, or None when it has nothing to say."""
    bound = bounds.get(name)
    better = metrics.directions()[name]
    if name in metrics.EXACT:
        if old == new:
            return "identical"
        if bound is None:
            return "CHANGED"
        return verdict(old, new, better, bound) + " (exact metric changed)"
    if bound is None:
        return None
    if shaky:
        return "unresolved"
    return verdict(old, new, better, bound)


def compare_rows(old, new, bounds):
    """Lines of (metric, old, new, verdict) for one (workload, trace)
    pair of result rows, and whether the pair regressed."""
    old_values = {name: cell["value"] for name, cell in old["metrics"].items()}
    new_values = {name: cell["value"] for name, cell in new["metrics"].items()}
    shared = [name for name in old_values if name in new_values]
    committed = "records_committed"
    if old_values.get(committed) != new_values.get(committed):
        refusal = (committed, old_values.get(committed), new_values.get(committed),
                   "REFUSED: not the same work")
        return [refusal], False
    shaky = old["noisy"] or new["noisy"] or any(
        old_values[name] != new_values[name]
        for name in shared if name in metrics.EXACT
    )
    lines = []
    for name in shared:
        outcome = _outcome(name, old_values[name], new_values[name], shaky, bounds)
        if outcome is not None:
            lines.append((name, old_values[name], new_values[name], outcome))
    if failed_fraction(new) > failed_fraction(old):
        lines.append(("ops_failed_frac", failed_fraction(old),
                      failed_fraction(new), "WORSE"))
    regressed = any(line[3].startswith("WORSE") for line in lines)
    return lines, regressed


def compare_documents(old_doc, new_doc, bounds):
    """Text report and overall exit status."""
    new_rows = {(row["workload"], row["trace"]): row for row in new_doc["rows"]}
    report = []
    status = 0
    for old in old_doc["rows"]:
        key = (old["workload"], old["trace"])
        new = new_rows.get(key)
        if new is None:
            continue
        lines, regressed = compare_rows(old, new, bounds)
        report.append("{0} ({1}){2}".format(
            key[0], "traced" if key[1] else "end-to-end",
            "  [noisy]" if old["noisy"] or new["noisy"] else "",
        ))
        for name, before, after, outcome in lines:
            report.append("  {0:<34} {1:>14.6g} -> {2:>14.6g}  {3}".format(
                name, before, after, outcome
            ))
        if regressed:
            status = 1
    return "\n".join(report), status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    old_doc, new_doc = (json.loads(Path(path).read_text()) for path in argv)
    report, status = compare_documents(old_doc, new_doc, declared_bounds())
    print(report)
    print("REGRESSED" if status else "ok")
    return status


if __name__ == "__main__":
    sys.exit(main())
