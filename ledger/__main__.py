"""``python -m ledger``: the perf ledger's command line.

``bench`` runs one workload in this process and prints its result as
the last line of standard output (the driver's contract)::

    python3 -m ledger bench --workload farm_live --seed 7 --seconds 24 --trace 0

``run`` runs every workload (or one), each in its own fresh child
process, one at a time, and writes one document::

    python3 -m ledger run --seed 7 [--workload W] [--trace] --out FILE
"""

import time

_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from ledger import harness, metrics  # noqa: E402

#: Importing repro and the ledger is part of every run's set-up.
IMPORT_S = time.perf_counter() - _IMPORT_START

DEFAULT_SECONDS = 24
REPO_ROOT = Path(__file__).resolve().parent.parent


def _print_metrics(result):
    mode = "per-layer (traced)" if result["trace"] else "end-to-end"
    print("{0}  seed {1}  {2}  {3} units{4}".format(
        result["workload"], result["seed"], mode, result["units"],
        "  NOISY" if result["noisy"] else "",
    ))
    for name, cell in result["metrics"].items():
        print("  {0:<34} {1:>16.6g} {2}".format(name, cell["value"], cell["unit"]))
    print("  ops failed {0} of {1}{2}".format(
        result["failed"], result["attempted"],
        "  (" + ", ".join(result["failed_checks"]) + ")"
        if result["failed_checks"] else "",
    ))


def bench(args):
    result = harness.run_workload(
        args.workload, args.seed, args.seconds, args.trace, IMPORT_S
    )
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    _print_metrics(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 1 if args.strict and result["failed"] else 0


def run(args):
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    document = {"schema": harness.SCHEMA, "seed": args.seed, "rows": []}
    status = 0
    for name in names:
        for trace in (0, 1) if args.trace else (0,):
            part = out.with_name("{0}.{1}.{2}.part".format(out.name, name, trace))
            command = [
                sys.executable, "-m", "ledger", "bench",
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(part),
            ] + (["--strict"] if args.strict else [])
            child = subprocess.run(command, cwd=str(REPO_ROOT))
            status = status or child.returncode
            if part.exists():
                document["rows"].append(json.loads(part.read_text()))
                part.unlink()
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print("wrote {0}".format(out))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m ledger")
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("bench", help="one workload, in this process")
    one.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--out", help="also write the full result document here")
    one.add_argument("--strict", action="store_true",
                     help="exit non-zero if any operation or oracle failed")
    one.set_defaults(func=bench)

    every = commands.add_parser("run", help="all workloads, one child each")
    every.add_argument("--seed", type=int, required=True)
    every.add_argument("--workload", choices=metrics.WORKLOADS)
    every.add_argument("--trace", action="store_true",
                       help="add the traced per-layer pass")
    every.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    every.add_argument("--out", default=str(harness.OUT_DIR / "ledger.json"))
    every.add_argument("--strict", action="store_true")
    every.set_defaults(func=run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
