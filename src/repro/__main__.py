"""``python -m repro`` -- demonstrations, trace tools, and offline
analysis.

Without arguments, replays the paper's Appendix B session.  With an
example name, runs that example; the other subcommands work on trace
files on the real filesystem (see ``python -m repro --help``).
"""

import importlib.util
import json
import pathlib
import sys
import time

from repro.cliflags import parse_flags, truthy
from repro.filtering.records import format_record, parse_trace
from repro.metering.messages import record_fields
from repro.streaming.engine import format_firing, format_snapshot
from repro.streaming.queries import QUERY_KINDS
from repro.streaming.twins import replay_engine
from repro.tracestore import StoreReader, pack_records, scan_fast
from repro.tracestore.errors import StoreError
from repro.tracestore.fsck import format_report, fsck_store, repair_store
from repro.tracestore.format import DEFAULT_SEGMENT_BYTES
from repro.tracestore.writer import flush_to_files

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent.parent / "examples"

USAGE = """\
usage: python -m repro [<example> | --list | trace ... | stats ... | watch ...
                        | chaos ...]

Examples (simulated monitor sessions; default: quickstart):
  python -m repro                 # quickstart (Appendix B)
  python -m repro tsp_study       # the TSP debugging study
  python -m repro --list          # every available example

Trace-store tools (trace files on the real filesystem):
  python -m repro trace pack <logfile> <storebase> [--compress yes]
  python -m repro trace inspect <storebase>            segment footers
  python -m repro trace cat <storebase> [--event send] [--salvage yes]
  python -m repro trace fsck <storebase> [--repair yes]

Offline analysis (replay a finished trace through the streaming engine):
  python -m repro stats <log-or-storebase> [--window MS] [--digest yes]
  python -m repro watch <log-or-storebase> <kind> [--window MS] [--rule R]
                        [--count N] [--threshold N] [--event NAME]
                        query kinds: undelivered pattern quiet rate

Chaos search (seed-derived fault schedules, oracles, shrinking):
  python -m repro chaos run [--profile mixed] [--seeds 0:25]
  python -m repro chaos soak [--schedules 25]
  python -m repro chaos replay <artifact.json>
  python -m repro chaos shrink <artifact.json>

Inside a live session the controller commands `stats` and `watch` ask
the running filter's engine the same questions (see docs/USERS_MANUAL)."""

TRACE_USAGE = """\
usage: python -m repro trace <subcommand>
  pack <logfile> <storebase> [--segment-bytes N] [--compress yes]
                     convert a text trace log into a segmented store;
                     --compress stores each sealed segment's data
                     region as one zlib blob
  inspect <storebase>
                     show per-segment index footers, integrity status,
                     compression ratios, and verify/scan cost
  cat <storebase> [--machine N] [--pid N] [--event NAME]
                  [--since T] [--until T] [--salvage yes]
                     stream selected records as log lines
  fsck <storebase> [--repair yes] [--out BASE]
                     verify every segment (exit 1 if damaged); with
                     --repair, write a clean copy at BASE (default
                     <storebase>.repaired) keeping only verified frames"""

def _available():
    if not EXAMPLES_DIR.is_dir():
        return []
    return sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


# ----------------------------------------------------------------------
# trace subcommands
# ----------------------------------------------------------------------


def _trace_pack(args):
    positional, flags = parse_flags(args, {"segment-bytes": int, "compress": truthy})
    if len(positional) != 2:
        print(TRACE_USAGE)
        return 1
    logfile, base = positional
    records = parse_trace(pathlib.Path(logfile).read_text(encoding="ascii"))
    compress = flags.get("compress", False)
    __, writer = pack_records(
        records,
        base,
        segment_bytes=flags.get("segment-bytes", DEFAULT_SEGMENT_BYTES),
        writer_driver=flush_to_files,
        compress=compress,
    )
    skipped = len(records) - writer.records_appended
    print(
        "packed {0} records into {1}{2} segment(s) at {3}.seg*{4}".format(
            writer.records_appended,
            writer.segments_sealed,
            " compressed" if compress else "",
            base,
            " ({0} skipped: not an Appendix-A event)".format(skipped)
            if skipped else "",
        )
    )
    return 0


def _integrity_suffix(report, segment=None, verify_ms=None):
    """One-line integrity summary for a segment (inspect output)."""
    parts = ["v{0}".format(report["version"] or "?"), report["status"]]
    parts.append("{0}B committed".format(report["committed_bytes"]))
    if report["torn_bytes"]:
        parts.append("{0}B torn".format(report["torn_bytes"]))
    if report["quarantined_bytes"]:
        parts.append("{0}B quarantined".format(report["quarantined_bytes"]))
    if segment is not None and segment.compressed:
        raw = segment.data_bytes()
        stored = segment.stored_data_bytes()
        parts.append(
            "zlib {0}B/{1}B ({2:.0f}%)".format(
                stored, raw, 100.0 * stored / raw if raw else 100.0
            )
        )
    if verify_ms is not None:
        parts.append("verify {0:.1f}ms".format(verify_ms))
    return ", ".join(parts)


def _trace_inspect(args):
    if len(args) != 1:
        print(TRACE_USAGE)
        return 1
    reader = StoreReader.from_files(args[0])
    # Time each segment's integrity pass individually: for compressed
    # segments this is the inflate + frame-walk cost a scan pays.
    integrity, verify_ms = {}, {}
    for segment in reader.segments:
        began = time.perf_counter()
        report = segment.verify()
        verify_ms[segment.path] = (time.perf_counter() - began) * 1000.0
        integrity[report["path"]] = report
    for segment in reader.segments:
        path, footer = segment.path, segment.footer
        report = integrity[path]
        if not segment.valid:
            print(
                "{0}: UNREADABLE ({1}) [{2}]".format(
                    path, report["error"], report["status"]
                )
            )
            continue
        suffix = _integrity_suffix(report, segment, verify_ms[path])
        if footer is None:
            print(
                "{0}: open segment (no footer; recovered by scan) [{1}]".format(
                    path, suffix
                )
            )
            continue
        events = " ".join(
            "{0}={1}".format(name, count)
            for name, count in sorted(footer["events"].items())
        )
        machines = " ".join(
            "m{0}={1}".format(m, count)
            for m, count in sorted(footer["machines"].items(), key=lambda kv: int(kv[0]))
        )
        print(
            "{0}: {1} records, t=[{2}, {3}], {4}; {5} [{6}]".format(
                path, footer["records"], footer["t_min"], footer["t_max"],
                machines, events, suffix,
            )
        )
    print("total records: {0}".format(reader.record_count()))
    print("verify cost: {0:.1f}ms".format(sum(verify_ms.values())))
    began = time.perf_counter()
    try:
        scanned = sum(1 for __ in scan_fast(reader))
    except StoreError as err:
        print("scan cost: n/a (strict scan failed: {0})".format(err))
    else:
        elapsed = time.perf_counter() - began
        print(
            "scan cost: {0:.1f}ms ({1:.0f} records/s, batch fast lane)".format(
                elapsed * 1000.0, scanned / elapsed if elapsed else 0.0
            )
        )
    return 0


def _trace_fsck(args):
    positional, flags = parse_flags(args, {"repair": truthy, "out": str})
    if len(positional) != 1:
        print(TRACE_USAGE)
        return 1
    base = positional[0]
    reader = StoreReader.from_files(base)
    if flags.get("repair"):
        out_base = flags.get("out", base + ".repaired")
        __, writer, report = repair_store(
            reader, out_base, writer_driver=flush_to_files
        )
        for line in format_report(report):
            print(line)
        print(
            "repaired copy: {0} record(s) in {1} sealed segment(s) at "
            "{2}.seg*".format(
                writer.records_appended, writer.segments_sealed, out_base
            )
        )
    else:
        report = fsck_store(reader)
        for line in format_report(report):
            print(line)
    return 0 if report["clean"] else 1


def _trace_cat(args):
    spec = {
        "machine": int,
        "pid": int,
        "event": str,
        "since": int,
        "until": int,
        "salvage": truthy,
    }
    positional, flags = parse_flags(args, spec)
    if len(positional) != 1:
        print(TRACE_USAGE)
        return 1
    reader = StoreReader.from_files(positional[0])
    predicates = {
        "machines": [flags["machine"]] if "machine" in flags else None,
        "events": [flags["event"]] if "event" in flags else None,
        "t_min": flags.get("since"),
        "t_max": flags.get("until"),
        "salvage": flags.get("salvage", False),
    }
    if "pid" in flags:
        if "machine" not in flags:
            print("--pid needs --machine (pids are per-machine)")
            return 1
        predicates["pids"] = [(flags["machine"], flags["pid"])]
    for record in scan_fast(reader, **predicates):
        order = ["event"] + record_fields(record["event"])
        print(format_record(record, order))
    stats = reader.last_stats
    if predicates["salvage"]:
        # A salvage run always reports its loss ledger, even when it
        # turned out to be zero -- "salvaged everything" and "nothing
        # was damaged" must be distinguishable from silence.
        print(
            "# salvage: {0} corrupt frame(s), {1} byte(s) quarantined, "
            "{2} record(s) salvaged".format(
                stats.frames_corrupt,
                stats.bytes_quarantined,
                stats.records_salvaged,
            ),
            file=sys.stderr,
        )
    elif not stats.loss_free():
        print(
            "# loss: {0} corrupt frame(s), {1} byte(s) quarantined, "
            "{2} bad-header segment(s)".format(
                stats.frames_corrupt,
                stats.bytes_quarantined,
                stats.segments_bad_header,
            ),
            file=sys.stderr,
        )
    return 0


def trace_main(args):
    handlers = {
        "pack": _trace_pack,
        "inspect": _trace_inspect,
        "cat": _trace_cat,
        "fsck": _trace_fsck,
    }
    if not args or args[0] not in handlers:
        print(TRACE_USAGE)
        return 1
    try:
        return handlers[args[0]](args[1:])
    except (FileNotFoundError, ValueError) as err:
        print("trace {0}: {1}".format(args[0], err))
        return 1


# ----------------------------------------------------------------------
# Offline streaming analysis: stats and watch over a finished trace
# ----------------------------------------------------------------------


def _load_records(path, salvage=False):
    """Records from a text log file or a store base, in commit order --
    exactly the stream the live engine folded."""
    p = pathlib.Path(path)
    if p.is_file():
        return list(parse_trace(p.read_text(encoding="ascii")))
    return list(scan_fast(StoreReader.from_files(path), salvage=salvage))


STATS_USAGE = """\
usage: python -m repro stats <log-or-storebase> [--window MS] [--digest yes]
                             [--salvage yes]"""


def stats_main(args):
    spec = {"window": float, "digest": truthy, "salvage": truthy}
    positional, flags = parse_flags(args, spec)
    if len(positional) != 1:
        print(STATS_USAGE)
        return 1
    records = _load_records(positional[0], salvage=flags.get("salvage", False))
    engine = replay_engine(records, window_ms=flags.get("window"))
    engine.finalize()
    if flags.get("digest"):
        print(json.dumps(engine.digest(), sort_keys=True))
    else:
        for line in format_snapshot(engine.snapshot()):
            print(line)
    return 0


WATCH_USAGE = """\
usage: python -m repro watch <log-or-storebase> <kind> [--window MS]
                             [--rule R] [--count N] [--threshold N]
                             [--event NAME] [--salvage yes]
  query kinds: {0}""".format(" ".join(QUERY_KINDS))


def watch_main(args):
    spec_flags = {
        "window": float,
        "rule": str,
        "count": int,
        "threshold": int,
        "event": str,
        "salvage": truthy,
    }
    positional, flags = parse_flags(args, spec_flags)
    if len(positional) != 2 or positional[1] not in QUERY_KINDS:
        print(WATCH_USAGE)
        return 1
    path, kind = positional
    salvage = flags.pop("salvage", False)
    spec = {"kind": kind}
    spec.update(flags)
    engine = replay_engine(
        _load_records(path, salvage=salvage), specs=[(1, spec)]
    )
    engine.finalize(advance_queries=True)
    firings = engine.poll(0)["firings"]
    for firing in firings:
        print(format_firing(firing))
    print("{0} firing(s)".format(len(firings)))
    return 0


# ----------------------------------------------------------------------


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help", "help"):
        print(USAGE)
        return 0
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.chaos.cli import chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] in ("stats", "watch"):
        handler = stats_main if argv[0] == "stats" else watch_main
        try:
            return handler(argv[1:])
        except (FileNotFoundError, ValueError) as err:
            print("{0}: {1}".format(argv[0], err))
            return 1
    names = _available()
    if argv and argv[0] in ("--list", "-l"):
        print("available examples:")
        for name in names:
            print("  ", name)
        return 0
    target = argv[0] if argv else "quickstart"
    if target not in names:
        print("unknown example {0!r}; try: {1}".format(target, ", ".join(names)))
        return 1
    path = EXAMPLES_DIR / (target + ".py")
    spec = importlib.util.spec_from_file_location("repro_example_" + target, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
