"""The ledger's declared metrics: names, units, direction, bounds.

``BENCHMARK.json`` at the repository root carries the same tables for
the driver; ``ledger/tests`` keeps the two in step.

Every workload prints every metric (the driver's contract), so the
end-to-end list holds only metrics that mean something on all four
workloads.  The workload-specific ones the issue also asked for
(``monitor_slowdown``, ``guest_overhead_sim``, ``resume_sim_ms``) are
per-layer metrics here, and ``ops_failed_frac`` is the result's
``failed``/``attempted`` pair; ``compare.py`` still bounds them.
"""

#: (name, unit, better, bound): the bound is the share of the older
#: run's value by which the metric may get worse.
END_TO_END = [
    # cluster + session bring-up, program install, job declaration,
    # input generation, plus the one-off import of repro and the ledger
    ("setup_s", "s", "lower", 0.25),
    # records committed by the filter (live) or carried from store to
    # finished report (post-mortem) per reference second
    ("norm_records_per_s", "rec/s", "higher", 0.15),
    # controller commands answered (live) or analysis steps served
    # (post-mortem) per reference second
    ("norm_commands_per_s", "cmd/s", "higher", 0.15),
    # the unit's committed text log -> sealed v2 store on disk
    ("norm_pack_records_per_s", "rec/s", "higher", 0.12),
    # committed log/store bytes per committed record; exact per seed
    ("bytes_per_record", "B/rec", "lower", 0.02),
    # exact per seed; a change means the workload itself changed
    ("records_committed", "count", "higher", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

_SELF = [("{0}.self_s", "s", "lower"), ("{0}.share", "ratio", "lower")]
_CALLS = [("{0}.calls", "count", "lower")]


def _fold(layer, calls=True):
    rows = _SELF + (_CALLS if calls else [])
    return [(name.format(layer), unit, better) for name, unit, better in rows]


#: (name, unit, better).  No bounds: these explain, they do not gate.
PER_LAYER = (
    [
        ("sim.events", "count", "lower"),
        ("sim.events_per_record", "ev/rec", "lower"),
        ("sim.dispatch_per_s", "ev/s", "higher"),
    ]
    + _fold("sim", calls=False)
    + [("kernel.unmetered_wall_s", "s", "lower")]
    + _fold("kernel")
    + _fold("net")
    + [
        ("metering.hook_wall_s", "s", "lower"),
        ("metering.wire_bytes_per_record", "B/rec", "lower"),
        ("metering.dropped", "count", "lower"),
        ("metering.monitor_slowdown", "ratio", "lower"),
        ("metering.guest_overhead_sim", "ratio", "lower"),
    ]
    + _fold("metering")
    + [
        ("filtering.decode_per_s", "rec/s", "higher"),
        ("filtering.select_per_s", "rec/s", "higher"),
        ("filtering.format_per_s", "rec/s", "higher"),
        ("filtering.accept_ratio", "ratio", "higher"),
    ]
    + _fold("filtering", calls=False)
    + [
        ("tracestore.append_per_s", "rec/s", "higher"),
        ("tracestore.scan_per_s", "rec/s", "higher"),
        ("tracestore.select_per_s", "rec/s", "higher"),
        ("tracestore.scan_oracle_per_s", "rec/s", "higher"),
        ("tracestore.segments", "count", "lower"),
    ]
    + _fold("tracestore", calls=False)
    + [
        ("streaming.fold_per_s", "rec/s", "higher"),
        ("streaming.peak_state", "count", "lower"),
        ("streaming.stats_ms_p50", "ms", "lower"),
        ("streaming.stats_ms_p90", "ms", "lower"),
    ]
    + _fold("streaming", calls=False)
    + [
        ("analysis.trace_build_per_s", "rec/s", "higher"),
        ("analysis.match_per_s", "rec/s", "higher"),
        ("analysis.order_per_s", "rec/s", "higher"),
        ("analysis.parallelism_per_s", "rec/s", "higher"),
        ("analysis.stats_per_s", "rec/s", "higher"),
        ("analysis.batch_digest_per_s", "rec/s", "higher"),
        ("analysis.pairs_matched", "count", "higher"),
        ("analysis.unmatched_sends", "count", "lower"),
    ]
    + _fold("analysis", calls=False)
    + [
        ("controller.command_ms_p50", "ms", "lower"),
        ("controller.command_ms_p90", "ms", "lower"),
        ("controller.sim_ms_per_command", "ms", "lower"),
        ("controller.resume_sim_ms", "ms", "lower"),
        ("controller.relaunches", "count", "lower"),
    ]
    + _fold("controller", calls=False)
    + _fold("daemon")
    + [
        ("guest.share", "ratio", "lower"),
        ("other.share", "ratio", "lower"),
        ("harness.share", "ratio", "lower"),
        ("harness.raw_records_per_s", "rec/s", "higher"),
        ("harness.raw_wall_s", "s", "lower"),
        ("harness.spin_ms", "ms", "lower"),
        ("harness.units", "count", "higher"),
        ("harness.trace_overhead", "ratio", "lower"),
        ("harness.ops_failed", "count", "lower"),
    ]
)

#: Simulated-time and count metrics: the simulator is deterministic
#: for a fixed seed, so these must repeat bit-for-bit.
EXACT = frozenset(
    [
        "bytes_per_record",
        "records_committed",
        "sim.events",
        "sim.events_per_record",
        "metering.wire_bytes_per_record",
        "metering.dropped",
        "metering.guest_overhead_sim",
        "filtering.accept_ratio",
        "tracestore.segments",
        "streaming.peak_state",
        "analysis.pairs_matched",
        "analysis.unmatched_sends",
        "controller.sim_ms_per_command",
        "controller.resume_sim_ms",
        "controller.relaunches",
        "harness.ops_failed",
    ]
    + [name for name, __, __ in PER_LAYER if name.endswith(".calls")]
)

#: Bounds ``compare.py`` applies to per-layer metrics that would have
#: been end-to-end had every workload been able to print them.
EXTRA_BOUNDS = {
    "metering.monitor_slowdown": 0.10,
    "metering.guest_overhead_sim": 0.01,
    "controller.resume_sim_ms": 0.01,
}

WORKLOADS = ("farm_live", "dgram_burst_live", "recovery_churn", "postmortem")


def units():
    """metric name -> unit, for both tables."""
    table = {name: unit for name, unit, __, __ in END_TO_END}
    table.update({name: unit for name, unit, __ in PER_LAYER})
    return table


def directions():
    table = {name: better for name, __, better, __ in END_TO_END}
    table.update({name: better for name, __, better in PER_LAYER})
    return table


def bounds():
    table = {name: bound for name, __, __, bound in END_TO_END}
    table.update(EXTRA_BOUNDS)
    return table
