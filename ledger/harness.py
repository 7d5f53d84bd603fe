"""The one harness: runs a workload's identical units, normalises host
time, gates correctness, and assembles the fixed-schema result.

One process runs one workload, single-threaded; ``python -m ledger
run`` starts one such child per workload, one at a time.
"""

import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

from ledger import metrics, replays, spin, workloads
from ledger.trace import LAYERS, Probe, profiled

SCHEMA = 1
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Scale of the discarded warm-up unit: big enough to touch every lazy
#: path (rule compilers, generated screens, codec caches), small enough
#: not to eat the run.
WARMUP_SCALE = 0.1
#: A traced run spends this share of ``--seconds`` on untraced units
#: (the overhead baseline and the bare/sink interleave); the traced
#: unit and the replays take the rest.
TRACE_UNTRACED_SHARE = 0.4
#: Set-up is sampled at least this often, whatever the unit length.
MIN_UNITS = 3
#: A live unit packs at least this many records (its log, repeated).
PACK_MIN_RECORDS = 6000
#: Slices taken at start-up to read the speed the imports ran at.
CALIBRATION_SLICES = 5


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, share):
    """Nearest-rank percentile; 0.0 of nothing."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _digest(text):
    return hashlib.sha256(text.encode("ascii", "replace")).hexdigest()


class Run:
    """One workload, one seed, one process."""

    def __init__(self, name, seed, import_s=0.0, scale=1.0):
        self.pacer = spin.Pacer()
        for __ in range(CALIBRATION_SLICES):
            self.pacer.mark()
        speed = statistics.median(self.pacer.durations()) / spin.SLICE_REF_S
        #: Importing repro and the ledger, in reference seconds.
        self.import_s = import_s / speed
        self.scratch = OUT_DIR / "tmp-{0}".format(os.getpid())
        self._stores = 0
        self.workload = workloads.by_name(self.new_store_base)[name]
        self.seed = seed
        self.scale = scale  # below 1.0 only in the ledger's own tests
        self.samples = []
        self.last_unit = None
        self.checks = []  # (name, ok), once-per-run gates included

    def new_store_base(self):
        self._stores += 1
        return str(self.scratch / "store{0}".format(self._stores))

    # -- units ----------------------------------------------------------

    def _one_unit(self, scale):
        """setup -> run -> pack, untraced, a slice after every call."""
        workload, pacer = self.workload, self.pacer
        probe = Probe(workload.name, len(self.samples), pacer)
        gc.collect()
        m0 = pacer.mark()
        ctx = workload.setup(self.seed, scale, probe)
        m1 = pacer.mark()
        unit = workload.run(ctx)
        m2 = pacer.mark()
        if "pack" not in unit.timed:
            # A short log is packed several times over, so that the
            # pack is long enough for slices to land inside it.
            repeats = -(-PACK_MIN_RECORDS // len(unit.records))
            packed = repeats * len(unit.records)
            __, seconds = probe.timed(
                "pack", "tracestore", packed,
                lambda: [
                    workloads.pack_log(
                        unit.log_text, self.new_store_base(), probe.pace
                    )
                    for __ in range(repeats)
                ],
            )
            unit.timed["pack"] = (packed, seconds)
        run_s = pacer.reference_seconds(m1, m2)
        raw_run_s = pacer.host_seconds(m1, m2)
        sample = {
            "setup_s": pacer.reference_seconds(m0, m1),
            "run_s": run_s,
            "raw_run_s": raw_run_s,
            "factor": raw_run_s / run_s,
            "digest": _digest(unit.log_text),
        }
        return unit, sample

    def _bare(self, metered):
        """The unit's guests without the monitor, once per session the
        unit runs: (reference seconds, guest cpu ms, wire, host names)."""
        workload = self.workload
        jobs = workload.jobs(self.scale)
        if not jobs:
            return 0.0, 0.0, [], {}
        gc.collect()
        probe = Probe(workload.name, len(self.samples), self.pacer)
        runs, seconds = probe.timed(
            "sink" if metered else "bare", "kernel", 0,
            lambda: [
                workloads.run_bare(jobs, self.seed, metered, probe.pace)
                for __ in range(workload.sessions)
            ],
        )
        cpu_ms = sum(cpu for cpu, __, __ in runs)
        wire = [message for __, messages, __ in runs for message in messages]
        return seconds, cpu_ms, wire, runs[0][2]

    def measure(self, seconds, interleave_bare=False):
        """Identical units, back to back, until ``seconds`` have passed.
        With ``interleave_bare`` every unit is followed by the same
        guests bare and metered-to-a-sink (A B C A B C ...)."""
        self._one_unit(WARMUP_SCALE * self.scale)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(self.samples) < MIN_UNITS:
            unit, sample = self._one_unit(self.scale)
            if interleave_bare:
                sample["bare_s"], sample["bare_cpu_ms"], __, __ = self._bare(False)
                sample["sink_s"], __, self.wire, self.wire_hosts = self._bare(True)
            factor = sample["factor"]
            sample.update(
                records=unit.n_records,
                requests=unit.requests,
                dropped=unit.dropped,
                mismatched=unit.mismatched,
                bad_commands=sum(1 for c in unit.commands if not c[3]),
                checks=list(unit.checks),
                command_ms=[(c[0], c[1] / factor) for c in unit.commands],
                timed=unit.timed,
            )
            self.samples.append(sample)
            self.last_unit = unit
        digests = {sample["digest"] for sample in self.samples}
        self.checks.append(("units_share_one_digest", len(digests) == 1))
        self.checks += self.workload.checks(self.last_unit)

    # -- accounting -----------------------------------------------------

    def accounting(self):
        """(attempted, failed): records + commands + oracle checks, and
        how many of them went wrong."""
        attempted = failed = 0
        for sample in self.samples:
            attempted += sample["records"] + sample["requests"] + len(sample["checks"])
            failed += sample["dropped"] + sample["mismatched"] + sample["bad_commands"]
            failed += sum(1 for __, ok in sample["checks"] if not ok)
        attempted += len(self.checks)
        failed += sum(1 for __, ok in self.checks if not ok)
        return attempted, failed

    def failed_checks(self):
        names = [name for name, ok in self.checks if not ok]
        for sample in self.samples:
            names += [name for name, ok in sample["checks"] if not ok]
        return sorted(set(names))

    def noisy(self):
        factors = [sample["factor"] for sample in self.samples]
        return spin.is_noisy(factors)

    # -- end to end -----------------------------------------------------

    def end_to_end(self):
        unit = self.last_unit
        samples = self.samples
        pack = [s["timed"]["pack"] for s in samples]
        return {
            "setup_s": self.import_s + _median([s["setup_s"] for s in samples]),
            "norm_records_per_s": _median([s["records"] / s["run_s"] for s in samples]),
            "norm_commands_per_s": _median(
                [s["requests"] / s["run_s"] for s in samples]
            ),
            "norm_pack_records_per_s": _median(
                [count / seconds for count, seconds in pack]
            ),
            "bytes_per_record": unit.log_bytes / len(unit.records),
            "records_committed": unit.n_records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    # -- per layer ------------------------------------------------------

    def traced_unit(self):
        """One more unit with spans on and ``run`` under cProfile (and
        no slices inside it: the yardstick stays out of the profile)."""
        workload, pacer = self.workload, self.pacer
        probe = Probe(workload.name, len(self.samples), record=True)
        gc.collect()
        first = pacer.mark()
        with probe.span("unit", "harness") as root:
            with probe.span("setup", "harness"):
                ctx = workload.setup(self.seed, self.scale, probe)
            with probe.span("run", "harness") as run_span:
                unit, fold = profiled(lambda: workload.run(ctx))
            root["records"] = run_span["records"] = unit.n_records
        last = pacer.mark()
        factor = pacer.host_seconds(first, last) / pacer.reference_seconds(first, last)
        for layer in fold.values():
            layer["self_s"] /= factor
        wall = (run_span["end"] - run_span["start"]) / factor
        return unit, fold, wall, probe

    def per_layer(self):
        unit = self.last_unit
        samples = self.samples
        traced, fold, traced_wall, probe = self.traced_unit()
        probe.pacer = self.pacer  # the replays are paced and spanned
        self.checks.append(
            ("traced_unit_same_records",
             _digest(traced.log_text) == samples[0]["digest"])
        )
        if unit.sim_events:
            wire, hosts = self.wire, self.wire_hosts
        else:
            wire, hosts = workloads.raw_messages(unit.records)
        values = dict.fromkeys((name for name, __, __ in metrics.PER_LAYER), 0.0)
        values.update(
            replays.replay_layers(
                wire, hosts, self.workload.templates, unit.sim_events,
                self.new_store_base(), probe,
            )
        )

        total = sum(layer["self_s"] for layer in fold.values())
        for name in LAYERS:
            for key in ("self_s", "calls"):
                metric = "{0}.{1}".format(name, key)
                if metric in values:
                    values[metric] = fold[name][key]
            values[name + ".share"] = fold[name]["self_s"] / total

        run_s = _median([s["run_s"] for s in samples])
        bare_s = _median([s.get("bare_s", 0.0) for s in samples])
        sink_s = _median([s.get("sink_s", 0.0) for s in samples])
        bare_cpu = samples[-1].get("bare_cpu_ms", 0.0)
        commands = [ms for s in samples for __, ms in s["command_ms"]]
        stats_ms = [
            ms for s in samples for verb, ms in s["command_ms"] if verb == "stats"
        ]
        digest = unit.live_digest or {}
        values.update({
            "sim.events": unit.sim_events,
            "sim.events_per_record": unit.sim_events / unit.n_records,
            "kernel.unmetered_wall_s": bare_s,
            "metering.hook_wall_s": sink_s - bare_s,
            "metering.dropped": unit.dropped,
            "metering.monitor_slowdown": (
                _median([s["setup_s"] + s["run_s"] for s in samples]) / bare_s
                if bare_s else 0.0
            ),
            "metering.guest_overhead_sim": (
                unit.guest_cpu_ms / bare_cpu - 1.0 if bare_cpu else 0.0
            ),
            "tracestore.segments": unit.segments,
            "streaming.peak_state": digest.get("peak_state", 0),
            "streaming.stats_ms_p50": _median(stats_ms),
            "streaming.stats_ms_p90": _percentile(stats_ms, 0.9),
            "analysis.pairs_matched": unit.counts.get("pairs_matched", 0),
            "analysis.unmatched_sends": unit.counts.get("unmatched_sends", 0),
            "controller.command_ms_p50": _median(commands),
            "controller.command_ms_p90": _percentile(commands, 0.9),
            "controller.sim_ms_per_command": (
                sum(c[2] for c in unit.commands) / len(unit.commands)
                if unit.commands else 0.0
            ),
            "controller.resume_sim_ms": unit.resume_sim_ms,
            "controller.relaunches": unit.relaunches,
            "harness.raw_records_per_s": _median(
                [s["records"] / s["raw_run_s"] for s in samples]
            ),
            "harness.raw_wall_s": _median([s["raw_run_s"] for s in samples]),
            "harness.spin_ms": _median(self.pacer.durations()) * 1e3,
            "harness.units": len(samples),
            "harness.trace_overhead": traced_wall / run_s,
            "harness.ops_failed": self.accounting()[1],
        })
        for step in ("trace_build", "match", "order", "parallelism", "stats",
                     "batch_digest"):
            values["analysis.{0}_per_s".format(step)] = _median(
                [s["timed"][step][0] / s["timed"][step][1]
                 for s in samples if step in s["timed"]]
            )
        per_verb = {}
        for sample in samples:
            for verb, ms in sample["command_ms"]:
                per_verb.setdefault(verb, []).append(ms)
        detail = {
            "spans": probe.spans,
            "fold": fold,
            "per_verb_ms": {
                verb: {"n": len(ms), "p50": _median(ms), "p90": _percentile(ms, 0.9)}
                for verb, ms in sorted(per_verb.items())
            },
        }
        return values, detail


def environment(slices):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "slice_ref_ms": spin.SLICE_REF_S * 1e3,
        "slices": len(slices),
        "slice_ms": spin.summary(slices),
    }


def run_workload(name, seed, seconds, trace, import_s=0.0, scale=1.0):
    """Run one workload in this process; returns the result document.

    ``trace`` off: the end-to-end metrics.  ``trace`` on: the per-layer
    metrics, the spans and the cProfile fold."""
    run = Run(name, seed, import_s, scale)
    run.scratch.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            run.measure(seconds * TRACE_UNTRACED_SHARE, interleave_bare=True)
            values, detail = run.per_layer()
        else:
            run.measure(seconds)
            values, detail = run.end_to_end(), {}
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    attempted, failed = run.accounting()
    units = metrics.units()
    result = {
        "schema": SCHEMA,
        "workload": name,
        "why": run.workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "units": len(run.samples),
        "noisy": run.noisy(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": run.failed_checks(),
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
        "digest": run.samples[0]["digest"],
        "env": environment(run.pacer.durations()),
    }
    result.update(detail)
    return result
