"""The four fixed workloads, driven through the public API only.

Closed loop: the simulator is the only client, so a slower pipeline
simply takes longer per unit.  Every unit of a run uses the same seed,
so every unit's record digest must be equal.

Unit sizes are constants: to fit a time cap, run fewer units, never a
smaller unit (``scale`` exists only for the discarded warm-up unit and
the ledger's own tests).
"""

import json
import re
import time
from collections import Counter

from repro.analysis import (
    CommunicationStatistics,
    HappensBefore,
    ParallelismProfile,
    Trace,
)
from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.faults import FaultInjector, FaultPlan
from repro.filtering.records import format_record, parse_trace
from repro.filtering.rules import parse_rules
from repro.kernel import defs
from repro.metering import flags as meter_flags
from repro.metering.messages import (
    HEADER_BYTES,
    MessageCodec,
    is_batch_marker,
    peek_size,
)
from repro.programs import WORKLOADS as PROGRAMS
from repro.programs import install_all
from repro.streaming import twins
from repro.tracestore import (
    StoreReader,
    flush_to_files,
    pack_records,
    scan_fast,
    select,
)
from repro.tracestore.convert import host_names_from_records

from ledger import gen

#: Fig 3.4-style dense templates: type-pinned rules with reductions and
#: a cross-field comparison.  Installed as ``dgram_burst_live``'s
#: templates file and used for ``postmortem``'s ``select``.  The send
#: and receive rules accept *both* halves of a size class: accepting
#: sends whose receives are filtered out would leave every such send
#: outstanding in the filter's streaming matcher, which retries all
#: outstanding sends on every datagram receive (quadratic -- observed
#: while sizing, left for a later issue; see README).
DENSE_RULES = """\
type=send, msgLength>=150, pc=#*
type=receive, msgLength>=150
type=receive, msgLength<100, sourceName=#*, pc=#*
type=receivecall, sock>=0, pc<700
type=socket, domain=2
type=destsocket, sock>=0, pc=#*
type=termproc, status>=0
type=accept, sockName=peerName
machine=9
cpuTime>999999999
"""
DENSE_TEMPLATES_FILE = "ledger.templates"

SINK_PORT = 4400
SINK_MACHINE = "blue"
BARE_STEP_MS = 50.0
BARE_LIMIT_MS = 600000.0
PARSE_CHUNK_LINES = 1000

_COMMAND_ERROR = re.compile(
    r"usage:|unknown command|cannot|failed|not created|no such"
)
_DIGEST_KEYS = ("records", "clock_digest", "pairs_digest", "totals", "per_process")


class Job:
    """One controller job: its flags and ``(machine, program, args)``
    processes.  The same declaration drives the monitored session
    (``addprocess``) and the bare unmetered run (``Cluster.spawn``)."""

    def __init__(self, name, flags, procs):
        self.name = name
        self.flags = flags
        self.procs = procs


class Unit:
    """What one unit produced."""

    def __init__(self):
        self.records = []  # the committed records (primary session)
        self.n_records = 0  # records counted towards throughput
        self.log_text = ""  # digest and pack input
        self.log_bytes = 0  # committed log/store bytes
        self.commands = []  # (verb, wall_ms, sim_ms, ok)
        self.steps = 0  # post-mortem requests (no controller)
        self.sim_events = 0
        self.dropped_by_job = {}  # kernel-reported meter drops
        self.relaunches = 0
        self.guest_cpu_ms = 0.0
        self.live_digest = None
        self.resume_sim_ms = 0.0
        self.mismatched = 0  # records missing/extra vs the fault-free twin
        self.segments = 0
        self.checks = []  # (name, ok) oracle gates evaluated in the unit
        self.timed = {}  # bracketed step -> (records, reference seconds)
        self.counts = {}  # exact analysis counts
        self.reader = None  # the unit's sealed store, when it has one

    @property
    def dropped(self):
        return sum(self.dropped_by_job.values())

    @property
    def requests(self):
        """Controller commands answered, or post-mortem steps served."""
        return len(self.commands) or self.steps


# ----------------------------------------------------------------------
# Driving a monitored session
# ----------------------------------------------------------------------


class Driver:
    """One cluster + measurement session, every call spanned and timed."""

    def __init__(self, seed, log_format, probe, unit, jobs, templates=None):
        self.probe = probe
        self.unit = unit
        self.jobs = jobs
        with probe.span("bring-up", "harness"):
            self.cluster = Cluster(seed=seed)
            self.session = MeasurementSession(
                self.cluster, control_machine="yellow", log_format=log_format
            )
            install_all(self.session)
            if templates is not None:
                for machine in self.cluster.machines.values():
                    machine.fs.install(
                        DENSE_TEMPLATES_FILE, data=templates, mode=0o644
                    )
        if templates is None:
            self.command("filter f1 blue")
        else:
            self.command(
                "filter f1 blue filter descriptions " + DENSE_TEMPLATES_FILE
            )
        self.job_programs = set()

    def command(self, line):
        verb = line.split()[0]
        sim = self.cluster.sim
        with self.probe.span(verb, "controller"):
            sim_before = sim.now
            start = time.perf_counter()
            out = self.session.command(line)
            wall_ms = (time.perf_counter() - start) * 1e3
        ok = _COMMAND_ERROR.search(out) is None
        self.unit.commands.append((verb, wall_ms, sim.now - sim_before, ok))
        if verb == "jobs" and len(line.split()) == 2:
            self.unit.dropped_by_job[line.split()[1]] = sum(
                int(count) for count in re.findall(r"dropped: (\d+)", out)
            )
        return out

    def settle(self, ms=None):
        with self.probe.span("settle", "sim"):
            self.session.settle(ms)

    def declare(self, job):
        self.command("newjob " + job.name)
        for machine, program, args in job.procs:
            self.command(
                "addprocess {0} {1} {2} {3}".format(job.name, machine, program, args)
            )
            self.job_programs.add(program)
        self.command("setflags {0} {1}".format(job.name, job.flags))

    def done_reports(self):
        return self.session.transcript().count("DONE: process")

    def finish(self, job_names):
        """Quiesce, take the live digest and the loss counters, and
        carry the committed records out."""
        unit = self.unit
        self.settle()
        out = self.command("stats f1 digest")
        for line in out.splitlines():
            if line.strip().startswith("{"):
                unit.live_digest = json.loads(line)
        for name in job_names:
            self.command("jobs " + name)
        session = self.session
        with self.probe.span("read_trace", "tracestore") as span:
            if session.log_format == "store":
                reader = session.store_reader("f1")
                unit.records = list(reader.records())
                unit.log_bytes = sum(len(seg.data) for seg in reader.segments)
                unit.segments = len(reader.segments)
                unit.log_text = records_text(unit.records)
            else:
                __, unit.log_text = session.find_filter_log("f1")
                unit.records = list(session.read_trace("f1"))
                unit.log_bytes = len(unit.log_text)
            if span is not None:
                span["records"] = len(unit.records)
        unit.n_records += len(unit.records)
        unit.sim_events += self.cluster.sim.events_run
        unit.relaunches += session.transcript().count("was relaunched")
        unit.guest_cpu_ms += guest_cpu_ms(self.cluster, self.job_programs)


def records_text(records):
    return "\n".join(format_record(record) for record in records) + "\n"


def guest_cpu_ms(cluster, programs):
    return sum(
        proc.cpu_ms
        for machine in cluster.machines.values()
        for proc in machine.procs.values()
        if proc.program_name in programs
    )


def digests_agree(left, right):
    left, right = twins.canonical(left), twins.canonical(right)
    return all(left.get(key) == right.get(key) for key in _DIGEST_KEYS)


# ----------------------------------------------------------------------
# The same guests with no monitor: bare, or metered into a sink
# ----------------------------------------------------------------------


def _sink(chunks):
    """A guest that accepts meter connections and keeps what it reads
    -- the cheapest possible filter stand-in."""

    def sink(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", SINK_PORT))
        yield sys.listen(fd, defs.SOMAXCONN)
        conns = {}
        while True:
            ready, __ = yield sys.select([fd] + list(conns))
            for ready_fd in ready:
                if ready_fd == fd:
                    conn, __peer = yield sys.accept(fd)
                    conns[conn] = chunks.setdefault(len(chunks), [])
                    continue
                data = yield sys.read(ready_fd, 65536)
                if data:
                    conns[ready_fd].append(data)
                else:
                    yield sys.close(ready_fd)
                    del conns[ready_fd]

    return sink


def _rigger(pid, flags):
    def rigger(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.connect(fd, (SINK_MACHINE, SINK_PORT))
        yield sys.setmeter(pid, flags, fd)
        yield sys.close(fd)
        yield sys.exit(0)

    return rigger


def _run_to_exit(cluster, procs, pace):
    """``Cluster.run_until_exit`` in slices of simulated time, with a
    spin slice between them."""
    deadline = cluster.sim.now + BARE_LIMIT_MS
    while any(proc.state != defs.PROC_ZOMBIE for proc in procs):
        if cluster.sim.now > deadline:
            raise RuntimeError("bare guests did not finish")
        cluster.run(until_ms=cluster.sim.now + BARE_STEP_MS)
        pace()


def run_bare(jobs, seed, metered, pace):
    """Run the jobs' guests on a bare ``Cluster``, one job after the
    other.  ``metered`` rigs every guest's meter to a sink guest with
    the job's flags: the kernel hook, framing and wire do their work,
    nothing downstream does.  ``pace()`` is called between slices of
    simulated time.

    Returns (guest cpu ms, wire messages, host names); the wire
    messages (batch markers dropped) are what a filter would have been
    handed, and are empty when unmetered."""
    cluster = Cluster(seed=seed)
    chunks = {}
    if metered:
        cluster.spawn(SINK_MACHINE, _sink(chunks), uid=0, program_name="sink")
    cpu_ms = 0.0
    for job in jobs:
        mask, __ = meter_flags.flags_from_names(job.flags.split())
        procs = []
        for machine, program, args in job.procs:
            proc = cluster.spawn(
                machine, PROGRAMS[program], argv=args.split(),
                program_name=program, start=not metered,
            )
            procs.append((machine, proc))
            if metered:
                rigger = cluster.spawn(
                    machine, _rigger(proc.pid, mask), uid=0, program_name="rigger"
                )
                cluster.run_until_exit([rigger])
        if metered:
            for machine, proc in procs:
                cluster.machine(machine).continue_proc(proc)
        _run_to_exit(cluster, [proc for __, proc in procs], pace)
        cpu_ms += sum(proc.cpu_ms for __, proc in procs)
    if metered:
        cluster.run(until_ms=cluster.sim.now + 50.0)  # last batches land
    wire = []
    for parts in chunks.values():
        data = b"".join(parts)
        offset = 0
        while offset + HEADER_BYTES <= len(data):
            size = peek_size(data, offset)
            if not is_batch_marker(data, offset):
                wire.append(data[offset:offset + size])
            offset += size
    return cpu_ms, wire, cluster.host_table.names_by_id()


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------


class _OneJobLive:
    """A monitored session running one job to completion, polling
    ``stats f1`` every ``poll_ms`` of simulated time."""

    sessions = 1

    def setup(self, seed, scale, probe):
        driver = Driver(
            seed, self.log_format, probe, Unit(), self.jobs(scale), self.templates
        )
        driver.declare(driver.jobs[0])
        return driver

    def run(self, driver):
        job = driver.jobs[0]
        driver.command("startjob " + job.name)
        while driver.done_reports() < len(job.procs):
            driver.settle(self.poll_ms)
            driver.command("stats f1")
        driver.finish([job.name])
        return driver.unit


class FarmLive(_OneJobLive):
    name = "farm_live"
    why = (
        "dense master/worker farm, setflags all, store log: every record "
        "crosses kernel, metering, streaming and store append; select is trivial"
    )
    log_format = "store"
    templates = None  # the default wildcard templates
    tasks = 3000
    poll_ms = 50.0

    def jobs(self, scale=1.0):
        procs = [("red", "mwmaster", "7000 6 %d 1" % max(6, int(self.tasks * scale)))]
        procs += [
            (machine, "mwworker", "red 7000")
            for machine in ("red", "green", "blue", "red", "green", "blue")
        ]
        return [Job("farm", "all", procs)]

    def checks(self, unit):
        """live == replay == batch, and the kernel dropped nothing."""
        engine = twins.replay_engine(unit.records)
        live_ok = digests_agree(unit.live_digest, engine.digest())
        batch = twins.batch_digest(Trace(list(unit.records)))
        return [
            ("live_equals_replay", live_ok),
            ("replay_equals_batch",
             twins.diff_digests(engine.finalize().digest(), batch) == []),
            ("metering_dropped_zero", unit.dropped == 0),
        ]


class DgramBurstLive(_OneJobLive):
    name = "dgram_burst_live"
    why = (
        "bursty datagram pairs, immediate flags, dense templates, text log: "
        "per-message wire batches and select/reduce-heavy; the store does nothing"
    )
    log_format = "text"
    templates = DENSE_RULES
    messages = 2600
    poll_ms = 100.0
    flags = "send receive receivecall socket destsocket termproc immediate"
    #: (consumer machine, producer machine, port, bytes, gap ms): two
    #: pairs burst at gap 0 and really lose datagrams, two are paced.
    pairs = (
        ("red", "green", 6001, 64, 0),
        ("red", "blue", 6002, 96, 1),
        ("green", "red", 6003, 128, 0),
        ("green", "blue", 6004, 160, 1),
    )

    def jobs(self, scale=1.0):
        count = max(20, int(self.messages * scale))
        procs = [
            (consumer, "dgramconsumer", "%d %d 300" % (port, count))
            for consumer, __, port, __, __ in self.pairs
        ]
        procs += [
            (producer, "dgramproducer",
             "%s %d %d %d %d" % (consumer, port, count, size, gap))
            for consumer, producer, port, size, gap in self.pairs
        ]
        return [Job("dgram", self.flags, procs)]

    def checks(self, unit):
        # Reduced records lack fields the batch analyses read, so only
        # the replay twin applies: the tap fed the fold exactly the
        # committed records.  (The live engine is still open, so the
        # replay is compared before it is finalized.)
        replayed = twins.replay_engine(unit.records).digest()
        return [("live_equals_replay", digests_agree(unit.live_digest, replayed))]


class RecoveryChurn:
    name = "recovery_churn"
    why = (
        "30 back-to-back pingpong jobs, then a datagram job under a 7-fault "
        "plan and resume, plus the fault-free twin: controller, daemon and "
        "process creation do the work, the data path almost none"
    )
    log_format = "text"
    templates = None
    sessions = 2  # the faulted one and its fault-free twin
    pingpong_jobs = 30
    sends = 80

    def jobs(self, scale=1.0):
        jobs = [
            Job(
                "p%d" % i,
                "send receive accept connect termproc",
                [
                    ("red", "pingpongserver", "%d 10" % (5100 + i)),
                    ("green", "pingpongclient", "red %d 10" % (5100 + i)),
                ],
            )
            for i in range(max(1, int(self.pingpong_jobs * scale)))
        ]
        jobs.append(
            Job(
                "chaos",
                "send termproc immediate",
                [
                    ("red", "dgramproducer", "green 6000 %d 64 5" % self.sends),
                    ("green", "dgramproducer", "red 6001 %d 64 5" % self.sends),
                ],
            )
        )
        return jobs

    def setup(self, seed, scale, probe):
        unit = Unit()
        jobs = self.jobs(scale)
        faulted = Driver(seed, self.log_format, probe, unit, jobs)
        twin = Driver(seed, self.log_format, probe, unit, jobs)
        return faulted, twin

    def _session(self, driver, with_faults):
        *pingpongs, chaos = driver.jobs
        for job in pingpongs:  # the Appendix B shape, over and over
            driver.declare(job)
            driver.command("startjob " + job.name)
            driver.settle()
            driver.command("jobs " + job.name)
            driver.command("stats f1")
            driver.command("removejob " + job.name)
        driver.declare(chaos)
        driver.command("startjob " + chaos.name)
        if with_faults:  # BENCH_PR5's plan, then the one operator action
            cluster = driver.cluster
            now = cluster.sim.now
            plan = (
                FaultPlan()
                .kill_filter(now + 30.0, "blue")
                .kill_daemon(now + 100.0, "green")
                .partition(now + 120.0, [["yellow"], ["red", "green", "blue"]])
                .heal(now + 200.0)
                .kill_controller(now + 250.0)
                .restart_controller(now + 350.0)
                .restart_daemon(now + 600.0, "green")
            )
            FaultInjector(cluster, plan, session=driver.session).arm()
            driver.settle()
            before = cluster.sim.now
            out = driver.command("resume")
            driver.unit.resume_sim_ms = cluster.sim.now - before
            driver.unit.checks.append(
                ("resume_rebuilt_session", "resumed 1 filter(s) and 1 job(s)" in out)
            )
        driver.settle()
        driver.command("stopjob " + chaos.name)
        driver.finish([chaos.name])

    def run(self, drivers):
        faulted, twin = drivers
        unit = faulted.unit
        self._session(twin, with_faults=False)
        expected = record_multiset(unit.records)
        self._session(faulted, with_faults=True)
        got = record_multiset(unit.records)
        unit.mismatched = sum(((got - expected) + (expected - got)).values())
        unit.checks.append(("faulted_equals_twin", unit.mismatched == 0))
        unit.checks.append(("filter_relaunched", unit.relaunches >= 1))
        return unit

    def checks(self, unit):
        return []  # its gates are evaluated inside every unit


def record_multiset(records):
    """The identity that must survive the chaos (BENCH_PR5's)."""
    return Counter((r["machine"], r["pid"], r["event"], r["pc"]) for r in records)


# ----------------------------------------------------------------------
# Post-mortem
# ----------------------------------------------------------------------


def paced(iterable, pace, every=256):
    """``iterable``, with ``pace()`` called every few items: lets spin
    slices into a loop the library runs as one call."""
    for index, item in enumerate(iterable):
        if index % every == 0:
            pace()
        yield item


class _PacedList(list):
    """A list whose every iteration is :func:`paced`."""

    pace = None

    def __iter__(self):
        return paced(list.__iter__(self), self.pace)


def pack_log(text, base, pace):
    """Text log -> sealed v2 store files at ``base``; returns the
    writer.  This is ``pack_text`` -- parse, re-encode, append, flush
    -- with ``pace()`` let into each of its loops, so the pack is
    sampled by spin slices all the way through."""
    lines = text.splitlines(keepends=True)
    records = _PacedList()
    records.pace = pace
    for start in range(0, len(lines), PARSE_CHUNK_LINES):
        records += parse_trace("".join(lines[start:start + PARSE_CHUNK_LINES]))
        pace()

    def flush_and_pace(writer):
        flush_to_files(writer)
        pace()

    __, writer = pack_records(records, base, writer_driver=flush_and_pace)
    return writer


class Postmortem:
    name = "postmortem"
    why = (
        "no simulation: a generated consistent log is packed, scanned, selected, "
        "folded and analysed; store read+write, streaming and analysis are everything"
    )
    templates = None  # no filter runs; the dense rules drive ``select``
    min_records = 40000
    #: Share of the log's time span the interpreted evaluator
    #: re-selects as the oracle for the fast lane (it is ~100x slower).
    oracle_window = 0.15

    def __init__(self, new_store_base):
        self.new_store_base = new_store_base

    def jobs(self, scale=1.0):
        return []

    def setup(self, seed, scale, probe):
        with probe.span("generate", "harness"):
            text, count, lost = gen.generate_log(
                seed, max(2000, int(self.min_records * scale))
            )
        return {"text": text, "records": count, "lost": lost, "probe": probe}

    def run(self, ctx):
        unit = Unit()
        probe = ctx["probe"]
        count = ctx["records"]

        def step(name, layer, func):
            unit.steps += 1
            result, seconds = probe.timed(name, layer, count, func)
            unit.timed[name] = (count, seconds)
            return result

        base = self.new_store_base()
        writer = step(
            "pack", "tracestore", lambda: pack_log(ctx["text"], base, probe.pace)
        )
        reader = unit.reader = StoreReader.from_files(base)
        unit.segments = len(reader.segments)
        unit.log_bytes = sum(len(seg.data) for seg in reader.segments)
        scanned = step(
            "scan", "tracestore",
            lambda: sum(1 for __ in paced(scan_fast(reader), probe.pace)),
        )
        rules = parse_rules(DENSE_RULES)
        step("select", "tracestore", lambda: select(reader, rules))
        engine = step(  # twins.replay_store, with slices let in
            "fold", "streaming",
            lambda: twins.replay_engine(
                paced(scan_fast(reader), probe.pace)
            ).finalize(),
        )
        trace = step("trace_build", "analysis", lambda: Trace.from_store(reader))
        matcher = step("match", "analysis", trace.matcher)
        step("order", "analysis", lambda: HappensBefore(trace).ordered_fraction())
        step(
            "parallelism", "analysis",
            lambda: ParallelismProfile(trace).average_parallelism(),
        )
        step("stats", "analysis", lambda: CommunicationStatistics(trace).totals())
        batch = step("batch_digest", "analysis", lambda: twins.batch_digest(trace))
        unit.records = [event.record for event in trace]
        unit.n_records = len(unit.records)
        unit.log_text = ctx["text"]
        unit.live_digest = engine.digest()
        unit.counts = {
            "pairs_matched": len(matcher.pairs),
            "unmatched_sends": len(matcher.unmatched_sends),
        }
        unit.checks += [
            ("store_holds_every_record", scanned == count == writer.records_appended),
            ("replay_equals_batch", twins.diff_digests(engine.digest(), batch) == []),
        ]
        return unit

    def checks(self, unit):
        """fast == interpreted select, on the head of the log."""
        times = [record["cpuTime"] for record in unit.records]
        t_max = min(times) + int((max(times) - min(times)) * self.oracle_window)
        interpreted = parse_rules(DENSE_RULES, compiled=False)
        oracle = [
            reduced
            for reduced in map(
                interpreted.apply_interpreted, unit.reader.scan(t_max=t_max)
            )
            if reduced is not None
        ]
        fast = select(unit.reader, parse_rules(DENSE_RULES), t_max=t_max)
        return [("fast_select_equals_interpreted", bool(oracle) and fast == oracle)]


def by_name(new_store_base):
    """name -> workload, in ledger order."""
    workloads = [
        FarmLive(), DgramBurstLive(), RecoveryChurn(), Postmortem(new_store_base),
    ]
    return {workload.name: workload for workload in workloads}


def raw_messages(records):
    """Committed records re-encoded to their wire messages, with the
    host table the encoding used: the replay input when there is no
    meter stream to capture."""
    host_names = host_names_from_records(records)
    codec = MessageCodec(host_names)
    return [codec.encode_record(record) for record in records], host_names
