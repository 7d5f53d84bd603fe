"""Chaos scenarios: the workloads a searched schedule runs against.

A scenario owns everything the search engine should not care about:
which machines exist, what job the controller starts, how long the
fault window is, and what "the workload finished" means.
``run_scenario`` stands the measurement system up on a fresh seeded
cluster (store-format logs, so the storage oracles have a medium to
check), arms an optional :class:`~repro.faults.plan.FaultPlan` shifted
to the workload start, lets everything settle, types ``resume`` if the
plan restarted the controller (the single operator action the design
allows), stops the job, and snapshots every artifact the oracle suite
reads into a :class:`RunResult`.
"""

from collections import Counter

from repro.chaos.generator import FaultSurface
from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.faults import FaultInjector
from repro.faults.plan import RESTART_CONTROLLER
from repro.filtering.standard import LOG_FORMAT_STORE, log_path_for
from repro.kernel import defs
from repro.programs import install_all
from repro.tracestore import StoreReader, scan_fast
from repro.tracestore.errors import StoreError
from repro.tracestore.fsck import fsck_store
from repro.tracestore.writer import segment_path


class Scenario:
    """Base scenario: four machines, filter on blue, control on yellow."""

    name = "base"
    control_machine = "yellow"
    filter_machine = "blue"
    filter_name = "f1"
    job_name = "j"
    machines = ("red", "green", "blue", "yellow")
    horizon_ms = 700.0
    #: program name -> how many processes the job starts.
    expected_procs = {}

    def start(self, session):
        raise NotImplementedError

    def finish(self, session):
        session.command("stopjob {0}".format(self.job_name))

    # ------------------------------------------------------------------

    def expected_done(self):
        return sum(self.expected_procs.values())

    def surface(self, log_directory):
        """The fault surface this scenario exposes to the generator."""
        return FaultSurface(
            machines=self.machines,
            control_machine=self.control_machine,
            filter_machine=self.filter_machine,
            store_prefix=log_path_for(
                self.filter_name, log_directory, LOG_FORMAT_STORE
            ),
        )

    def describe(self):
        return "{0} ({1} workload proc(s), horizon {2}ms)".format(
            self.name, self.expected_done(), self.horizon_ms
        )


class DgramPairScenario(Scenario):
    """Two datagram producers firing at each other (the PR 5 soak
    workload): every send is metered, so record loss is visible."""

    name = "dgram_pair"

    def __init__(self, sends=40, gap_ms=5.0):
        self.sends = int(sends)
        self.gap_ms = float(gap_ms)
        self.expected_procs = {"dgramproducer": 2}

    @property
    def kwargs(self):
        """What an artifact records to rebuild this scenario."""
        return {"sends": self.sends, "gap_ms": self.gap_ms}

    def start(self, session):
        session.command(
            "filter {0} {1}".format(self.filter_name, self.filter_machine)
        )
        session.command("newjob {0}".format(self.job_name))
        session.command(
            "addprocess {0} red dgramproducer green 6000 {1} 64 {2}".format(
                self.job_name, self.sends, self.gap_ms
            )
        )
        session.command(
            "addprocess {0} green dgramproducer red 6001 {1} 64 {2}".format(
                self.job_name, self.sends, self.gap_ms
            )
        )
        session.command("setflags {0} send termproc immediate".format(self.job_name))
        session.command("startjob {0}".format(self.job_name))


class DgramQuadScenario(DgramPairScenario):
    """Four producers across both workload machines -- denser traffic,
    more interleaving under partitions."""

    name = "dgram_quad"

    def __init__(self, sends=30, gap_ms=4.0):
        super().__init__(sends=sends, gap_ms=gap_ms)
        self.expected_procs = {"dgramproducer": 4}

    def start(self, session):
        super().start(session)
        session.command(
            "addprocess {0} red dgramproducer green 6002 {1} 48 {2}".format(
                self.job_name, self.sends, self.gap_ms
            )
        )
        session.command(
            "addprocess {0} green dgramproducer red 6003 {1} 48 {2}".format(
                self.job_name, self.sends, self.gap_ms
            )
        )
        session.command("setflags {0} send termproc immediate".format(self.job_name))
        session.command("startjob {0}".format(self.job_name))


SCENARIOS = {
    DgramPairScenario.name: DgramPairScenario,
    DgramQuadScenario.name: DgramQuadScenario,
}


def make_scenario(name, **kwargs):
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            "unknown scenario {0!r}; available: {1}".format(
                name, ", ".join(sorted(SCENARIOS))
            )
        )
    return factory(**kwargs)


# ----------------------------------------------------------------------
# Running one schedule
# ----------------------------------------------------------------------


class RunResult:
    """Everything one run leaves behind for the oracle suite."""

    def __init__(self, scenario, cluster_seed, plan):
        self.scenario = scenario
        self.cluster_seed = cluster_seed
        #: The *relative* plan (None for a fault-free baseline run).
        self.plan = plan
        self.applied = []
        self.transcript = ""
        self.resume_out = ""
        self.controller_alive = False
        self.store_missing = False
        #: None, or the strict-scan StoreError text (store damage).
        self.strict_error = None
        #: Records via strict scan when clean, salvage scan otherwise.
        self.records = []
        self.salvage_stats = None
        self.fsck_report = None
        self.reader = None
        self.normal_exits = Counter()
        self.done_reports = Counter()

    def plan_kinds(self):
        return self.plan.kinds() if self.plan is not None else set()

    def record_multiset(self):
        """The record identity that must survive recoverable chaos
        (PR 5's oracle key, generalized)."""
        return Counter(
            (r["machine"], r["pid"], r["event"], r["pc"]) for r in self.records
        )


def run_scenario(scenario, cluster_seed, plan=None, log_directory=None):
    """One deterministic run: same (scenario, cluster_seed, plan) =>
    the same RunResult artifacts, byte for byte."""
    cluster = Cluster(seed=cluster_seed, machines=scenario.machines)
    session = MeasurementSession(
        cluster,
        control_machine=scenario.control_machine,
        log_format=LOG_FORMAT_STORE,
        log_directory=log_directory,
    )
    install_all(session)
    scenario.start(session)
    result = RunResult(scenario, cluster_seed, plan)
    injector = None
    if plan is not None and len(plan):
        shifted = plan.shifted(cluster.sim.now)
        injector = FaultInjector(cluster, shifted, session=session).arm()
    session.settle()
    if plan is not None and plan.has_kind(RESTART_CONTROLLER):
        result.resume_out = session.command("resume")
        session.settle()
    scenario.finish(session)
    session.settle()
    if injector is not None:
        result.applied = injector.describe_applied()
    result.transcript = session.transcript()
    result.controller_alive = session.controller_alive()
    _collect_exits(cluster, scenario, result)
    _collect_done_reports(scenario, result)
    _collect_store(cluster, session, scenario, result)
    return result


def _collect_exits(cluster, scenario, result):
    for machine in cluster.machines.values():
        for proc in machine.procs.values():
            if (
                proc.program_name in scenario.expected_procs
                and proc.state == defs.PROC_ZOMBIE
                and proc.exit_reason == defs.EXIT_NORMAL
            ):
                result.normal_exits[proc.program_name] += 1


def _collect_done_reports(scenario, result):
    for program in scenario.expected_procs:
        needle = "DONE: process {0} in job '{1}' terminated".format(
            program, scenario.job_name
        )
        result.done_reports[program] = result.transcript.count(needle)


def _collect_store(cluster, session, scenario, result):
    base = log_path_for(
        scenario.filter_name, session.log_directory, LOG_FORMAT_STORE
    )
    host_names = cluster.host_table.names_by_id()
    fs = None
    first = segment_path(base, 0)
    for machine in cluster.machines.values():
        if machine.fs.exists(first):
            fs = machine.fs
            break
    if fs is None:
        result.store_missing = True
        return
    reader = StoreReader.from_fs(fs, base, host_names=host_names)
    result.reader = reader
    try:
        result.records = list(reader.scan())
    except StoreError as err:
        result.strict_error = "{0}: {1}".format(type(err).__name__, err)
    # The salvage pass always runs: its stats are the loss ledger the
    # store-accounting oracle audits (loss_free() on a clean store).
    salvage_records = list(reader.scan(salvage=True))
    result.salvage_stats = reader.last_stats
    if result.strict_error is not None:
        result.records = salvage_records
    result.fsck_report = fsck_store(reader)


def fast_lane_records(result, salvage):
    """The batch fast lane's view of the run's store (oracle input)."""
    return list(scan_fast(result.reader, salvage=salvage))
