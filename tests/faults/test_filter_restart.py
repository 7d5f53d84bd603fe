"""Filter crash recovery: the daemon relaunches a dead filter and the
trace continues in the same log.

Two layers under test: the meterdaemon's supervision (a filter killed
behind the controller's back is relaunched with the same argv, bounded
by a restart budget) and the log continuity that relaunch depends on
(append mode plus batch-sequence recovery, so the replacement extends
rather than erases the first incarnation's records).
"""

from collections import Counter
from functools import lru_cache

import pytest

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.faults import FaultInjector, FaultPlan
from repro.filtering.records import parse_record_line
from repro.filtering.standard import parse_batch_line
from repro.kernel import defs
from repro.metering.messages import parse_batch_marker
from repro.programs import install_all


def _talker(sys, argv):
    fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
    yield sys.bind(fd, ("", 6100))
    for i in range(4):
        yield sys.sendto(fd, b"x" * 64, ("green", 6101))
    yield sys.exit(0)


def _run_job(session, jobname):
    session.command("newjob {0}".format(jobname))
    session.command("addprocess {0} red talker".format(jobname))
    session.command("setflags {0} send socket termproc".format(jobname))
    session.command("startjob {0}".format(jobname))
    session.settle()


def test_filter_crash_is_healed_by_relaunch():
    cluster = Cluster(seed=33)
    session = MeasurementSession(cluster, control_machine="yellow")
    session.install_program("talker", _talker)
    session.command("filter f1 blue")
    _run_job(session, "j1")
    first = session.read_trace("f1")
    assert first

    # The filter dies behind the controller's back; its meterdaemon
    # notices the death and relaunches it -- no operator command.
    plan = FaultPlan().kill_filter(cluster.sim.now + 5.0, "blue")
    FaultInjector(cluster, plan).arm()
    session.settle(ms=200.0)

    transcript = session.transcript()
    assert "WARNING: filter 'f1' on blue was relaunched" in transcript
    assert "DONE: filter 'f1' terminated" not in transcript
    # Still listed, under a new identifier.
    listing = session.command("filter")
    assert "filter 'f1'" in listing

    # The replacement extends the same log: a second job's records land
    # after the first job's, nothing truncated.
    _run_job(session, "j2")
    combined = session.read_trace("f1")
    assert combined[: len(first)] == first
    assert len(combined) == 2 * len(first)


def test_process_death_during_filter_restart_yields_one_end_record():
    """The race the notification retries exist for: a metered process
    dies while its filter is down (killed, not yet relaunched).  The
    termproc record must ride the orphan-drain path into the log
    exactly once, and the controller must report the death exactly
    once -- the daemon's retried notification and the reconcile pass
    must not double-report."""
    from repro.programs import install_all

    cluster = Cluster(seed=35)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    session.command("filter f1 blue")
    session.command("newjob j")
    # A short producer: ~50ms of sends, so it terminates inside the
    # filter's relaunch backoff window when we kill the filter mid-run.
    session.command("addprocess j red dgramproducer green 6000 10 64 5")
    session.command("setflags j send termproc immediate")
    session.command("startjob j")
    session.settle(20)
    plan = FaultPlan().kill_filter(cluster.sim.now + 1.0, "blue")
    FaultInjector(cluster, plan).arm()
    session.settle()

    transcript = session.transcript()
    assert "WARNING: filter 'f1' on blue was relaunched" in transcript
    done = "DONE: process dgramproducer in job 'j' terminated"
    assert transcript.count(done) == 1

    records = session.read_trace("f1")
    producers = [
        p
        for p in cluster.machine("red").procs.values()
        if p.program_name == "dgramproducer"
    ]
    pid = producers[0].pid
    ends = [
        r for r in records if r["event"] == "termproc" and r["pid"] == pid
    ]
    assert len(ends) == 1
    sends = [r for r in records if r["event"] == "send" and r["pid"] == pid]
    assert len(sends) == 10  # nothing lost across the gap either


def test_filter_restart_budget_exhaustion_reports_death():
    cluster = Cluster(seed=34)
    session = MeasurementSession(cluster, control_machine="yellow")
    session.install_program("talker", _talker)
    session.command("filter f1 blue")
    _run_job(session, "j1")

    # Kill the filter once more than the daemon is willing to relaunch
    # it; the final death is reported instead of healed.  Kills are
    # spaced past the relaunch backoff so each one lands on a live
    # incarnation.
    now = cluster.sim.now
    plan = FaultPlan()
    for i in range(5):
        plan.kill_filter(now + 5.0 + 900.0 * i, "blue")
    FaultInjector(cluster, plan).arm()
    session.settle(ms=5000.0)
    session.settle()

    transcript = session.transcript()
    assert "WARNING: filter 'f1' on blue was relaunched" in transcript
    assert "DONE: filter 'f1' terminated" in transcript
    assert "filter restart budget exhausted" in transcript
    assert "f1" not in session.command("filter")


# ----------------------------------------------------------------------
# Exactly-once records across a relaunch, in both log formats
# ----------------------------------------------------------------------

#: (consumer machine, producer machine, port, bytes): paced at 2 ms, so
#: no datagram is lost and the fault-free twin is the whole truth.
_PAIRS = (
    ("red", "green", 6001, 64),
    ("red", "blue", 6002, 96),
    ("green", "red", 6003, 128),
    ("green", "blue", 6004, 160),
)

#: Type-pinned rules, one with a reduction, that reject whole batches: with
#: ``immediate`` flags every event is its own batch, and about three in
#: four of them commit nothing.
_REJECTING_RULES = """\
type=send, msgLength>=150, destName=#*
type=receive, msgLength<100
type=termproc
"""

#: Fields whose values follow simulated time, not what happened.
_TIMING_FIELDS = ("cpuTime", "procTime")


def _identity_multiset(records):
    return Counter(
        tuple(sorted(item for item in record.items() if item[0] not in _TIMING_FIELDS))
        for record in records
    )


def _durable_batches(session):
    """The log in commit order as ``[(marker key, records before it)]``,
    plus the count of records after the last marker."""
    batches = []
    count = 0
    if session.log_format == "store":
        for segment in session.store_reader("f1").segments:
            for item in segment.committed_frames():
                assert item[0] == "frame", item
                marker = parse_batch_marker(item[3])
                if marker is None:
                    count += 1
                    continue
                batches.append((marker, count))
                count = 0
    else:
        __, text = session.find_filter_log("f1")
        for line in text.splitlines():
            marker = parse_batch_line(line)
            if marker is None:
                assert parse_record_line(line), line
                count += 1
                continue
            batches.append((marker, count))
            count = 0
    return batches, count


def _dgram_job(log_format, rules, kill_after_ms=None):
    cluster = Cluster(seed=7)
    session = MeasurementSession(
        cluster, control_machine="yellow", log_format=log_format
    )
    install_all(session)
    if rules is None:
        session.command("filter f1 blue")
    else:
        for machine in cluster.machines.values():
            machine.fs.install("rejecting.templates", data=rules, mode=0o644)
        session.command("filter f1 blue filter descriptions rejecting.templates")
    session.command("newjob j")
    for consumer, __, port, __ in _PAIRS:
        session.command("addprocess j %s dgramconsumer %d 300 300" % (consumer, port))
    for consumer, producer, port, size in _PAIRS:
        session.command(
            "addprocess j %s dgramproducer %s %d 300 %d 2"
            % (producer, consumer, port, size)
        )
    session.command(
        "setflags j send receive receivecall socket destsocket termproc immediate"
    )
    session.command("startjob j")
    if kill_after_ms is not None:
        plan = FaultPlan().kill_filter(cluster.sim.now + kill_after_ms, "blue")
        FaultInjector(cluster, plan).arm()
    session.settle()
    return session


@lru_cache(maxsize=None)
def _twin_multiset(log_format, rules):
    return _identity_multiset(_dgram_job(log_format, rules).read_trace("f1"))


@pytest.mark.parametrize("kill_after_ms", [120.0, 300.0])
@pytest.mark.parametrize("rules", [_REJECTING_RULES, None], ids=["rejecting", "default"])
@pytest.mark.parametrize("log_format", ["text", "store"])
def test_relaunched_filter_commits_every_record_once(log_format, rules, kill_after_ms):
    """A filter killed mid-job and relaunched by its daemon commits the
    fault-free twin's records, each once, and every marker follows
    records, none repeated: one marker per batch in a store, one per
    process per write in a text log.  The text filter buffers lines
    across batches; they must reach the log before their batches can
    roll out of the kernel's resend window, or the relaunch cannot get
    them back."""
    session = _dgram_job(log_format, rules, kill_after_ms)
    assert "WARNING: filter 'f1' on blue was relaunched" in session.transcript()
    assert "dropped:" not in session.command("jobs j")

    records = list(session.read_trace("f1"))
    expected = _twin_multiset(log_format, rules)
    got = _identity_multiset(records)
    assert got == expected, (
        "missing %d, extra %d"
        % (sum((expected - got).values()), sum((got - expected).values()))
    )
    assert max(got.values()) == 1  # no duplicates

    batches, trailing = _durable_batches(session)
    assert trailing == 0
    assert all(count > 0 for __, count in batches)  # no empty batch's marker
    markers = [marker for marker, __ in batches]
    assert len(set(markers)) == len(markers)
    assert sum(count for __, count in batches) == len(records)
