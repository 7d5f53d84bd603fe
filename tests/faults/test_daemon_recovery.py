"""Daemon death and return, end to end: the controller's liveness
probes notice both transitions on their own.

The degradation half is also covered by the chaos test; what this file
pins down is the *recovery* half -- a restarted meterdaemon (init
bringing it back) is noticed by the bounded recovery probes, the
machine un-degrades with one warning, and the reconcile pass squares
the controller's records against what the fresh daemon reports.
"""

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.faults import FaultInjector, FaultPlan
from repro.metering import flags as mflags
from repro.programs import install_all

SEED = 77


def _run(plan_builder, seed=SEED):
    cluster = Cluster(seed=seed)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command("addprocess j red nameserver 5353")
    session.command("startjob j")
    now = cluster.sim.now
    plan = plan_builder(now)
    FaultInjector(cluster, plan, session=session).arm()
    session.settle()
    return session


def test_restarted_daemon_is_noticed_and_undegraded_automatically():
    session = _run(
        lambda now: (
            FaultPlan()
            .kill_daemon(now + 20.0, "red")
            .restart_daemon(now + 900.0, "red")
        )
    )
    transcript = session.transcript()
    degraded = "WARNING: meterdaemon on 'red' is not responding"
    recovered = "WARNING: meterdaemon on 'red' is responding again"
    # Both transitions happened, in order, exactly once, and neither
    # needed an operator command (they are transcript-only lines).
    assert transcript.count(degraded) == 1
    assert transcript.count(recovered) == 1
    assert transcript.index(degraded) < transcript.index(recovered)
    # The machine is usable and no longer listed as degraded.
    jobs = session.command("jobs j")
    assert "degraded" not in jobs
    assert "nameserver" in jobs


def test_recovery_noticed_through_degradation_reconciles_once():
    """The replies to the reconcile's own RPCs carry the replacement
    daemon's boot epoch; they must not be read as a second restart."""
    session = _run(
        lambda now: (
            FaultPlan()
            .kill_daemon(now + 20.0, "red")
            .restart_daemon(now + 900.0, "red")
        )
    )
    transcript = session.transcript()
    assert transcript.count("is responding again") == 1
    assert "restarted between heartbeats" not in transcript


def test_setflags_issued_while_daemon_is_down_lands_on_recovery():
    """``jobs`` shows the flags the user asked for, and the reconcile
    after the outage pushes them: the kernel ends up metering what the
    command said, although its RPC failed."""
    session = _run(lambda now: FaultPlan().kill_daemon(now + 5.0, "red"))
    cluster = session.cluster
    out = session.command("setflags j send receive")
    assert "Process 'nameserver' : flags not set" in out
    plan = FaultPlan().restart_daemon(cluster.sim.now + 50.0, "red")
    FaultInjector(cluster, plan, session=session).arm()
    session.settle()
    assert "responding again" in session.transcript()
    (proc,) = [
        p
        for p in cluster.machine("red").procs.values()
        if p.program_name == "nameserver"
    ]
    assert proc.meter_flags == mflags.METERSEND | mflags.METERRECEIVE
    assert "flags: receive send" in session.command("jobs j")


def test_daemon_that_stays_dead_probes_to_dormancy_not_forever():
    session = _run(lambda now: FaultPlan().kill_daemon(now + 20.0, "red"))
    # settle() returned: the probe schedule went dormant instead of
    # keeping the event loop alive forever (bounded probe traffic).
    transcript = session.transcript()
    assert "WARNING: meterdaemon on 'red' is not responding" in transcript
    assert "responding again" not in transcript
    jobs = session.command("jobs j")
    assert "degraded machines (meterdaemon not responding): red" in jobs


def test_machine_unreachable_during_filter_restart_drains_on_resume():
    """The worst-ordered pileup: the filter dies, and by the time its
    replacement is up the metered machine's daemon is dead too, so the
    restart's REMETER never lands there.  The process dies while
    disconnected (its records spool as orphans under the OLD filter
    port), the controller crashes, and the daemon only comes back
    later.  ``resume`` must reconcile the machine against the
    *current* filter port AND drain the old-port spools -- every
    record reaches the trace."""
    cluster = Cluster(seed=99)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command("addprocess j red dgramproducer green 6000 30 64 5")
    session.command("setflags j send termproc immediate")
    session.command("startjob j")
    now = cluster.sim.now
    plan = (
        FaultPlan()
        .kill_filter(now + 25.0, "blue")
        .kill_daemon(now + 60.0, "red")
        .kill_controller(now + 90.0)
        .restart_controller(now + 150.0)
        .restart_daemon(now + 500.0, "red")
    )
    FaultInjector(cluster, plan, session=session).arm()
    session.settle()
    resume_out = session.command("resume")
    session.settle()
    assert "resumed 1 filter(s) and 1 job(s)" in resume_out
    transcript = session.transcript()
    assert "WARNING: filter 'f1' on blue was relaunched" in transcript
    done = "DONE: process dgramproducer in job 'j' terminated"
    assert transcript.count(done) == 1
    records = session.read_trace("f1")
    sends = [r for r in records if r["event"] == "send"]
    ends = [r for r in records if r["event"] == "termproc"]
    assert len(sends) == 30
    assert len(ends) == 1
