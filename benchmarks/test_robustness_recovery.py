"""Chaos soak: self-healing across every monitor component.

One metered computation; every component class is hit while it runs --
the filter (killed; supervised relaunch), a meterdaemon (killed, later
restarted as init would), the network (the control machine partitioned
away, then healed), and the control process itself (killed and
restarted; the operator types ``resume`` and nothing else).  The
resulting trace must be record-for-record identical to a fault-free
run of the same seed: the kernel's resend window, the filter's batch
dedup, the orphan drain and the journal replay together guarantee that
a crash costs retransmission, never records.

Runs across several seeds (the CI ``chaos`` job).
"""

from collections import Counter

from benchmarks.conftest import fresh_session
from repro.faults import FaultInjector, FaultPlan
from repro.kernel import defs

SEEDS = [61, 62, 63]
N_SENDS = 80


def _start_job(session):
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command(
        "addprocess j red dgramproducer green 6000 {0} 64 5".format(N_SENDS)
    )
    session.command(
        "addprocess j green dgramproducer red 6001 {0} 64 5".format(N_SENDS)
    )
    session.command("setflags j send termproc immediate")
    session.command("startjob j")


def _trace_multiset(session):
    """The trace as a multiset of (machine, pid, event, pc) keys --
    the identity that must survive the chaos."""
    return Counter(
        (r["machine"], r["pid"], r["event"], r["pc"])
        for r in session.read_trace("f1")
    )


def _run_baseline(seed):
    session = fresh_session(seed=seed)
    _start_job(session)
    session.settle()
    session.command("stopjob j")
    session.settle()
    return _trace_multiset(session)


def _run_chaos(seed):
    session = fresh_session(seed=seed)
    cluster = session.cluster
    _start_job(session)
    now = cluster.sim.now
    plan = (
        FaultPlan()
        .kill_filter(now + 30.0, "blue")          # supervised relaunch
        .kill_daemon(now + 100.0, "green")        # control plane loss
        .partition(now + 120.0, [["yellow"],      # controller cut off from
                                 ["red", "green", "blue"]])  # the world
        .heal(now + 200.0)
        .kill_controller(now + 250.0)             # the tool itself dies
        .restart_controller(now + 350.0)          # operator restarts it
        .restart_daemon(now + 600.0, "green")     # init restarts the daemon
    )
    FaultInjector(cluster, plan, session=session).arm()
    session.settle()
    # The single operator action the design allows: resume.
    resume_out = session.command("resume")
    session.settle()
    session.command("stopjob j")
    session.settle()
    transcript = session.transcript()
    return {
        "multiset": _trace_multiset(session),
        "resume_out": resume_out,
        "transcript": transcript,
        "cluster": cluster,
        "session": session,
    }


def test_chaos_soak_traces_identical_to_fault_free_run():
    for seed in SEEDS:
        baseline = _run_baseline(seed)
        chaos = _run_chaos(seed)
        # Self-healing visibly happened.
        assert "WARNING: filter 'f1' on blue was relaunched" in chaos["transcript"]
        assert "resumed 1 filter(s) and 1 job(s)" in chaos["resume_out"]
        # Both producers computed to completion, faults notwithstanding.
        for name in ("red", "green"):
            producers = [
                p
                for p in chaos["cluster"].machine(name).procs.values()
                if p.program_name == "dgramproducer"
            ]
            assert producers[0].exit_reason == defs.EXIT_NORMAL
        missing = baseline - chaos["multiset"]
        extra = chaos["multiset"] - baseline
        # The acceptance criterion: record-for-record identical.
        assert not missing, "seed {0}: records lost: {1!r}".format(
            seed, list(missing)[:5]
        )
        assert not extra, "seed {0}: records duplicated: {1!r}".format(
            seed, list(extra)[:5]
        )
