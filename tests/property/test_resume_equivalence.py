"""What the dead controller showed is what the resumed one shows.

The live controller and ``resume`` run the same
``journal.SessionState.apply`` -- one applies each entry as it journals
it, the other folds the file -- so for any command script the session
listings typed just before a controller crash must equal the same
listings typed just after ``resume``.  Scripts include killing a
machine's meterdaemon, the case where commands half-fail and the two
used to disagree (a ``setflags`` whose RPC failed was remembered by the
journal but not by the live controller).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.faults import FaultInjector, FaultPlan
from repro.programs import install_all

_FLAGS = ["send", "receive", "termproc", "immediate", "-send", "-all"]
_WATCHES = ["undelivered window=400", "rate window=100 threshold=2"]
#: Op kinds, repeated by weight: scripts that never get a process
#: into a job exercise little.
_KINDS = (
    ["newjob", "setflags", "startjob", "stopjob", "watch add", "watch rm"]
    + ["addprocess"] * 3
    + ["removeprocess", "removejob", "kill"]
)


@st.composite
def _scripts(draw):
    """Command scripts over a rough model of the session: job commands
    name a job some earlier ``newjob`` asked for (it may have been
    removed since, or never created for want of a free name -- the
    "no job" paths stay reachable), the first of them forcing one."""
    script, jobs = [], []
    for __ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.sampled_from(_KINDS))
        if kind == "kill":
            machine = draw(st.sampled_from(["red", "green", "blue"]))
            script.append("kill meterdaemon on {0}".format(machine))
        elif kind == "watch add":
            script.append("watch add " + draw(st.sampled_from(_WATCHES)))
        elif kind == "watch rm":
            script.append("watch rm W{0}".format(draw(st.integers(1, 3))))
        elif kind == "newjob" or not jobs:
            jobs.append(draw(st.sampled_from(["j1", "j2", "j3"])))
            script.append("newjob " + jobs[-1])
        else:
            job = draw(st.sampled_from(jobs))
            if kind == "addprocess":
                machine = draw(st.sampled_from(["red", "green"]))
                script.append("addprocess {0} {1} nameserver".format(job, machine))
            elif kind == "setflags":
                flags = draw(st.lists(st.sampled_from(_FLAGS), min_size=1, max_size=3))
                script.append("setflags {0} {1}".format(job, " ".join(flags)))
            elif kind == "removeprocess":
                script.append("removeprocess {0} nameserver".format(job))
            else:
                script.append("{0} {1}".format(kind, job))
    return script


_LISTINGS = ("filter", "jobs", "jobs j1 j2 j3", "watch list")


def _listings(session):
    """The four session listings, minus what is an observation of the
    present rather than session state: health warnings (which also
    arrive unprompted, from the probe schedule) and ``jobs``' degraded
    machines block."""
    shown = []
    for command in _LISTINGS:
        lines = session.command(command).splitlines()
        shown.append(
            [
                line
                for line in lines
                if not line.startswith(("WARNING:", "  degraded machines", "    "))
            ]
        )
    return shown


@given(_scripts())
@example(
    [
        "newjob j1",
        "addprocess j1 red nameserver",
        "kill meterdaemon on red",
        "setflags j1 send",
    ]
)
@settings(max_examples=40, deadline=None)
def test_listings_before_a_crash_equal_listings_after_resume(script):
    cluster = Cluster(seed=5)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    session.command("filter f1 blue")
    for index, op in enumerate(script):
        if op.startswith("kill meterdaemon on "):
            plan = FaultPlan().kill_daemon(cluster.sim.now, op.split()[-1])
            FaultInjector(cluster, plan, session=session).arm()
        elif op.startswith("addprocess"):
            # One port each: a second server on a taken port would die
            # on its own, at a time the script does not control.
            session.command("{0} {1}".format(op, 5300 + index))
        else:
            session.command(op)
    session.settle(300)  # in-flight notifications land before the crash
    before = _listings(session)
    session.restart_controller()
    session.command("resume")
    assert _listings(session) == before
