"""Every command rejects bad arity/arguments with a usage message and
leaves the controller alive (no crash-on-typo)."""

import pytest

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession

NEWJOB = "usage: newjob <jobname> [<filtername>]"
ADDPROCESS = "usage: addprocess <jobname> <machine> <processfile> [<parms>...]"
ACQUIRE = "usage: acquire <jobname> <machine> <process identifier>"
SETFLAGS = "usage: setflags <jobname> <flag1> [...]"
REMOVEJOB = "usage: removejob <jobname>"
REMOVEPROCESS = "usage: removeprocess <jobname> <procname>"
GETLOG = "usage: getlog <filtername> <destfile>"
SOURCE = "usage: source <filename>"
INPUT = "usage: input <jobname> <procname> <word>..."
STDINFILE = "usage: stdinfile <jobname> <procname> <filename>"

#: (command line, the whole output): the usage line is all it prints.
USAGE_CASES = [
    ("newjob", NEWJOB),
    ("addprocess", ADDPROCESS),
    ("addprocess onlyjob", ADDPROCESS),
    ("addprocess j m", ADDPROCESS),
    ("add j m", ADDPROCESS),
    ("acquire", ACQUIRE),
    ("acquire j m", ACQUIRE),
    ("acquire j m 1 extra", ACQUIRE),
    ("setflags", SETFLAGS),
    ("setflags onlyjob", SETFLAGS),
    ("startjob", "usage: startjob <jobname>"),
    ("stopjob", "usage: stopjob <jobname>"),
    ("removejob", REMOVEJOB),
    ("rmjob", REMOVEJOB),
    ("removeprocess", REMOVEPROCESS),
    ("removeprocess onlyjob", REMOVEPROCESS),
    ("removeprocess j p extra", REMOVEPROCESS),
    ("getlog", GETLOG),
    ("getlog onlyfilter", GETLOG),
    ("getlog f d extra", GETLOG),
    ("source", SOURCE),
    ("source a b", SOURCE),
    ("input", INPUT),
    ("input j p", INPUT),
    ("stdinfile", STDINFILE),
    ("stdinfile j p", STDINFILE),
    ("stdinfile j p f extra", STDINFILE),
]

#: Commands with a least but no greatest arity take extra words and go
#: on to look the job up.
NO_GREATEST_CASES = [
    "startjob nojob extra",
    "stopjob nojob extra",
    "removejob nojob extra",
    "setflags nojob send fork extra",
    "input nojob p many words here",
]


@pytest.fixture(scope="module")
def session():
    cluster = Cluster(seed=67)
    return MeasurementSession(cluster, control_machine="yellow")


@pytest.mark.parametrize(
    "line,expected",
    USAGE_CASES,
    # Ids name the usage line by its first two words: "newjob-usage: newjob".
    ids=[
        "{0}-{1}".format(line, " ".join(usage.split()[:2]))
        for line, usage in USAGE_CASES
    ],
)
def test_usage_message(session, line, expected):
    out = session.command(line)
    assert out.splitlines() == [expected]
    assert session.controller_alive()


@pytest.mark.parametrize("line", NO_GREATEST_CASES)
def test_extra_words_are_not_a_usage_error(session, line):
    assert session.command(line).splitlines() == ["no job 'nojob'"]


def test_unknown_job_everywhere(session):
    session.command("filter f0 blue")
    for command in (
        "addprocess nojob red x",
        "acquire nojob red 1",
        "setflags nojob send",
        "startjob nojob",
        "stopjob nojob",
        "removejob nojob",
        "removeprocess nojob x",
        "jobs nojob",
        "input nojob x y",
        "stdinfile nojob x y",
    ):
        out = session.command(command)
        assert "no job 'nojob'" in out, command
    assert session.controller_alive()


def test_acquire_non_numeric_pid(session):
    session.command("newjob jj f0")
    out = session.command("acquire jj red notapid")
    assert "bad process identifier" in out


def test_start_and_stop_failure_lines_name_the_process_and_the_reason():
    """A signal RPC that fails prints the process and the RPC's status;
    the record keeps its state."""
    from repro.faults import FaultInjector, FaultPlan

    cluster = Cluster(seed=67)
    session = MeasurementSession(cluster, control_machine="yellow")
    session.install_program("forever", _forever)
    session.command("filter f0 blue")
    session.command("newjob j f0")
    session.command("addprocess j red forever")
    session.command("newjob k f0")
    session.command("addprocess k red forever")
    session.command("startjob k")
    FaultInjector(
        cluster, FaultPlan().kill_daemon(cluster.sim.now + 1.0, "red")
    ).arm()
    session.settle(10)
    reason = "no meterdaemon on 'red' (ECONNREFUSED)"
    assert session.command("startjob j").splitlines()[-1] == (
        "'forever' not started: " + reason
    )
    assert session.command("stopjob k").splitlines()[-1] == (
        "'forever' not stopped: " + reason
    )
    jobs = session.command("jobs j k")
    assert " new 'forever' on red" in jobs
    assert " running 'forever' on red" in jobs
    assert session.controller_alive()


def _forever(sys, argv):
    while True:
        yield sys.sleep(50)
