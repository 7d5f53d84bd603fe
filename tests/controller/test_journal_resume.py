"""The controller's session journal and the ``resume`` command.

Unit layer: ``journal.replay`` folds a journal's effect entries into
the filters/jobs a fresh controller should adopt, tolerating torn
tails and junk lines (the journal is written by a process that may die
mid-line).

End-to-end layer: kill the controller mid-session, start a fresh one
on the same terminal, type ``resume`` -- the session comes back, the
machines' daemons re-register the surviving processes against the new
controller's notification port, and deaths that happened while nobody
was listening are reported exactly once.
"""

import ast
import os

from repro import controller
from repro.controller import journal, states
from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.kernel import defs
from repro.programs import install_all


# ----------------------------------------------------------------------
# replay unit tests
# ----------------------------------------------------------------------


def _entries(*pairs):
    text = "".join(journal.encode_entry(op, **fields) for op, fields in pairs)
    return journal.parse_journal(text)


def test_replay_rebuilds_filters_and_jobs():
    replayed = journal.replay(_entries(
        ("filter", {"name": "f1", "machine": "blue", "pid": 7,
                    "meter_host": "blue", "meter_port": 1030,
                    "log_path": "/usr/tmp/f1.log"}),
        ("newjob", {"name": "j", "filtername": "f1", "number": 1}),
        ("process", {"jobname": "j", "procname": "worker", "machine": "red",
                     "pid": 12, "state": states.RUNNING, "flags": 1}),
        ("flags", {"jobname": "j", "flags": 3, "flag_order": ["send", "termproc"]}),
    ))
    assert not replayed.clean_exit
    assert replayed.filter_order == ["f1"]
    info = replayed.filters["f1"]
    assert (info.machine, info.pid, info.meter_port) == ("blue", 7, 1030)
    job = replayed.jobs["j"]
    assert job.flags == 3
    assert job.flag_order == ["send", "termproc"]
    record = job.find_process("worker")
    assert (record.machine, record.pid) == ("red", 12)
    assert record.state == states.RUNNING
    assert record.flags == 3  # flag changes propagate to live records
    assert replayed.next_job_number == 2


def test_replay_filter_restart_tracks_the_latest_incarnation():
    replayed = journal.replay(_entries(
        ("filter", {"name": "f1", "machine": "blue", "pid": 7,
                    "meter_host": "blue", "meter_port": 1030,
                    "log_path": "/usr/tmp/f1.log"}),
        ("filter-restart", {"name": "f1", "pid": 9, "meter_port": 1042}),
    ))
    info = replayed.filters["f1"]
    assert (info.pid, info.meter_port) == (9, 1042)


def test_replay_state_and_removals():
    replayed = journal.replay(_entries(
        ("newjob", {"name": "j", "filtername": "f1", "number": 1}),
        ("process", {"jobname": "j", "procname": "a", "machine": "red",
                     "pid": 1, "state": states.RUNNING, "flags": 0}),
        ("process", {"jobname": "j", "procname": "b", "machine": "green",
                     "pid": 2, "state": states.RUNNING, "flags": 0}),
        ("state", {"jobname": "j", "procname": "a", "state": states.KILLED}),
        ("removeprocess", {"jobname": "j", "procname": "b"}),
        ("newjob", {"name": "k", "filtername": "f1", "number": 2}),
        ("removejob", {"name": "k"}),
    ))
    job = replayed.jobs["j"]
    assert job.find_process("a").state == states.KILLED
    assert job.find_process("b") is None
    assert "k" not in replayed.jobs
    assert replayed.next_job_number == 3


def test_replay_clean_exit_yields_nothing_to_recover():
    replayed = journal.replay(_entries(
        ("filter", {"name": "f1", "machine": "blue", "pid": 7,
                    "meter_host": "blue", "meter_port": 1030,
                    "log_path": "/usr/tmp/f1.log"}),
        ("die", {}),
    ))
    assert replayed.clean_exit
    assert not replayed.filters


def test_parse_skips_torn_tail_and_junk():
    text = (
        journal.encode_entry("newjob", name="j", filtername="f1", number=1)
        + "not json at all\n"
        + journal.encode_entry("process", jobname="j", procname="a",
                               machine="red", pid=1,
                               state=states.RUNNING, flags=0)
        + '{"op": "state", "jobname": "j", "procn'  # torn mid-write
    )
    entries = journal.parse_journal(text)
    assert [e.get("op") for e in entries] == ["newjob", "process"]
    replayed = journal.replay(entries)
    assert replayed.jobs["j"].find_process("a").state == states.RUNNING


_FILTER = ("filter", {"name": "f1", "machine": "blue", "pid": 7,
                      "meter_host": "blue", "meter_port": 1030,
                      "log_path": "/usr/tmp/f1.log"})


def test_apply_filter_restart_takes_what_the_entry_names():
    """The entry the live controller writes says which port was retired
    and where the replacement listens and logs -- also when the
    replacement got the old port number again (a rebooted machine hands
    out the same ephemeral ports)."""
    session = journal.replay(_entries(
        _FILTER,
        ("filter-restart", {"name": "f1", "pid": 9, "meter_port": 1042,
                            "old_port": 1030, "meter_host": "blue2",
                            "log_path": "/usr/tmp/x/f1.log"}),
        ("filter-restart", {"name": "f1", "pid": 11, "meter_port": 1042,
                            "old_port": 1042}),
    ))
    info = session.filters["f1"]
    assert (info.pid, info.meter_port, info.meter_host) == (11, 1042, "blue2")
    assert info.log_path == "/usr/tmp/x/f1.log"
    assert info.past_ports == [1030, 1042]


def test_apply_filter_restart_from_an_older_journal():
    """Without ``old_port`` the retired port is the one on record; the
    host and log path stay as created.  A repeated entry (the daemon
    retries its notification) retires nothing twice."""
    restart = ("filter-restart", {"name": "f1", "pid": 9, "meter_port": 1042})
    session = journal.replay(_entries(_FILTER, restart, restart))
    info = session.filters["f1"]
    assert (info.pid, info.meter_port, info.meter_host) == (9, 1042, "blue")
    assert info.log_path == "/usr/tmp/f1.log"
    assert info.past_ports == [1030]


def test_apply_die_resets_to_a_clean_exit_and_intent_entries_are_no_ops():
    session = journal.SessionState()
    for entry in _entries(
        _FILTER,
        ("newjob", {"name": "j", "filtername": "f1", "number": 4}),
        ("watch", {"wid": 2, "filtername": "f1", "spec": {"kind": "rate"}}),
    ):
        session.apply(entry)
    before = (dict(session.filters), dict(session.jobs), dict(session.watches))
    session.apply({"op": "cmd", "line": "removejob j"})
    session.apply({"op": "resume"})
    assert (session.filters, session.jobs, session.watches) == before
    assert (session.next_job_number, session.next_watch_id) == (5, 3)
    session.apply({"op": "die"})
    assert session.clean_exit
    assert not (session.filters or session.filter_order or session.jobs)
    assert not session.watches
    assert (session.next_job_number, session.next_watch_id) == (1, 1)


def test_session_state_modules_import_nothing_that_holds_a_syscall_handle():
    """``journal``, ``model`` and ``states`` are the recoverable half of
    the controller: within ``repro`` they may import only each other.
    (Parsed, not imported: ``repro.controller``'s ``__init__`` pulls in
    ``control`` and with it the whole effects stack.)"""
    names = ("journal", "model", "states")
    allowed = {"repro.controller." + name for name in names}
    for name in names:
        path = os.path.join(os.path.dirname(controller.__file__), name + ".py")
        with open(path) as handle:
            tree = ast.parse(handle.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, (name, "relative import")
                if node.module == "repro.controller":
                    imported.update(
                        "repro.controller." + alias.name for alias in node.names
                    )
                else:
                    imported.add(node.module)
        leaked = {m for m in imported if m.split(".")[0] == "repro"} - allowed
        assert not leaked, (name, sorted(leaked))


# ----------------------------------------------------------------------
# end to end: crash, restart, resume
# ----------------------------------------------------------------------


def _make_session(seed=59):
    cluster = Cluster(seed=seed)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    return session


def _kill(cluster, machine_name, program_name):
    machine = cluster.machine(machine_name)
    for proc in list(machine.procs.values()):
        if proc.program_name == program_name and proc.state != defs.PROC_ZOMBIE:
            machine.post_signal(proc, defs.SIGKILL)


def test_resume_restores_session_and_reregisters_notifications():
    session = _make_session()
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command("addprocess j red nameserver 5353")
    session.command("startjob j")
    session.settle(50)

    session.restart_controller()
    out = session.command("resume")
    assert "resumed 1 filter(s) and 1 job(s)" in out
    jobs = session.command("jobs j")
    assert "nameserver" in jobs and "running" in jobs

    # The daemon re-registered the adopted process against the NEW
    # controller: its eventual death reaches this incarnation's tty.
    _kill(session.cluster, "red", "nameserver")
    session.settle(200)
    assert (
        "DONE: process nameserver in job 'j' terminated: reason: signaled"
        in session.drain_output()
    )


def test_resume_reports_processes_that_died_while_controller_was_down():
    session = _make_session()
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command("addprocess j red nameserver 5353")
    session.command("startjob j")
    session.settle(50)

    # The controller dies; then the process dies with nobody listening
    # (the daemon's termination notification has no one to reach).
    _kill(session.cluster, "yellow", "control")
    session.settle(50)
    _kill(session.cluster, "red", "nameserver")
    session.settle(200)

    session.restart_controller()
    out = session.command("resume")
    assert "resumed 1 filter(s) and 1 job(s)" in out
    transcript = session.transcript()
    line = (
        "DONE: process nameserver in job 'j' terminated: "
        "reason: lost while machine was degraded"
    )
    assert transcript.count(line) == 1
    assert "killed" in session.command("jobs j")


def test_resume_refuses_a_controller_with_live_state():
    session = _make_session()
    session.command("filter f1 blue")
    out = session.command("resume")
    assert "already has session state" in out


def test_resume_after_clean_exit_recovers_nothing():
    session = _make_session()
    session.command("filter f1 blue")
    session.command("die")
    session.settle(50)
    assert not session.controller_alive()
    session.restart_controller()
    out = session.command("resume")
    assert "resume: nothing to recover" in out
