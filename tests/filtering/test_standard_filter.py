"""The standard filter, end to end: meter connections in, log file out."""

import pytest

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.filtering.records import parse_trace
from repro.kernel import defs


def _talker(port_base):
    """A metered workload: a datagram chatterer."""

    def main(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.bind(fd, ("", port_base))
        for i in range(6):
            yield sys.sendto(fd, b"x" * (100 * (i + 1)), ("green", port_base + 1))
        yield sys.exit(0)

    return main


@pytest.fixture
def running_session():
    cluster = Cluster(seed=21)
    session = MeasurementSession(cluster, control_machine="yellow")
    session.install_program("talker", _talker(6100))
    return cluster, session


def _run_job(session, templates="templates"):
    session.command(
        "filter f1 blue filter descriptions {0}".format(templates)
    )
    session.command("newjob j")
    session.command("addprocess j red talker")
    session.command("setflags j send socket termproc")
    session.command("startjob j")
    session.settle()
    return session.read_trace("f1")


def test_filter_logs_all_events_with_default_templates(running_session):
    __, session = running_session
    records = _run_job(session)
    events = [r["event"] for r in records]
    assert events.count("send") == 6
    assert events.count("socket") == 1
    assert events.count("termproc") == 1


def test_filter_log_lives_in_usr_tmp(running_session):
    __, session = running_session
    _run_job(session)
    machine, __text = session.find_filter_log("f1")
    assert machine == "blue"
    assert session.cluster.machine("blue").fs.exists("/usr/tmp/f1.log")


def test_filter_applies_selection_rules(running_session):
    cluster, session = running_session
    cluster.machine("blue").fs.install(
        "only_big", "type=send, msgLength>=400\n", mode=0o644
    )
    records = _run_job(session, templates="only_big")
    assert records  # 400, 500, 600 byte sends
    assert all(r["event"] == "send" for r in records)
    assert all(r["msgLength"] >= 400 for r in records)
    assert len(records) == 3


def test_filter_reduces_discarded_fields(running_session):
    cluster, session = running_session
    cluster.machine("blue").fs.install(
        "reduced", "type=send, pc=#*, destName=#*\n", mode=0o644
    )
    records = _run_job(session, templates="reduced")
    assert records
    for record in records:
        assert "pc" not in record
        assert "destName" not in record
        assert "msgLength" in record


def test_missing_templates_file_means_no_selection(running_session):
    __, session = running_session
    records = _run_job(session, templates="nonexistent_templates")
    assert len(records) == 8  # everything logged


def test_one_filter_can_serve_multiple_computations(running_session):
    """Section 3.4: "it is possible to have one filter collect data
    from several computations"."""
    cluster, session = running_session
    session.install_program("talker2", _talker(6200))
    session.command("filter f1 blue")
    session.command("newjob one")
    session.command("addprocess one red talker")
    session.command("setflags one send")
    session.command("newjob two f1")
    session.command("addprocess two green talker2")
    session.command("setflags two send")
    session.command("startjob one")
    session.command("startjob two")
    session.settle()
    records = session.read_trace("f1")
    machines = {r["machine"] for r in records}
    assert len(machines) == 2  # both computations in one log


def test_filter_on_disjoint_machine(running_session):
    """Section 3.4: "A filter process may execute on a machine that is
    disjoint from the set of machines on which the processes of the
    computation are executing"."""
    __, session = running_session
    records = _run_job(session)  # filter on blue, workload on red
    assert records
    red_id = session.cluster.host_table.lookup("red").host_id
    assert {r["machine"] for r in records} == {red_id}


REDUCING_RULES = "type=send, msgLength>=300, pc=#*, machine=#*, pid=#*\n"


def test_appendix_a_filter_unpacks_and_evaluates_each_message_once(
    running_session, monkeypatch
):
    """With the shipped descriptions and a non-empty rule set the
    filter's record lane is one ``select(raw)`` per message: no second
    decode through the description set, no second evaluation through
    ``RuleSet.apply``."""
    from repro.filtering.descriptions import DescriptionSet
    from repro.filtering.rules import RuleSet

    calls = {"decode": 0, "apply": 0}
    real_decode, real_apply = DescriptionSet.decode_message, RuleSet.apply

    def counting_decode(self, raw, host_names=None):
        calls["decode"] += 1
        return real_decode(self, raw, host_names)

    def counting_apply(self, record):
        calls["apply"] += 1
        return real_apply(self, record)

    monkeypatch.setattr(DescriptionSet, "decode_message", counting_decode)
    monkeypatch.setattr(RuleSet, "apply", counting_apply)
    cluster, session = running_session
    cluster.machine("blue").fs.install("reducing", REDUCING_RULES, mode=0o644)
    records = _run_job(session, templates="reducing")
    assert [r["msgLength"] for r in records] == [300, 400, 500, 600]
    assert all(
        "pc" not in r and "machine" not in r and "pid" not in r for r in records
    )
    assert calls == {"decode": 0, "apply": 0}


def test_edited_descriptions_take_only_the_per_field_lane(
    running_session, monkeypatch
):
    """A description file that is not exactly Appendix A is a different
    protocol: the compiled lane is not installed, every message is
    decoded by the file, field by field -- and a file that merely adds
    an event type of the user's own logs the same bytes as the shipped
    one."""
    from repro.filtering import standard
    from repro.filtering.descriptions import (
        DescriptionSet,
        default_descriptions_text,
    )

    cluster, session = running_session
    blue = cluster.machine("blue")
    blue.fs.install("reducing", REDUCING_RULES, mode=0o644)
    _run_job(session, templates="reducing")
    __, shipped_log = session.find_filter_log("f1")

    installed = []
    monkeypatch.setattr(
        standard, "message_select",
        lambda rules, host_names: installed.append(rules),
    )
    walked = []
    real_walk = DescriptionSet.decode_per_field

    def counting_walk(self, raw, host_names=None):
        walked.append(len(raw))
        return real_walk(self, raw, host_names)

    monkeypatch.setattr(DescriptionSet, "decode_per_field", counting_walk)
    cluster2 = Cluster(seed=21)
    session2 = MeasurementSession(cluster2, control_machine="yellow")
    session2.install_program("talker", _talker(6100))
    blue2 = cluster2.machine("blue")
    blue2.fs.install("reducing", REDUCING_RULES, mode=0o644)
    blue2.fs.install(
        "mydescriptions",
        default_descriptions_text() + "MYEVENT 42, pid,0,4,10\n",
        mode=0o644,
    )
    session2.command("filter f1 blue filter mydescriptions reducing")
    session2.command("newjob j")
    session2.command("addprocess j red talker")
    session2.command("setflags j send socket termproc")
    session2.command("startjob j")
    session2.settle()
    __, edited_log = session2.find_filter_log("f1")
    assert edited_log == shipped_log
    assert installed == []
    assert len(walked) == 8  # 6 sends + socket + termproc, once each
