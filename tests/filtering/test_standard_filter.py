"""The standard filter, end to end: meter connections in, log file out."""

import pytest

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.filtering.records import parse_record_line, parse_trace
from repro.filtering.standard import (
    LOG_IDLE_FLUSH_MS,
    log_path_for,
    recover_text_seqs,
)
from repro.kernel import defs
from repro.metering.messages import MessageCodec, encode_batch_marker
from repro.tracestore import StoreReader
from repro.tracestore.writer import segment_path


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


# ----------------------------------------------------------------------
# The marker rule: a batch commits only with its trailing marker
# ----------------------------------------------------------------------


def _sends(red_id, pid, pcs):
    """Hand-built meter ``send`` messages of red's process ``pid``."""
    codec = MessageCodec()
    return b"".join(
        codec.encode(
            "send", machine=red_id, cpu_time=10 + pc, proc_time=pc, pc=pc,
            pid=pid, sock=3, msgLength=100 * pc, destName=None, destNameLen=0,
        )
        for pc in pcs
    )


def _fed_filter(log_format, streams):
    """A standard filter on blue fed hand-built meter streams from red,
    each on a connection of its own in turn: written whole, then closed
    -- all but the last, which is left open and idle for ten
    idle-flush intervals.  Returns (records in the log, the text log,
    or None for a store)."""
    cluster = Cluster(seed=21)
    MeasurementSession(cluster, start=False)
    blue = cluster.machine("blue")
    log_path = log_path_for("f1", log_format=log_format)

    def launcher(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 4400))
        yield sys.listen(fd, defs.SOMAXCONN)
        yield sys.forkexec(
            "filter", argv=["f1", log_path, "descriptions", "templates"],
            stdio_fd=fd, uid=0,
        )
        yield sys.close(fd)
        yield sys.exit(0)

    def sender(sys, argv):
        for stream in streams[:-1]:
            fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
            yield sys.connect(fd, ("blue", 4400))
            yield sys.write(fd, stream)
            yield sys.close(fd)
            yield sys.sleep(2 * LOG_IDLE_FLUSH_MS)
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.connect(fd, ("blue", 4400))
        yield sys.write(fd, streams[-1])
        yield sys.sleep(10 * LOG_IDLE_FLUSH_MS)
        yield sys.exit(0)

    cluster.run_until_exit([cluster.spawn("blue", launcher, uid=0)])
    sending = cluster.spawn("red", sender)
    cluster.run_until(lambda: sending.state == defs.PROC_ZOMBIE)
    if log_format == "text":
        text = bytes(blue.fs.node(log_path).data).decode("ascii")
        return parse_trace(text), text
    if not blue.fs.exists(segment_path(log_path, 0)):
        return [], None
    reader = StoreReader.from_fs(
        blue.fs, log_path, host_names=cluster.host_table.names_by_id()
    )
    return reader.records(), None


def _red_id():
    return Cluster(seed=21).host_table.lookup("red").host_id


def _hand_fed_filter(log_format, with_marker):
    """Three send records of red's pid 700 -- followed by their batch's
    marker, and the whole batch then sent again as a reconnecting meter
    resends it, when ``with_marker`` -- on one connection then left
    idle.  Returns (records in the log, its ``#batch`` lines, or None
    for a store)."""
    red_id = _red_id()
    batch = _sends(red_id, 700, (1, 2, 3))
    if with_marker:
        batch += encode_batch_marker(red_id, 700, 0)
        batch += batch  # the resend a reconnect would make
    records, text = _fed_filter(log_format, [batch])
    if text is None:
        return records, None
    return records, [
        line for line in text.splitlines() if line.startswith("#batch")
    ]


@pytest.mark.parametrize("log_format", ["text", "store"])
def test_records_without_their_marker_commit_nothing(log_format):
    records, markers = _hand_fed_filter(log_format, with_marker=False)
    assert records == []
    assert not markers


@pytest.mark.parametrize("log_format", ["text", "store"])
def test_records_with_their_marker_commit_exactly_once(log_format):
    records, markers = _hand_fed_filter(log_format, with_marker=True)
    assert [r["pc"] for r in records] == [1, 2, 3]
    if markers is not None:
        assert markers == ["#batch {0} 700 0".format(records[0]["machine"])]


@pytest.mark.parametrize("log_format", ["text", "store"])
def test_a_batch_split_by_a_closed_connection_commits_once(log_format):
    """A connection that closes after a read ending inside a batch
    leaves that batch's first records open; the meter then resends
    the whole batch on a new connection.  The closed connection's open
    records go with it, so each record commits once."""
    red_id = _red_id()
    first = _sends(red_id, 700, (1, 2))
    resend = _sends(red_id, 700, (1, 2, 3)) + encode_batch_marker(red_id, 700, 0)
    records, __ = _fed_filter(log_format, [first, resend])
    assert [r["pc"] for r in records] == [1, 2, 3]


def test_a_text_write_carries_one_batch_line_per_process():
    """Batches of two processes interleaved in one write leave one
    ``#batch`` line per process, right after that process's last batch
    in the write, and recovery reads each one's highest seq from it."""
    red_id = _red_id()
    stream = b"".join([
        _sends(red_id, 700, (1, 2)), encode_batch_marker(red_id, 700, 0),
        _sends(red_id, 701, (3,)), encode_batch_marker(red_id, 701, 0),
        _sends(red_id, 700, (4,)), encode_batch_marker(red_id, 700, 1),
        _sends(red_id, 701, (5,)), encode_batch_marker(red_id, 701, 1),
        _sends(red_id, 700, (6,)), encode_batch_marker(red_id, 700, 2),
    ])
    records, text = _fed_filter("text", [stream])
    assert [r["pc"] for r in records] == [1, 2, 3, 4, 5, 6]
    lines = [
        line if line.startswith("#") else parse_record_line(line)["pc"]
        for line in text.splitlines()
    ]
    assert lines == [
        1, 2, 3, 4, 5, "#batch %d 701 1" % red_id, 6, "#batch %d 700 2" % red_id,
    ]
    assert recover_text_seqs(text) == {(red_id, 700): 2, (red_id, 701): 1}
