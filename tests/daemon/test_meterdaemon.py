"""The meterdaemon: RPC operations and notifications, tested without a
controller (a bare test guest plays the controller role)."""

import pytest

from repro.daemon import protocol
from repro.daemon.meterdaemon import METERDAEMON_PORT, meterdaemon
from repro.core.cluster import Cluster
from repro.filtering.descriptions import default_descriptions_text
from repro.filtering.rules import DEFAULT_TEMPLATES_TEXT
from repro.filtering.standard import standard_filter
from repro.kernel import defs
from repro.metering import flags as mf


@pytest.fixture
def rig():
    """A cluster with daemons (no controller) plus RPC helpers."""
    cluster = Cluster(seed=33)
    cluster.registry.register("filter", standard_filter)
    for machine in cluster.machines.values():
        machine.fs.install("filter", data="filter", mode=0o755, program="filter")
        machine.fs.install("descriptions", default_descriptions_text(), mode=0o644)
        machine.fs.install("templates", DEFAULT_TEMPLATES_TEXT, mode=0o644)
        machine.accounts.add(100)
        machine.create_process(main=meterdaemon, uid=0, program_name="meterdaemon")
    return _Rig(cluster)


class _Rig:
    def __init__(self, cluster):
        self.cluster = cluster
        self.notifications = []
        self.notify_port = None
        self._start_notify_sink()

    def _start_notify_sink(self):
        notifications = self.notifications
        holder = {}

        def sink(sys, argv):
            fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
            yield sys.bind(fd, ("", 0))
            yield sys.listen(fd, 8)
            holder["port"] = (yield sys.getsockname(fd)).port
            conns = {}
            while True:
                ready, __ = yield sys.select([fd] + list(conns))
                for rfd in ready:
                    if rfd == fd:
                        conn, __peer = yield sys.accept(fd)
                        conns[conn] = b""
                        continue
                    data = yield sys.read(rfd, 4096)
                    if not data:
                        yield sys.close(rfd)
                        del conns[rfd]
                        continue
                    buf = conns[rfd] + data
                    while len(buf) >= 4:
                        length = int.from_bytes(buf[:4], "big")
                        if len(buf) - 4 < length:
                            break
                        notifications.append(protocol.decode(buf[4 : 4 + length]))
                        buf = buf[4 + length :]
                    conns[rfd] = buf

        self.cluster.spawn("yellow", sink, uid=100, program_name="notifysink")
        self.cluster.run_until(lambda: "port" in holder)
        self.notify_port = holder["port"]

    def rpc(self, machine, msg_type, uid=100, **body):
        """One controller/daemon exchange, from the yellow machine."""
        body.setdefault("uid", uid)
        body.setdefault("control_host", "yellow")
        body.setdefault("control_port", self.notify_port)
        result = {}

        def client(sys, argv):
            from repro import guestlib

            fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
            yield sys.connect(fd, (machine, METERDAEMON_PORT))
            yield from guestlib.send_frame(sys, fd, protocol.encode(msg_type, **body))
            payload = yield from guestlib.recv_frame(sys, fd)
            result["reply"] = protocol.decode(payload)
            yield sys.close(fd)
            yield sys.exit(0)

        proc = self.cluster.spawn("yellow", client, uid=uid, program_name="rpcclient")
        self.cluster.run_until_exit([proc])
        return result["reply"]

    def frames(self, machine, payload):
        """Send one raw frame to the daemon; returns every frame it
        answered with before hanging up."""
        got = []

        def client(sys, argv):
            from repro import guestlib

            fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
            yield sys.connect(fd, (machine, METERDAEMON_PORT))
            yield from guestlib.send_frame(sys, fd, payload)
            while True:
                frame = yield from guestlib.recv_frame(sys, fd)
                if frame is None:
                    break
                got.append(protocol.decode(frame))
            yield sys.close(fd)
            yield sys.exit(0)

        proc = self.cluster.spawn("yellow", client, uid=100, program_name="rawclient")
        self.cluster.run_until_exit([proc])
        return got

    def create_filter(self, machine="blue", name="f1", uid=100):
        reply_type, body = self.rpc(
            machine,
            protocol.CREATE_FILTER_REQ,
            uid=uid,
            filtername=name,
            filterfile="filter",
            descriptions="descriptions",
            templates="templates",
        )
        assert reply_type == protocol.CREATE_FILTER_REPLY, body
        return body

    def settle(self, ms=50):
        self.cluster.run(until_ms=self.cluster.sim.now + ms)


def _install_workload(cluster, name, main):
    cluster.registry.register(name, main)
    for machine in cluster.machines.values():
        machine.fs.install(name, data=name, mode=0o755, program=name)


def _chatty(sys, argv):
    fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
    for __ in range(3):
        yield sys.sendto(fd, b"x", ("green", 6000))
        yield sys.sleep(5)
    yield sys.write(1, b"done\n")
    yield sys.exit(0)


def test_create_filter_reports_meter_port_and_pid(rig):
    body = rig.create_filter()
    assert body["status"] == protocol.OK
    assert body["meter_host"] == "blue"
    assert body["meter_port"] > 0
    assert body["log_path"] == "/usr/tmp/f1.log"
    assert body["pid"] in rig.cluster.machine("blue").procs


def test_create_process_is_suspended_and_metered(rig):
    _install_workload(rig.cluster, "chatty", _chatty)
    filter_body = rig.create_filter()
    reply_type, body = rig.rpc(
        "red",
        protocol.CREATE_REQ,
        filename="chatty",
        params=[],
        filter_host=filter_body["meter_host"],
        filter_port=filter_body["meter_port"],
        meter_flags=mf.M_ALL,
        jobname="j",
        procname="chatty",
    )
    assert reply_type == protocol.CREATE_REPLY and body["status"] == protocol.OK
    proc = rig.cluster.machine("red").procs[body["pid"]]
    assert proc.state == defs.PROC_EMBRYO  # suspended pre-execution
    assert proc.uid == 100  # runs under the requesting account
    assert proc.meter_entry is not None
    assert proc.meter_flags == mf.M_ALL
    rig.settle(100)
    assert proc.state == defs.PROC_EMBRYO  # still suspended


def test_signal_starts_the_created_process(rig):
    _install_workload(rig.cluster, "chatty", _chatty)
    filter_body = rig.create_filter()
    __, body = rig.rpc(
        "red",
        protocol.CREATE_REQ,
        filename="chatty",
        params=[],
        filter_host=filter_body["meter_host"],
        filter_port=filter_body["meter_port"],
        meter_flags=mf.M_ALL,
    )
    pid = body["pid"]
    reply_type, sig_body = rig.rpc(
        "red", protocol.SIGNAL_REQ, pid=pid, sig=defs.SIGCONT
    )
    assert reply_type == protocol.SIGNAL_REPLY and sig_body["status"] == protocol.OK
    rig.settle(200)
    proc = rig.cluster.machine("red").procs[pid]
    assert proc.state == defs.PROC_ZOMBIE
    assert proc.exit_reason == defs.EXIT_NORMAL


def test_termination_notification_reaches_controller(rig):
    _install_workload(rig.cluster, "chatty", _chatty)
    filter_body = rig.create_filter()
    __, body = rig.rpc(
        "red",
        protocol.CREATE_REQ,
        filename="chatty",
        params=[],
        filter_host=filter_body["meter_host"],
        filter_port=filter_body["meter_port"],
        meter_flags=0,
        jobname="foo",
        procname="chatty",
    )
    rig.rpc("red", protocol.SIGNAL_REQ, pid=body["pid"], sig=defs.SIGCONT)
    rig.settle(200)
    terminations = [
        note for mtype, note in rig.notifications
        if mtype == protocol.TERMINATION_NOTIFY
    ]
    assert any(
        note["pid"] == body["pid"]
        and note["reason"] == defs.EXIT_NORMAL
        and note["jobname"] == "foo"
        for note in terminations
    )


def test_output_forwarded_through_gateway(rig):
    _install_workload(rig.cluster, "chatty", _chatty)
    filter_body = rig.create_filter()
    __, body = rig.rpc(
        "red",
        protocol.CREATE_REQ,
        filename="chatty",
        params=[],
        filter_host=filter_body["meter_host"],
        filter_port=filter_body["meter_port"],
        meter_flags=0,
        procname="chatty",
    )
    rig.rpc("red", protocol.SIGNAL_REQ, pid=body["pid"], sig=defs.SIGCONT)
    rig.settle(200)
    outputs = [
        note for mtype, note in rig.notifications
        if mtype == protocol.OUTPUT_NOTIFY
    ]
    assert any("done" in note["data"] for note in outputs)


def test_create_without_account_is_denied(rig):
    _install_workload(rig.cluster, "chatty", _chatty)
    filter_body = rig.create_filter()
    reply_type, body = rig.rpc(
        "red",
        protocol.CREATE_REQ,
        uid=777,  # no account on red
        filename="chatty",
        params=[],
        filter_host=filter_body["meter_host"],
        filter_port=filter_body["meter_port"],
        meter_flags=0,
    )
    assert reply_type == protocol.ERROR_REPLY
    assert "account" in body["status"]


def test_create_missing_executable_is_enoent_error(rig):
    filter_body = rig.create_filter()
    reply_type, body = rig.rpc(
        "red",
        protocol.CREATE_REQ,
        filename="no_such_file",
        params=[],
        filter_host=filter_body["meter_host"],
        filter_port=filter_body["meter_port"],
        meter_flags=0,
    )
    assert reply_type == protocol.ERROR_REPLY
    assert "ENOENT" in body["status"]


def test_signal_foreign_process_denied(rig):
    victim = rig.cluster.spawn(
        "red", _chatty, uid=500, program_name="victim", start=False
    )
    reply_type, body = rig.rpc(
        "red", protocol.SIGNAL_REQ, uid=100, pid=victim.pid, sig=defs.SIGKILL
    )
    assert reply_type == protocol.ERROR_REPLY
    assert victim.state != defs.PROC_ZOMBIE


def test_acquire_meters_a_running_process(rig):
    def forever(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        while True:
            yield sys.sendto(fd, b"x", ("green", 6000))
            yield sys.sleep(10)

    target = rig.cluster.spawn("red", forever, uid=100, program_name="server")
    rig.settle(30)
    filter_body = rig.create_filter()
    reply_type, body = rig.rpc(
        "red",
        protocol.ACQUIRE_REQ,
        pid=target.pid,
        meter_flags=mf.METERSEND,
        filter_host=filter_body["meter_host"],
        filter_port=filter_body["meter_port"],
    )
    assert reply_type == protocol.ACQUIRE_REPLY and body["status"] == protocol.OK
    assert target.meter_entry is not None
    rig.settle(300)
    log = rig.cluster.machine("blue").fs.node("/usr/tmp/f1.log")
    assert b"send" in bytes(log.data)


def test_unmeter_detaches_but_does_not_kill(rig):
    def forever(sys, argv):
        while True:
            yield sys.sleep(10)

    target = rig.cluster.spawn("red", forever, uid=100, program_name="server")
    filter_body = rig.create_filter()
    rig.rpc(
        "red",
        protocol.ACQUIRE_REQ,
        pid=target.pid,
        meter_flags=mf.M_ALL,
        filter_host=filter_body["meter_host"],
        filter_port=filter_body["meter_port"],
    )
    assert target.meter_entry is not None
    reply_type, body = rig.rpc("red", protocol.UNMETER_REQ, pid=target.pid)
    assert reply_type == protocol.UNMETER_REPLY
    assert target.meter_entry is None
    assert target.meter_flags == 0
    assert target.state != defs.PROC_ZOMBIE


def test_getlog_returns_file_content(rig):
    rig.cluster.machine("blue").fs.install(
        "/usr/tmp/f9.log", b"event=send pid=1\n", owner=100, mode=0o644
    )
    reply_type, body = rig.rpc("blue", protocol.GETLOG_REQ, path="/usr/tmp/f9.log")
    assert reply_type == protocol.GETLOG_REPLY
    assert body["content"] == "event=send pid=1\n"


def test_setflags_changes_meter_mask(rig):
    def idle(sys, argv):
        while True:
            yield sys.sleep(100)

    target = rig.cluster.spawn("red", idle, uid=100, program_name="idle")
    rig.settle(5)
    reply_type, body = rig.rpc(
        "red", protocol.SETFLAGS_REQ, pid=target.pid, flags=mf.METERSEND
    )
    assert reply_type == protocol.SETFLAGS_REPLY
    assert target.meter_flags == mf.METERSEND


def test_unknown_request_type_errors(rig):
    reply_type, body = rig.rpc("red", 999)
    assert reply_type == protocol.ERROR_REPLY


def test_handler_table_is_total(rig):
    """Every request type has a handler, a malformed (empty) body is
    survived, and every reply -- ok or error -- is stamped with the
    daemon's boot epoch."""
    for request_type, reply_type in sorted(protocol.REPLY_FOR.items()):
        frames = rig.frames("red", protocol.encode(request_type))
        assert len(frames) == 1, request_type
        got_type, body = frames[0]
        assert got_type in (reply_type, protocol.ERROR_REPLY), request_type
        assert "unknown request" not in body["status"], request_type
        assert "boot" in body, request_type
        ping_type, ping = rig.rpc("red", protocol.PING_REQ)
        assert ping_type == protocol.PING_REPLY and ping["status"] == protocol.OK
        assert ping["boot"] == body["boot"]


#: A port on blue that no filter listens on.
_DEAD_PORT = 4999


def _daemon_proc(rig, machine):
    return next(
        proc
        for proc in rig.cluster.machine(machine).procs.values()
        if proc.program_name == "meterdaemon"
    )


def _live_pids(rig, machine):
    return {
        pid
        for pid, proc in rig.cluster.machine(machine).procs.items()
        if proc.state != defs.PROC_ZOMBIE
    }


def test_failed_create_leaves_no_process_and_no_descriptor_behind(rig):
    """'Not created' means not left behind: a CREATE whose meter
    connection is refused kills the suspended child it forked and
    closes both the meter socket and the gateway."""
    _install_workload(rig.cluster, "chatty", _chatty)
    daemon = _daemon_proc(rig, "red")
    fds_before = len(daemon.fds)
    live_before = _live_pids(rig, "red")
    for __ in range(3):
        reply_type, body = rig.rpc(
            "red",
            protocol.CREATE_REQ,
            filename="chatty",
            params=[],
            filter_host="blue",
            filter_port=_DEAD_PORT,
            meter_flags=mf.M_ALL,
            jobname="j",
            procname="chatty",
        )
        assert reply_type == protocol.ERROR_REPLY
        assert "ECONNREFUSED" in body["status"]
    rig.settle(100)
    assert _live_pids(rig, "red") == live_before
    assert len(daemon.fds) == fds_before
    assert not rig.notifications  # a process never created is never reported


def test_failed_remeter_reports_dead_and_leaks_no_descriptor(rig):
    def forever(sys, argv):
        while True:
            yield sys.sleep(10)

    targets = [
        rig.cluster.spawn("red", forever, uid=100, program_name="server")
        for __ in range(4)
    ]
    rig.settle(5)
    daemon = _daemon_proc(rig, "red")
    fds_before = len(daemon.fds)
    reply_type, body = rig.rpc(
        "red",
        protocol.REMETER_REQ,
        filter_host="blue",
        filter_port=_DEAD_PORT,
        records=[{"pid": proc.pid, "flags": mf.M_ALL} for proc in targets],
    )
    assert reply_type == protocol.REMETER_REPLY
    assert body["dead"] == [proc.pid for proc in targets]
    assert body["remetered"] == []
    assert len(daemon.fds) == fds_before
    assert all(proc.state != defs.PROC_ZOMBIE for proc in targets)


def test_failed_create_filter_leaks_no_listening_socket(rig):
    daemon = _daemon_proc(rig, "blue")
    fds_before = len(daemon.fds)
    for __ in range(3):
        reply_type, body = rig.rpc(
            "blue",
            protocol.CREATE_FILTER_REQ,
            filtername="f1",
            filterfile="no_such_filter",
        )
        assert reply_type == protocol.ERROR_REPLY
        assert "ENOENT" in body["status"]
    assert len(daemon.fds) == fds_before


def test_create_of_a_missing_executable_leaks_no_gateway(rig):
    daemon = _daemon_proc(rig, "red")
    fds_before = len(daemon.fds)
    for __ in range(3):
        reply_type, body = rig.rpc(
            "red", protocol.CREATE_REQ, filename="no_such_file", params=[]
        )
        assert reply_type == protocol.ERROR_REPLY
        assert "ENOENT" in body["status"]
    assert len(daemon.fds) == fds_before
