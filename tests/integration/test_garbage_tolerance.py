"""Garbage tolerance: the measurement system's network endpoints are
open to any process; junk input must never take them down."""

import pytest

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.daemon.meterdaemon import METERDAEMON_PORT
from repro.kernel import defs
from repro.programs import install_all


@pytest.fixture
def session():
    cluster = Cluster(seed=97)
    sess = MeasurementSession(cluster, control_machine="yellow")
    install_all(sess)
    return sess


def _alive(machine, program_name):
    return any(
        p.program_name == program_name and p.state != defs.PROC_ZOMBIE
        for p in machine.procs.values()
    )


def _garbage_sender(target_host, target_port, payload):
    def guest(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, (target_host, target_port)
        )
        yield sys.write(fd, payload)
        yield sys.close(fd)
        yield sys.exit(0)

    return guest


def test_filter_survives_garbage_on_meter_port(session):
    session.command("filter f1 blue")
    info = None
    # Find the filter's meter port from the daemon's reply via a real
    # metered job (the controller knows it; we re-derive it).
    # Easier: attack the only listening stream port on blue owned by
    # the filter; enumerate blue's inet bindings.
    blue = session.cluster.machine("blue")
    meter_ports = [
        port
        for (stype, port), sock in blue.inet_ports.items()
        if stype == defs.SOCK_STREAM and port != METERDAEMON_PORT
    ]
    assert meter_ports
    attacker = session.cluster.spawn(
        "red",
        _garbage_sender("blue", meter_ports[0], b"\xde\xad\xbe\xef" * 10),
        uid=100,
    )
    session.cluster.run_until_exit([attacker])
    session.settle(100)
    assert _alive(blue, "filter")
    # The filter still does its job afterwards.
    session.command("newjob j")
    session.command("addprocess j red dgramproducer green 6000 5 64 1")
    session.command("setflags j send")
    session.command("startjob j")
    session.settle()
    sends = [r for r in session.read_trace("f1") if r["event"] == "send"]
    assert len(sends) == 5


def test_filter_drops_malformed_but_framed_messages(session):
    """A well-framed message with a bogus traceType is dropped, and
    later valid messages still log."""
    session.command("filter f1 blue")
    blue = session.cluster.machine("blue")
    meter_ports = [
        port
        for (stype, port), sock in blue.inet_ports.items()
        if stype == defs.SOCK_STREAM and port != METERDAEMON_PORT
    ]
    bogus = bytearray(36)
    bogus[0:4] = (36).to_bytes(4, "big")
    bogus[20:24] = (99).to_bytes(4, "big")  # unknown traceType
    attacker = session.cluster.spawn(
        "red", _garbage_sender("blue", meter_ports[0], bytes(bogus)), uid=100
    )
    session.cluster.run_until_exit([attacker])
    session.settle(50)
    assert _alive(blue, "filter")
    session.command("newjob j")
    session.command("addprocess j red dgramproducer green 6000 3 64 1")
    session.command("setflags j send")
    session.command("startjob j")
    session.settle()
    assert len(session.read_trace("f1")) == 3


@pytest.mark.parametrize("log_format", ["text", "store"])
def test_filter_drops_truncated_messages(log_format):
    """A framed, name-less message whose size is shorter than its
    event's layout (a 34-byte ``socket``) is malformed.  It must be
    dropped -- not logged as a record of zeros, and above all not
    committed to the store, where the short payload would be a
    CRC-valid frame no strict scan can ever decode."""
    from repro.tracestore import scan_fast

    cluster = Cluster(seed=97)
    session = MeasurementSession(
        cluster, control_machine="yellow", log_format=log_format
    )
    install_all(session)
    session.command("filter f1 blue")
    blue = cluster.machine("blue")
    meter_ports = [
        port
        for (stype, port), sock in blue.inet_ports.items()
        if stype == defs.SOCK_STREAM and port != METERDAEMON_PORT
    ]
    truncated = bytearray(34)
    truncated[0:4] = (34).to_bytes(4, "big")
    truncated[4:6] = (1).to_bytes(2, "big")    # machine
    truncated[20:24] = (4).to_bytes(4, "big")  # traceType: socket
    truncated[24:28] = (77).to_bytes(4, "big")  # pid
    attacker = cluster.spawn(
        "red", _garbage_sender("blue", meter_ports[0], bytes(truncated)),
        uid=100,
    )
    cluster.run_until_exit([attacker])
    session.settle(50)
    assert _alive(blue, "filter")
    session.command("newjob j")
    session.command("addprocess j red dgramproducer green 6000 3 64 1")
    session.command("setflags j send")
    session.command("startjob j")
    session.settle()
    records = session.read_trace("f1")
    assert [r["event"] for r in records] == ["send"] * 3
    if log_format == "store":
        # The store stays strictly scannable on both lanes.
        reader = session.store_reader("f1")
        assert list(scan_fast(reader)) == list(reader.scan()) == records


def test_daemon_survives_garbage_rpc(session):
    attacker = session.cluster.spawn(
        "green",
        _garbage_sender("red", METERDAEMON_PORT, b"\x00\x00\x00\x05notjs"),
        uid=100,
    )
    session.cluster.run_until_exit([attacker])
    session.settle(50)
    assert _alive(session.cluster.machine("red"), "meterdaemon")
    # Daemon still serves real requests.
    session.command("filter f1 blue")
    session.command("newjob j")
    out = session.command("addprocess j red nameserver 5353")
    assert "created" in out


def test_daemon_survives_absurd_frame_length(session):
    """A frame header claiming 4 GB must not wedge the daemon."""
    attacker = session.cluster.spawn(
        "green",
        _garbage_sender("red", METERDAEMON_PORT, b"\xff\xff\xff\xff"),
        uid=100,
    )
    session.cluster.run_until_exit([attacker])
    session.settle(100)
    assert _alive(session.cluster.machine("red"), "meterdaemon")
    session.command("filter f1 blue")
    session.command("newjob j")
    assert "created" in session.command("addprocess j red nameserver 5353")


def test_controller_survives_garbage_notifications(session):
    controller = session.controller_proc
    port = None
    # The controller's notification port: the only yellow stream
    # listener that is not the daemon.
    yellow = session.cluster.machine("yellow")
    ports = [
        p
        for (stype, p), sock in yellow.inet_ports.items()
        if stype == defs.SOCK_STREAM and p != METERDAEMON_PORT
    ]
    assert ports
    attacker = session.cluster.spawn(
        "red",
        _garbage_sender("yellow", ports[0], b"\x00\x00\x00\x04junk"),
        uid=100,
    )
    session.cluster.run_until_exit([attacker])
    session.settle(50)
    assert session.controller_alive()
    assert "no jobs" in session.command("jobs")
    del controller, port


def test_controller_hangs_up_on_an_absurd_notification_length(session):
    """A notification header claiming more than MAX_FRAME_BYTES is no
    daemon's: the controller closes the connection at once instead of
    holding one of its descriptors open to buffer it."""
    yellow = session.cluster.machine("yellow")
    ports = [
        p
        for (stype, p), sock in yellow.inet_ports.items()
        if stype == defs.SOCK_STREAM and p != METERDAEMON_PORT
    ]
    assert ports
    seen = []

    def lingering_sender(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("yellow", ports[0])
        )
        yield sys.write(fd, b"\xff\xff\xff\xff")
        start = yield sys.gettimeofday()
        ready, __ = yield sys.select([fd], timeout_ms=200.0)
        if fd in ready:
            data = yield sys.read(fd, 16)
            seen.append((data, (yield sys.gettimeofday()) - start))
        yield sys.close(fd)
        yield sys.exit(0)

    attacker = session.cluster.spawn("red", lingering_sender, uid=100)
    session.cluster.run_until_exit([attacker])
    assert len(seen) == 1, "the controller kept the connection open"
    data, waited = seen[0]
    assert data == b"" and waited < 200.0
    session.settle(50)
    assert session.controller_alive()
    assert "no jobs" in session.command("jobs")
