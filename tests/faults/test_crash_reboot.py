"""Machine crash and reboot semantics."""

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.faults import FaultInjector, FaultPlan
from repro.kernel import defs, errno
from repro.kernel.errno import SyscallError
from repro.programs import install_all
from tests.conftest import run_guests


def _sleeper(sys, argv):
    yield sys.sleep(10_000.0)
    yield sys.exit(0)


def test_crash_kills_processes_with_crash_reason():
    cluster = Cluster(seed=5)
    proc = cluster.spawn("red", _sleeper)
    FaultInjector(cluster, FaultPlan().crash(50.0, "red")).arm()
    cluster.run(until_ms=100.0)
    assert proc.state == defs.PROC_ZOMBIE
    assert proc.exit_reason == defs.EXIT_CRASHED
    red = cluster.machine("red")
    assert red.crashed
    assert red.procs == {}
    assert red.endpoints == {}
    assert "panic" in red.console[-1]


def test_crash_resets_remote_peers():
    cluster = Cluster(seed=5)
    outcomes = []

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 5)
        conn, __ = yield sys.accept(fd)
        while True:
            yield sys.read(conn, 4096)

    def client(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("red", 5000)
        )
        try:
            while True:
                yield sys.write(fd, b"ping")
                yield sys.sleep(10.0)
        except SyscallError as err:
            outcomes.append(err.errno)
        yield sys.exit(0)

    cluster.spawn("red", server)
    client_proc = cluster.spawn("green", client)
    FaultInjector(cluster, FaultPlan().crash(60.0, "red")).arm()
    cluster.run_until_exit([client_proc])
    assert outcomes in ([errno.ECONNRESET], [errno.EPIPE])


def test_crashed_machine_drops_inbound_packets():
    cluster = Cluster(seed=5)
    cluster.machine("red").crash()
    sent = cluster.network.datagrams_sent

    def sender(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(fd, b"x" * 32, ("red", 6000))
        yield sys.exit(0)

    run_guests(cluster, ("green", sender, ()))
    net = cluster.network
    assert net.datagrams_sent - sent == 1
    assert net.datagrams_dropped >= 1


def test_reboot_gives_a_cold_kernel_with_surviving_disk():
    cluster = Cluster(seed=5)
    red = cluster.machine("red")
    red.fs.install("data.txt", data="precious", mode=0o644)
    red.crash()
    cluster.run(until_ms=10.0)
    red.reboot()
    assert not red.crashed
    # The disk survived; the process table did not.
    assert bytes(red.fs.node("data.txt").data) == b"precious"
    assert red.procs == {}

    results = []

    def reader(sys, argv):
        from repro import guestlib

        text = yield from guestlib.read_whole_file(sys, "data.txt")
        results.append(text)
        yield sys.exit(0)

    run_guests(cluster, ("red", reader, ()))
    assert results == ["precious"]


def test_reboot_with_session_restarts_the_meterdaemon():
    cluster = Cluster(seed=5)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    plan = FaultPlan().crash(5.0, "red").reboot(60.0, "red")
    injector = FaultInjector(cluster, plan, session=session).arm()
    session.settle(100)
    session.command("filter f1 blue")
    session.command("newjob j")
    out = session.command("addprocess j red dgramproducer green 6000 5 64 1")
    assert "created" in out
    assert any("meterdaemon restarted" in text for __, text in injector.log)


def test_crash_and_reboot_are_idempotent():
    cluster = Cluster(seed=5)
    red = cluster.machine("red")
    red.reboot()  # not crashed: no-op
    assert not red.crashed
    red.crash()
    red.crash()
    assert red.crash_count == 1
    red.reboot()
    red.reboot()
    assert not red.crashed


def test_reboot_inside_a_quantum_leaves_one_process_per_cpu():
    """A crash mid-slice used to leave the victim's slice-end event
    queued; if the machine rebooted inside that quantum the stale event
    released a CPU a new process held, and two ran at once."""
    cluster = Cluster(seed=5)
    red = cluster.machine("red")

    def compute(sys, argv):
        yield sys.compute(40)
        yield sys.exit(0)

    cluster.spawn("red", compute)  # mid-slice when the machine dies
    FaultInjector(cluster, FaultPlan().crash(3.0, "red").reboot(4.0, "red")).arm()
    cluster.run(until_ms=4.5)
    pair = [cluster.spawn("red", compute) for __ in range(2)]
    most_running = 0
    while any(proc.state != defs.PROC_ZOMBIE for proc in pair):
        assert cluster.sim.step()
        running = [
            proc for proc in red.procs.values() if proc.state == defs.PROC_RUNNING
        ]
        most_running = max(most_running, len(running))
    assert most_running == 1
    # 2 x 40 ms on one CPU (both finished at 50.05 ms when they overlapped).
    assert cluster.sim.now >= 4.5 + 80.0
