"""Timed waits: one re-armable timer event per process.

``sleep``, ``select(timeout)``, ``connect(timeout_ms)`` and ``rcp``
record their deadline on the process; a wait that returns early leaves
no stale event behind, so ``settle()`` stops at quiescence and
``pending_events()`` does not grow with the number of polls."""

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.kernel import defs, errno
from repro.kernel.errno import SyscallError
from repro.programs import install_all
from repro.programs.dgram import dgram_consumer, dgram_producer
from tests.conftest import run_guests


def _timer_events(sim):
    """Live ``_timeout_wake`` events in the queue (their heap entries,
    ``[time, seq, callback, args]``)."""
    return [
        entry
        for entry in sim._queue
        if getattr(entry[2], "__name__", None) == "_timeout_wake"
    ]


def test_timed_waits_return_when_they_always_did(cluster):
    """The literals are the simulated times of the one-timer-per-wait
    kernel this replaced."""
    cluster.machine("red").fs.install("/tmp/src", data=b"x" * 5000, mode=0o644)
    cluster.machine("green").crash()  # nobody answers the connect
    seen = []

    def guest(sys, argv):
        yield sys.sleep(12.5)
        seen.append(("sleep", repr((yield sys.gettimeofday()))))
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.bind(fd, ("", 6000))
        ready = yield sys.select([fd], timeout_ms=7.25)
        seen.append(("select", ready, repr((yield sys.gettimeofday()))))
        stream = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield sys.connect(stream, ("green", 7777), timeout_ms=40)
        except SyscallError as err:
            seen.append(("connect", err.errno, repr((yield sys.gettimeofday()))))
        yield sys.rcp("red", "/tmp/src", "green", "/tmp/dst")
        seen.append(("rcp", repr((yield sys.gettimeofday()))))
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    assert seen == [
        ("sleep", "12.600000000000001"),
        ("select", ([], []), "20.050000000000004"),
        ("connect", errno.ETIMEDOUT, "60.2"),
        ("rcp", "66.3"),
    ]


def test_a_shorter_wait_armed_after_a_longer_one_wakes_on_time(cluster):
    """select(300) returns early on data and leaves its timer queued
    for t=300; the sleep(5) that follows must not wait for it."""
    seen = []

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.bind(fd, ("", 6000))
        ready, __ = yield sys.select([fd], timeout_ms=300)
        seen.append((ready, (yield sys.gettimeofday())))
        yield sys.sleep(5)
        seen.append((yield sys.gettimeofday()))
        yield sys.exit(0)

    def poker(sys, argv):
        yield sys.sleep(100)
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(fd, b"hi", ("red", 6000))
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()), ("blue", poker, ()))
    (ready, woke), slept = seen
    assert ready == [3] and 100.0 < woke < 103.0
    assert abs(slept - (woke + 5.0 + 2 * defs.SYSCALL_COST_MS)) < 1e-6
    # The superseded 300 ms timer was cancelled, not left to fire.
    assert cluster.sim.pending_events() == 0


def test_a_later_wait_reuses_the_queued_timer(cluster):
    """Back-to-back select(20) calls that each return early share one
    timer event, which re-arms itself to the current deadline."""
    most = []
    timeouts = []

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.bind(fd, ("", 6000))
        for __ in range(30):
            yield sys.select([fd], timeout_ms=20)
            yield sys.recvfrom(fd, 64)
            most.append(len(_timer_events(cluster.sim)))
        started = yield sys.gettimeofday()
        ready, __ = yield sys.select([fd], timeout_ms=20)
        timeouts.append((ready, (yield sys.gettimeofday()) - started))
        yield sys.exit(0)

    def producer(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        for __ in range(30):
            yield sys.sendto(fd, b"d", ("red", 6000))
            yield sys.sleep(3)
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()), ("red", producer, ()))
    assert max(most) <= 2  # the consumer's one and the producer's one
    # The last select really timed out, 20 ms after it was made.
    (ready, waited), = timeouts
    assert ready == [] and abs(waited - (20.0 + 2 * defs.SYSCALL_COST_MS)) < 1e-6
    assert _timer_events(cluster.sim) == []


def test_settle_stops_at_the_last_real_event():
    """A consumer that got everything exits with its last select(300)
    timer still queued; running to quiescence used to sit out those
    300 ms."""
    cluster = Cluster(seed=5, machines=("red", "green"))
    consumer = cluster.spawn("red", dgram_consumer, argv=["6001", "20", "300"])
    producer = cluster.spawn(
        "green", dgram_producer, argv=["red", "6001", "20", "64", "1"]
    )
    cluster.run_until_exit([consumer, producer])
    finished = cluster.sim.now
    cluster.run()
    assert consumer.exit_status == 20
    assert cluster.sim.now == finished
    assert cluster.sim.pending_events() == 0


def test_polling_a_session_does_not_grow_the_event_queue():
    cluster = Cluster(seed=3)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    session.command("filter f1 blue")
    session.command("newjob dg")
    session.command("addprocess dg red dgramconsumer 6001 40 300")
    session.command("addprocess dg green dgramproducer red 6001 40 64 1")
    session.command("setflags dg send receive termproc immediate")
    session.command("startjob dg")
    session.settle()
    assert cluster.sim.pending_events() == 0
    pending = set()
    for __ in range(100):
        session.settle(50.0)
        session.command("stats f1")
        pending.add(cluster.sim.pending_events())
        # No process ever owns more than one timer event.
        owners = [entry[3][0] for entry in _timer_events(cluster.sim)]
        assert len(owners) == len(set(owners))
    # One stale timer per poll made this 8, 14, 20 ... 155.
    assert len(pending) == 1 and pending.pop() <= 6
