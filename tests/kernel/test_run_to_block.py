"""Run-to-block dispatch: releasing the CPU hands it to the next
runnable process in the same simulator event; only a wake that finds
the CPU idle goes through the event queue."""

import sys as pysys

from repro.kernel import defs
from tests.conftest import run_guests


def test_one_simulator_event_per_syscall(cluster):
    def guest(sys, argv):
        for __ in range(5000):
            yield sys.getpid()
        yield sys.exit(0)

    run_guests(cluster, ("red", guest, ()))
    # One trap event per call (5 001 with the exit) plus the first
    # dispatch; a trampoline event per call made it 10 002.
    assert cluster.sim.events_run <= 5010


def test_five_hundred_sleepers_on_one_socket_all_finish(cluster):
    """Every arriving datagram wakes every process blocked on the
    socket; each retries, one wins, the rest block again -- inside one
    dispatch loop, not one stack frame per process."""
    herd = 500
    got = []

    def child(sys, argv):
        got.append((yield sys.recvfrom(3, 16)))
        yield sys.exit(0)

    def parent(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        assert fd == 3  # the children read the inherited descriptor
        yield sys.bind(fd, ("", 6000))
        for __ in range(herd):
            yield sys.fork(child, ())
        yield sys.sleep(50)
        out = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        for __ in range(herd):
            yield sys.sendto(out, b"x", ("red", 6000))
        yield sys.exit(0)

    run_guests(cluster, ("red", parent, ()))
    cluster.run()
    assert len(got) == herd
    # ~5 events per child (fork, its two traps, the send, the arrival);
    # the retries themselves cost none (68 012 events with a trampoline
    # per retry).
    assert cluster.sim.events_run < 6 * herd


_WAKER_FRAMES = ("wake_all", "proc_exit", "socket_closed", "set_peer_closed")


def _frames_beneath(names):
    """The frames called one of ``names`` on the caller's Python
    stack, innermost first."""
    found = []
    frame = pysys._getframe(1)
    while frame is not None:
        if frame.f_code.co_name in names:
            found.append(frame.f_code.co_name)
        frame = frame.f_back
    return found


def test_a_woken_process_never_runs_inside_its_wakers_stack(cluster):
    """proc_exit wakes the parent half-way through its own bookkeeping
    and a datagram pair's close wakes the peer's sleepers from inside
    socket_closed: the woken process's retried syscall must start from
    the dispatch loop -- one loop deep, no waker beneath it."""
    machine = cluster.machine("red")
    stacks = []
    for name in ("select", "read"):
        handler = machine._handlers[name]

        def spy(proc, request, handler=handler):
            stacks.append(_frames_beneath(("_dispatch",) + _WAKER_FRAMES))
            return handler(proc, request)

        machine._handlers[name] = spy

    def child(sys, argv):
        yield sys.compute(1)
        yield sys.exit(3)

    def reader(sys, argv):
        a, b = argv
        yield sys.close(a)
        yield sys.read(b, 16)  # a datagram socket never reads EOF

    def parent(sys, argv):
        yield sys.fork(child, ())
        __, events = yield sys.select([], want_children=True)
        assert [event["status"] for event in events] == [3]
        a, b = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_DGRAM)
        pid = yield sys.fork(reader, (a, b))
        yield sys.close(b)
        yield sys.compute(1)
        yield sys.close(a)  # last reference: socket_closed wakes the reader
        yield sys.compute(1)
        yield sys.kill(pid, defs.SIGKILL)
        yield sys.exit(0)

    run_guests(cluster, ("red", parent, ()))
    # Each sleeper's first call comes straight from its trap event and
    # blocks; its retry comes from the dispatch loop, one loop deep.
    assert stacks == [[], ["_dispatch"], [], ["_dispatch"]]


def test_round_robin_order_is_unchanged(cluster):
    """Three computing processes on one CPU take their quanta in the
    order, and at the simulated times, they always did."""
    finished = []

    def guest(sys, argv):
        for __ in range(3):
            yield sys.compute(10)
            finished.append((argv[0], round((yield sys.gettimeofday()), 6)))
        yield sys.exit(0)

    run_guests(cluster, *(("red", guest, (name,)) for name in "abc"))
    assert finished == [
        ("a", 30.05), ("b", 30.1), ("c", 30.15),
        ("a", 60.2), ("b", 60.25), ("c", 60.3),
        ("a", 90.35), ("b", 90.4), ("c", 90.45),
    ]
