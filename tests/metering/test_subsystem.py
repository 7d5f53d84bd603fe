"""The in-kernel meter: event generation, buffering, flush policy."""

import types
from sys import getprofile, setprofile

import pytest

from repro.kernel import defs
from repro.metering import flags as mf
from repro.metering.messages import (
    BODY_FIELDS,
    EVENT_TYPES,
    field_encoder,
    message_length,
    parse_batch_marker,
    peek_size,
)
from tests.metering.harness import metered_spawn, start_collector


def _events(records, proc=None):
    if proc is None:
        return [r["event"] for r in records]
    return [r["event"] for r in records if r["pid"] == proc.pid]


def test_every_flagged_syscall_produces_its_event(cluster):
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.bind(fd, ("", 6000))
        yield sys.sendto(fd, b"x" * 10, ("red", 6000))
        data, __src = yield sys.recvfrom(fd, 100)
        dup_fd = yield sys.dup(fd)
        yield sys.close(dup_fd)
        yield sys.exit(0)

    proc = metered_spawn(cluster, "red", guest)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert _events(records) == [
        "socket",
        "send",
        "receivecall",
        "receive",
        "dup",
        "destsocket",
        "termproc",
    ]


def test_only_flagged_events_are_recorded(cluster):
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(fd, b"x", ("red", 6000))
        yield sys.exit(0)

    proc = metered_spawn(
        cluster, "red", guest, flags=mf.METERSEND | mf.M_IMMEDIATE
    )
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert _events(records) == ["send"]


def test_receivecall_logged_even_when_receive_blocks(cluster):
    """receivecall fires when the call is made; receive only when a
    message actually arrives."""
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.bind(fd, ("", 6000))
        yield sys.recvfrom(fd, 100)  # blocks until the datagram below
        yield sys.exit(0)

    def sender(sys, argv):
        yield sys.sleep(50)
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(fd, b"x", ("red", 6000))
        yield sys.exit(0)

    proc = metered_spawn(cluster, "red", guest)
    cluster.run(until_ms=cluster.sim.now + 30)
    # Blocked in recvfrom: receivecall visible, receive not yet.
    assert "receivecall" in _events(records)
    assert "receive" not in _events(records)
    sender_proc = cluster.spawn("green", sender, uid=100)
    cluster.run_until_exit([proc, sender_proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert "receive" in _events(records)


def test_receivecall_not_duplicated_by_blocking_retries(cluster):
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.bind(fd, ("", 6000))
        yield sys.recvfrom(fd, 100)
        yield sys.exit(0)

    def sender(sys, argv):
        yield sys.sleep(50)
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(fd, b"x", ("red", 6000))
        yield sys.exit(0)

    proc = metered_spawn(cluster, "red", guest)
    sender_proc = cluster.spawn("green", sender, uid=100)
    cluster.run_until_exit([proc, sender_proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert _events(records).count("receivecall") == 1


def test_stream_send_has_no_destination_name(cluster):
    records, __ = start_collector(cluster)

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 5)
        conn, __peer = yield sys.accept(fd)
        yield sys.read(conn, 100)
        yield sys.exit(0)

    def client(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("red", 5000)
        )
        yield sys.write(fd, b"hello")
        yield sys.exit(0)

    cluster.spawn("red", server, uid=100)
    proc = metered_spawn(cluster, "green", client)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    sends = [r for r in records if r["event"] == "send"]
    assert sends[0]["destNameLen"] == 0
    assert sends[0]["destName"] == ""


def test_datagram_send_carries_destination_name(cluster):
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(fd, b"x", ("green", 6001))
        yield sys.exit(0)

    proc = metered_spawn(cluster, "red", guest)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    sends = [r for r in records if r["event"] == "send"]
    assert sends[0]["destName"] == "inet:green:6001"


def test_socketpair_produces_all_four_messages(cluster):
    """Section 3.2: "all four messages are produced"."""
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        yield sys.socketpair(defs.AF_UNIX, defs.SOCK_STREAM)
        yield sys.exit(0)

    proc = metered_spawn(
        cluster,
        "red",
        guest,
        flags=mf.METERSOCKET | mf.METERCONNECT | mf.METERACCEPT | mf.M_IMMEDIATE,
    )
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert _events(records) == ["socket", "socket", "connect", "accept"]


def test_accept_event_records_both_names_and_new_socket(cluster):
    records, __ = start_collector(cluster)

    def server(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 5000))
        yield sys.listen(fd, 5)
        conn, __peer = yield sys.accept(fd)
        yield sys.exit(0)

    def client(sys, argv):
        from repro import guestlib

        yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, ("red", 5000)
        )
        yield sys.exit(0)

    proc = metered_spawn(cluster, "red", server)
    cluster.spawn("green", client, uid=100)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    accepts = [r for r in records if r["event"] == "accept"]
    assert accepts[0]["sockName"] == "inet:red:5000"
    assert accepts[0]["peerName"].startswith("inet:green:")
    assert accepts[0]["newSock"] != accepts[0]["sock"]


def test_every_hook_records_each_of_its_fields(cluster):
    """Each of the ten hooks, driven through the real kernel, fills
    every field of its message: both names and both ``*NameLen`` of a
    connect and an accept, a stream send's empty and a datagram send's
    real destination, a receive's source, dup's ``newSock``, fork's
    ``newPid`` and termproc's ``status``.  A record whose hook left a
    field out would have been packed by ``field_encoder`` (the
    per-field fallback), so its code must run for none of them."""
    records, __ = start_collector(cluster)
    seen = {}

    def addr(machine, pid, fd):
        return cluster.machine(machine).procs[pid].fds[fd].addr

    def child(sys, argv):
        yield sys.exit(3)

    def server(sys, argv):
        pid = yield sys.getpid()
        listener = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(listener, ("", 5000))
        yield sys.listen(listener, 5)
        udp = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.bind(udp, ("", 6000))
        conn, __peer = yield sys.accept(listener)
        yield sys.read(conn, 100)
        yield sys.recvfrom(udp, 100)
        copy = yield sys.dup(conn)
        yield sys.close(copy)
        seen["child"] = yield sys.fork(child)
        seen["red"] = {
            "listener": addr("red", pid, listener),
            "udp": addr("red", pid, udp),
            "conn": addr("red", pid, conn),
            "copy": copy,
        }
        yield sys.exit(5)

    def client(sys, argv):
        pid = yield sys.getpid()
        stream = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.connect(stream, ("red", 5000))
        stream_name = yield sys.getsockname(stream)
        yield sys.write(stream, b"hello")
        udp = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(udp, b"abc", ("red", 6000))
        udp_name = yield sys.getsockname(udp)
        seen["green"] = {
            "stream": addr("green", pid, stream),
            "udp": addr("green", pid, udp),
            "stream_name": stream_name.display(),
            "udp_name": udp_name.display(),
        }
        yield sys.exit(0)

    per_field = {field_encoder(event).__code__ for event in BODY_FIELDS}
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in per_field:
            runs.append(frame.f_code)

    previous = getprofile()
    setprofile(profile)
    try:
        srv = metered_spawn(cluster, "red", server)
        cluster.run(until_ms=cluster.sim.now + 20)  # listening first
        cli = metered_spawn(cluster, "green", client)
        cluster.run_until_exit([srv, cli])
        cluster.run(until_ms=cluster.sim.now + 20)
    finally:
        setprofile(previous)
    assert runs == []

    red, green = seen["red"], seen["green"]
    stream_name, udp_name = green["stream_name"], green["udp_name"]
    inet, stream, dgram = defs.AF_INET, defs.SOCK_STREAM, defs.SOCK_DGRAM
    # (event, pc, body): pc is the ordinal of the syscall that fired
    # the hook in its process (a blocked read's receive shares it).
    expected = {
        srv.pid: [
            ("socket", 2, dict(sock=red["listener"], domain=inet, type=stream, protocol=0)),
            ("socket", 5, dict(sock=red["udp"], domain=inet, type=dgram, protocol=0)),
            ("accept", 7, dict(
                sock=red["listener"], newSock=red["conn"],
                sockName="inet:red:5000", sockNameLen=8,
                peerName=stream_name, peerNameLen=8,
            )),
            ("receivecall", 8, dict(sock=red["conn"])),
            ("receive", 8, dict(
                sock=red["conn"], msgLength=5,
                sourceName=stream_name, sourceNameLen=8,
            )),
            ("receivecall", 9, dict(sock=red["udp"])),
            ("receive", 9, dict(
                sock=red["udp"], msgLength=3,
                sourceName=udp_name, sourceNameLen=8,
            )),
            ("dup", 10, dict(sock=red["conn"], newSock=red["copy"])),
            ("destsocket", 11, dict(sock=red["conn"])),
            ("fork", 12, dict(newPid=seen["child"])),
            ("termproc", 13, dict(status=5)),
        ],
        seen["child"]: [("termproc", 1, dict(status=3))],
        cli.pid: [
            ("socket", 2, dict(sock=green["stream"], domain=inet, type=stream, protocol=0)),
            ("connect", 3, dict(
                sock=green["stream"],
                sockName=stream_name, sockNameLen=8,
                peerName="inet:red:5000", peerNameLen=8,
            )),
            ("send", 5, dict(
                sock=green["stream"], msgLength=5, destName="", destNameLen=0,
            )),
            ("socket", 6, dict(sock=green["udp"], domain=inet, type=dgram, protocol=0)),
            ("send", 7, dict(
                sock=green["udp"], msgLength=3,
                destName="inet:red:6000", destNameLen=8,
            )),
            ("termproc", 9, dict(status=0)),
        ],
    }
    hosts = {
        srv.pid: cluster.host_table.lookup("red").host_id,
        seen["child"]: cluster.host_table.lookup("red").host_id,
        cli.pid: cluster.host_table.lookup("green").host_id,
    }
    assert {r["pid"] for r in records} == set(expected)
    for pid, events in expected.items():
        got = [r for r in records if r["pid"] == pid]
        clock = [r["cpuTime"] for r in got]
        assert clock == sorted(clock) and clock[-1] <= cluster.sim.now
        assert [r["procTime"] for r in got] == [0] * len(got)  # no compute
        assert got == [
            dict(
                body,
                size=message_length(event),
                machine=hosts[pid],
                cpuTime=record["cpuTime"],
                procTime=0,
                traceType=EVENT_TYPES[event],
                event=event,
                pid=pid,
                pc=pc,
            )
            for record, (event, pc, body) in zip(got, events)
        ]


def test_buffering_batches_messages(cluster):
    """Without M_IMMEDIATE, the kernel ships batches of 8 messages:
    "the number of meter messages is considerably smaller than the
    number of messages sent by the metered process"."""
    records, __ = start_collector(cluster)
    machine = cluster.machine("red")

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        for __i in range(32):
            yield sys.sendto(fd, b"x", ("red", 6000))
        yield sys.exit(0)

    proc = metered_spawn(cluster, "red", guest, flags=mf.METERSEND)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    sends = [r for r in records if r["event"] == "send"]
    assert len(sends) == 32  # nothing lost
    # 32 events + termination flush: exactly 5 wire messages (4x8 + 0).
    assert machine.meter.wire_sends == 4


def test_immediate_mode_sends_each_event_alone(cluster):
    records, __ = start_collector(cluster)
    machine = cluster.machine("red")

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        for __i in range(5):
            yield sys.sendto(fd, b"x", ("red", 6000))
        yield sys.exit(0)

    proc = metered_spawn(
        cluster, "red", guest, flags=mf.METERSEND | mf.M_IMMEDIATE
    )
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert machine.meter.wire_sends == 5


def test_unsent_messages_flushed_at_termination(cluster):
    """Section 3.2: "As part of process termination, any unsent
    messages are forwarded to the filter"."""
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(fd, b"x", ("red", 6000))  # 1 event < buffer of 8
        yield sys.exit(0)

    proc = metered_spawn(cluster, "red", guest, flags=mf.METERSEND)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert _events(records) == ["send"]


def test_termproc_event_is_the_last_and_carries_status(cluster):
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        yield sys.compute(1)
        yield sys.exit(17)

    proc = metered_spawn(cluster, "red", guest, flags=mf.METERTERMPROC)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert records[-1]["event"] == "termproc"
    assert records[-1]["status"] == 17


def test_header_carries_machine_and_granular_proc_time(cluster):
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        yield sys.compute(25)
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(fd, b"x", ("red", 6000))
        yield sys.exit(0)

    proc = metered_spawn(cluster, "green", guest, flags=mf.METERSEND | mf.M_IMMEDIATE)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    send = [r for r in records if r["event"] == "send"][0]
    assert send["machine"] == cluster.host_table.lookup("green").host_id
    assert send["procTime"] == 20  # 25ms exact, reported at 10ms ticks


def test_unmetered_process_records_nothing(cluster):
    records, __ = start_collector(cluster)

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        yield sys.sendto(fd, b"x", ("red", 6000))
        yield sys.exit(0)

    proc = cluster.spawn("red", guest, uid=100)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert records == []
    assert cluster.machine("red").meter.events_recorded == 0


def test_backpressure_requeues_batch_until_meter_socket_connects(cluster):
    """A healthy-but-not-yet-connected meter socket refuses the flush
    transiently; the batch must be kept in the resend window, not
    silently discarded, and shipped once the socket connects."""
    records, __ = start_collector(cluster)
    machine = cluster.machine("red")

    def guest(sys, argv):
        meter_fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        # Appendix C: the meter socket "must be connected to be used,
        # though this is not checked" -- set it before connecting.
        yield sys.setmeter(mf.SELF, mf.METERSEND | mf.M_IMMEDIATE, meter_fd)
        data_fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        for __i in range(3):
            yield sys.sendto(data_fd, b"x", ("red", 6000))
        yield sys.connect(meter_fd, ("blue", 4400))
        yield sys.sendto(data_fd, b"x", ("red", 6000))
        yield sys.exit(0)

    proc = cluster.spawn("red", guest, uid=100)
    cluster.run_until_exit([proc])
    cluster.run(until_ms=cluster.sim.now + 20)
    assert _events(records) == ["send", "send", "send", "send"]
    assert machine.meter.events_dropped == 0
    # The three refused batches waited in the window and left after
    # the connect, oldest first, each in its own wire send.
    assert machine.meter.wire_sends == 4


def test_backpressure_requeue_is_bounded_and_counted(cluster):
    """A meter socket that never becomes ready cannot grow the kernel's
    undelivered data forever: past the resend window the oldest batches
    are dropped, and every loss shows up in events_dropped."""
    machine = cluster.machine("red")

    def guest(sys, argv):
        meter_fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.setmeter(mf.SELF, mf.METERSEND | mf.M_IMMEDIATE, meter_fd)
        data_fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        for __i in range(100):
            yield sys.sendto(data_fd, b"x", ("red", 6000))
        yield sys.exit(0)

    proc = cluster.spawn("red", guest, uid=100)
    cluster.run_until_exit([proc])
    assert machine.meter.events_recorded == 100
    assert machine.meter.wire_sends == 0
    # 68 one-message batches rolled out of the 32-batch resend window;
    # the surviving 32 were discarded at exit, since an unconnected
    # socket names no filter to spool them for.  Nothing lost silently.
    assert machine.meter.events_dropped == 100
    assert proc.meter_buffer == []


def test_child_forked_on_a_broken_meter_connection_records_into_its_window(
    cluster,
):
    """fork() passes on a broken meter connection's destination: the
    child records into its own resend window, shows in meterstat's
    ``disconnected`` list (the daemon's redial worklist), and parks its
    window for a drain at exit -- it neither records nothing nor loses
    anything uncounted."""
    machine = cluster.machine("red")
    seen = {}

    def filter_stub(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 4400))
        yield sys.listen(fd, defs.SOMAXCONN)
        conn, __ = yield sys.accept(fd)
        yield sys.close(conn)  # hang up at once
        yield sys.exit(0)

    def child(sys, argv):
        data_fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        for __ in range(5):
            yield sys.sendto(data_fd, b"x", ("red", 6000))
        pid = yield sys.getpid()
        stat = machine.meter.sys_meterstat(types.SimpleNamespace(uid=0), None)
        seen["disconnected"] = pid in stat["disconnected"]
        yield sys.exit(0)

    def parent(sys, argv):
        data_fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        meter_fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.connect(meter_fd, ("blue", 4400))
        yield sys.setmeter(mf.SELF, mf.METERSEND | mf.M_IMMEDIATE, meter_fd)
        yield sys.close(meter_fd)
        yield sys.sleep(20)  # the stub's hang-up arrives
        for __ in range(2):  # the second flush finds the connection dead
            yield sys.sendto(data_fd, b"x", ("red", 6000))
        seen["child"] = yield sys.fork(child)
        yield sys.sleep(50)
        yield sys.exit(0)

    cluster.spawn("blue", filter_stub, uid=0)
    cluster.run(until_ms=cluster.sim.now + 5)
    proc = cluster.spawn("red", parent, uid=100)
    cluster.run_until_exit([proc])
    meter = machine.meter
    assert meter.events_recorded == 7
    assert meter.events_dropped == 0
    assert seen["disconnected"]
    parked = [
        entry[2]
        for spool in meter.orphans.values()
        for entry in spool
        if entry[4] == seen["child"]
    ]
    assert sum(parked) == 5


def test_metering_cost_is_charged_to_the_process(cluster):
    """Metering perturbs the metered process a little (Section 2.2
    accepts small degradation); the charge is visible in cpu_ms."""
    start_collector(cluster)

    def guest(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        for __i in range(100):
            yield sys.sendto(fd, b"x", ("red", 6000))
        yield sys.exit(0)

    bare = cluster.spawn("green", guest, uid=100)
    cluster.run_until_exit([bare])
    metered = metered_spawn(cluster, "red", guest, flags=mf.METERSEND)
    cluster.run_until_exit([metered])
    assert metered.cpu_ms > bare.cpu_ms
    # ... but only slightly (transparency).
    assert metered.cpu_ms < bare.cpu_ms * 1.5


def test_reconnect_resends_the_window_in_sequence_order(cluster):
    """The first filter connection dies after three batches; the next
    ones are stamped into the resend window unsent.  A replacement
    meter socket gets the whole window again, oldest first, and later
    flushes follow it in order."""
    seqs = {}  # connection index -> batch sequence numbers, as received

    def filter_stub(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", 4400))
        yield sys.listen(fd, defs.SOMAXCONN)
        for index in range(2):
            conn, __ = yield sys.accept(fd)
            got = seqs.setdefault(index, [])
            buf = b""
            while index == 1 or len(got) < 3:  # hang up on the first one
                data = yield sys.read(conn, 8192)
                if not data:
                    break
                buf += data
                while len(buf) >= 4 and len(buf) >= peek_size(buf):
                    marker = parse_batch_marker(buf)
                    if marker is not None:
                        got.append(marker[2])
                    buf = buf[peek_size(buf):]
            yield sys.close(conn)
        yield sys.exit(0)

    def meter_socket(sys):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.connect(fd, ("blue", 4400))
        return fd

    def guest(sys, argv):
        data_fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        first = yield from meter_socket(sys)
        yield sys.setmeter(mf.SELF, mf.METERSEND | mf.M_IMMEDIATE, first)
        yield sys.close(first)  # the kernel keeps its own reference
        for __ in range(3):
            yield sys.sendto(data_fd, b"x", ("red", 6000))
        yield sys.sleep(20)  # the stub's close arrives
        for __ in range(20):
            yield sys.sendto(data_fd, b"x", ("red", 6000))
        second = yield from meter_socket(sys)
        yield sys.setmeter(mf.SELF, mf.NO_CHANGE, second)
        for __ in range(4):
            yield sys.sendto(data_fd, b"x", ("red", 6000))
        yield sys.exit(0)

    stub = cluster.spawn("blue", filter_stub, uid=0)
    proc = cluster.spawn("red", guest, uid=100)
    cluster.run_until_exit([proc, stub])
    assert seqs[0] == [0, 1, 2]
    # Everything the window held, from the start, then the new flushes.
    assert seqs[1] == list(range(len(seqs[1]))) and len(seqs[1]) > 7
    assert cluster.machine("red").meter.events_dropped == 0
    assert proc.meter_unsent == 0
