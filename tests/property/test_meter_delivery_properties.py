"""Property: every event the kernel meter records is delivered, counted
or parked -- over scripted meter connections on one machine.

A metered process on red runs a Hypothesis-drawn script against
a filter stub on blue:

- ``send`` records n events (flushed per event when ``immediate`` is on,
  per ``buffer_limit`` messages otherwise);
- ``unconnected`` sets a new meter socket that is not connected yet,
  and ``connect`` later connects it;
- ``break`` has the stub hang up every meter connection (after reading
  all that has arrived: the stub is a filter that hangs up between
  reads);
- ``reconnect`` sets a new, connected meter socket through ``setmeter``;
- ``unmeter`` sets ``SOCK_NONE``;
- ``fork`` starts a child that records k events and exits;
- the script ends in ``termproc``, with a destination (connected or
  broken) or without one (an unconnected socket, or none).

When every process has exited, each recorded event must be delivered
(on each connection a process's batch seqs rise, and a batch may
arrive again on a later connection), counted in ``events_dropped``, or
parked in an orphan spool -- and never uncounted.  A batch delivered
and then re-marked for resending by a ``setmeter`` can also be counted
when its resend never leaves: the kernel cannot know it arrived
(ROADMAP item 10, acks), so the count may exceed the loss by those
batches and by nothing else.
"""

from hypothesis import given, settings, target
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.kernel import defs
from repro.metering import flags as mf
from repro.metering.messages import MessageCodec, parse_batch_marker, peek_size

PORT = 4400
FLAGS = mf.METERSEND | mf.METERFORK | mf.METERTERMPROC

_scripts = st.tuples(
    st.booleans(),  # immediate flag at the start
    st.lists(
        st.one_of(
            st.tuples(st.just("send"), st.integers(1, 100)),
            st.tuples(st.just("immediate"), st.booleans()),
            st.tuples(st.just("unconnected")),
            st.tuples(st.just("connect")),
            st.tuples(st.just("break")),
            st.tuples(st.just("reconnect")),
            st.tuples(st.just("unmeter")),
            st.tuples(st.just("fork"), st.integers(0, 12)),
        ),
        min_size=1,
        max_size=12,
    ),
)


def _filter_stub(codec, arrivals, control):
    """Accept meter connections; log every batch as (connection, pid,
    seq, records); hang up on every connection when told to."""

    def main(sys, argv):
        listen_fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(listen_fd, ("", PORT))
        yield sys.listen(listen_fd, defs.SOMAXCONN)
        conns = {}  # fd -> [connection index, buffer, pid -> open records]
        while True:
            ready, __ = yield sys.select([listen_fd] + list(conns), timeout_ms=1)
            for fd in ready:
                if fd == listen_fd:
                    conn, __ = yield sys.accept(listen_fd)
                    conns[conn] = [control["accepted"], b"", {}]
                    control["accepted"] += 1
                    continue
                data = yield sys.read(fd, 65536)
                if not data:
                    yield sys.close(fd)
                    del conns[fd]
                    continue
                state = conns[fd]
                buf = state[1] + data
                while len(buf) >= 4 and len(buf) >= peek_size(buf):
                    size = peek_size(buf)
                    raw, buf = buf[:size], buf[size:]
                    marker = parse_batch_marker(raw)
                    if marker is None:
                        pid = codec.decode(raw)["pid"]
                        state[2][pid] = state[2].get(pid, 0) + 1
                    else:
                        pid, seq = marker[1], marker[2]
                        arrivals.append((state[0], pid, seq, state[2].pop(pid, 0)))
                state[1] = buf
            if control["hang_up"]:
                control["hang_up"] = False
                for fd in list(conns):
                    yield sys.close(fd)
                conns.clear()

    return main


def _metered_process(immediate, script, machine, control, remarked, children):
    """The metered process: runs ``script`` step by step."""

    def child(count):
        def main(sys, argv):
            fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
            for __ in range(count):
                yield sys.sendto(fd, b"x", ("red", 6000))
            yield sys.exit(0)

        return main

    def set_meter_socket(sys, fd):
        # A new meter socket re-marks the whole window for resending;
        # note which batches it re-marks.
        pid = yield sys.getpid()
        window = machine.procs[pid].meter_window
        remarked.update((pid, entry[0]) for entry in window)
        yield sys.setmeter(mf.SELF, mf.NO_CHANGE, fd)

    def main(sys, argv):
        data_fd = yield sys.socket(defs.AF_INET, defs.SOCK_DGRAM)
        meter_fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.connect(meter_fd, ("blue", PORT))
        flags = FLAGS | (mf.M_IMMEDIATE if immediate else 0)
        yield sys.setmeter(mf.SELF, flags, meter_fd)
        yield sys.close(meter_fd)
        pending_fd = None  # an unconnected meter socket we still hold
        for step in script:
            kind = step[0]
            if kind == "send":
                for __ in range(step[1]):
                    yield sys.sendto(data_fd, b"x", ("red", 6000))
            elif kind == "immediate":
                flags = FLAGS | (mf.M_IMMEDIATE if step[1] else 0)
                yield sys.setmeter(mf.SELF, flags, mf.NO_CHANGE)
            elif kind == "unconnected":
                if pending_fd is not None:
                    yield sys.close(pending_fd)
                pending_fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
                yield from set_meter_socket(sys, pending_fd)
            elif kind == "connect":
                if pending_fd is not None:
                    yield sys.connect(pending_fd, ("blue", PORT))
                    yield sys.close(pending_fd)
                    pending_fd = None
            elif kind == "break":
                yield sys.sleep(5)  # what was sent has arrived
                control["hang_up"] = True
                yield sys.sleep(10)  # the hang-up has arrived
            elif kind == "reconnect":
                fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
                yield sys.connect(fd, ("blue", PORT))
                yield from set_meter_socket(sys, fd)
                yield sys.close(fd)
            elif kind == "unmeter":
                yield sys.setmeter(mf.SELF, mf.NO_CHANGE, mf.SOCK_NONE)
            else:  # fork
                children.append((yield sys.fork(child(step[1]))))
                yield sys.sleep(20)  # the child has exited
        yield sys.exit(0)

    return main


def _unconnected_sends(script):
    """Most events sent in one stretch on an unconnected meter socket:
    past a window's worth of batches, unsent ones roll out."""
    longest = stretch = 0
    unconnected = False
    for step in script:
        if step[0] == "unconnected":
            unconnected, stretch = True, 0
        elif step[0] in ("connect", "reconnect", "unmeter"):
            unconnected = False
        elif step[0] == "send" and unconnected:
            stretch += step[1]
            longest = max(longest, stretch)
    return longest


def _run(immediate, script):
    cluster = Cluster(seed=3)
    machine = cluster.machine("red")
    codec = MessageCodec(cluster.host_table.names_by_id())
    arrivals, remarked, children = [], set(), []
    control = {"hang_up": False, "accepted": 0}
    cluster.spawn("blue", _filter_stub(codec, arrivals, control), uid=0)
    cluster.run(until_ms=cluster.sim.now + 5)
    metered = cluster.spawn(
        "red", _metered_process(immediate, script, machine, control, remarked, children)
    )
    cluster.run_until_exit([metered])
    cluster.run(until_ms=cluster.sim.now + 50)  # the last batches land
    pids = [metered.pid] + children
    return machine, pids, arrivals, remarked


@given(_scripts)
@settings(max_examples=150, deadline=None)
def test_every_recorded_event_is_delivered_counted_or_parked(drawn):
    target(float(_unconnected_sends(drawn[1])), label="unconnected sends")
    machine, pids, arrivals, remarked = _run(*drawn)
    assert all(machine.procs[pid].state == defs.PROC_ZOMBIE for pid in pids)
    meter = machine.meter

    # Delivered: in order per process on each connection; a batch that
    # arrives again arrives whole.
    delivered = {}
    last_seq = {}
    for conn, pid, seq, records in arrivals:
        assert seq > last_seq.get((conn, pid), -1), (conn, pid, seq)
        last_seq[conn, pid] = seq
        assert delivered.setdefault((pid, seq), records) == records
    # Parked: the exited processes' windows, spooled for a drain.
    parked = {
        (entry[4], entry[0]): entry[2]
        for spool in meter.orphans.values()
        for entry in spool
    }
    for key in parked.keys() & delivered.keys():
        assert parked[key] == delivered[key]
    held = {**delivered, **parked}
    accounted = sum(held.values()) + meter.events_dropped
    # Nothing lost uncounted ...
    assert accounted >= meter.events_recorded
    # ... and nothing counted twice but delivered batches a setmeter
    # re-marked for resending.
    recounted = sum(delivered[key] for key in remarked & delivered.keys())
    assert accounted - meter.events_recorded <= recounted
    assert sum(meter.dropped_by_pid.values()) == meter.events_dropped
