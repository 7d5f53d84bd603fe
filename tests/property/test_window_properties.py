"""Property test on stream flow control with delayed window updates:
whatever the write and read sizes, every byte arrives in order, the
transfer terminates, and credit comes back in few, large packets
without ever stranding the sender."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.kernel import defs, packets

_PORT = 5000


@given(
    st.integers(min_value=0, max_value=300),
    st.booleans(),
    st.lists(st.integers(min_value=1, max_value=9000), min_size=1, max_size=6),
    st.lists(st.integers(min_value=32, max_value=6000), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_any_write_and_read_sizes_deliver_every_byte(seed, remote, writes, reads):
    cluster = Cluster(seed=seed)
    sent = b"".join(
        bytes([65 + index % 26]) * size for index, size in enumerate(writes)
    )
    got = []
    writer_socks = []  # the writer's end, once connected

    def reader(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(fd, ("", _PORT))
        yield sys.listen(fd, 1)
        conn, __ = yield sys.accept(fd)
        turn = 0
        while True:
            data = yield sys.read(conn, reads[turn % len(reads)])
            if not data:
                break
            got.append(data)
            turn += 1
        yield sys.exit(0)

    def writer(sys, argv):
        fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.connect(fd, ("red", _PORT))
        writer_socks.append(writer_proc.lookup_socket(fd).obj)
        offset = 0
        for size in writes:
            yield sys.write(fd, sent[offset:offset + size])
            offset += size
        yield sys.close(fd)
        yield sys.exit(0)

    reader_proc = cluster.spawn("red", reader)
    writer_machine = cluster.machine("green" if remote else "red")
    writer_proc = cluster.spawn(writer_machine.host.name, writer)

    shipped = [0]
    ship = writer_machine._ship_stream_data

    def counting_ship(sock, chunk):
        shipped[0] += len(chunk)
        ship(sock, chunk)

    writer_machine._ship_stream_data = counting_ship

    updates = []
    on_window = writer_machine._packet_handlers[packets.STREAM_WINDOW]

    def counting_window(packet):
        updates.append(packet.n)
        on_window(packet)

    writer_machine._packet_handlers[packets.STREAM_WINDOW] = counting_window

    for __ in range(200_000):
        if not cluster.sim.step():
            break
        if not writer_socks:
            continue
        (wsock,) = writer_socks
        rsock = cluster.machine("red").endpoints.get(wsock.peer[1])
        if rsock is None:
            continue
        read = sum(map(len, got))
        assert rsock.window_owed < defs.WINDOW_UPDATE_BYTES
        stalled = (
            writer_proc.state == defs.PROC_SLEEPING and wsock.send_credit <= 0
        )
        if stalled and read == shipped[0]:
            # The reader has taken every byte shipped, so the credit
            # that unblocks the writer must already be on its way.
            assert read - rsock.window_owed - sum(updates) > 0

    assert reader_proc.state == writer_proc.state == defs.PROC_ZOMBIE
    assert b"".join(got) == sent
    assert all(n >= defs.WINDOW_UPDATE_BYTES for n in updates)
    assert len(updates) <= len(sent) // defs.WINDOW_UPDATE_BYTES + 1
