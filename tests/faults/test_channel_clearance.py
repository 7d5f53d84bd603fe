"""The reliable-channel map must not leak: closed connections release
their channel (its clearance, hosts and in-flight packets; kernel
teardown calls Network.close_channel)."""

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.kernel import defs
from repro.programs import install_all
from tests.conftest import run_guests, simple_stream_server


def _client(server, port):
    def main(sys, argv):
        from repro import guestlib

        fd = yield from guestlib.connect_retry(
            sys, defs.AF_INET, defs.SOCK_STREAM, (server, port)
        )
        yield sys.write(fd, b"hello")
        yield sys.read(fd, 4096)
        yield sys.close(fd)
        yield sys.exit(0)

    return main


def test_channel_state_drains_after_stream_teardown():
    cluster = Cluster(seed=11)
    run_guests(
        cluster,
        ("red", simple_stream_server(5000, count=1), ()),
        ("green", _client("red", 5000), ()),
    )
    assert cluster.network._channels == {}


def test_channel_state_stays_bounded_across_many_connections():
    cluster = Cluster(seed=11)
    for round_number in range(10):
        run_guests(
            cluster,
            ("red", simple_stream_server(5000 + round_number, count=1), ()),
            ("green", _client("red", 5000 + round_number), ()),
        )
    assert cluster.network._channels == {}


def test_measurement_session_run_drains_channel_state():
    """A full controller/daemon/filter session tears every connection
    down; nothing may linger in the channel map once it quiesces."""
    cluster = Cluster(seed=11)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command("addprocess j red dgramproducer green 6000 10 64 2")
    session.command("setflags j send immediate")
    session.command("startjob j")
    session.settle()
    session.command("die")
    session.command("die")
    session.settle()
    assert cluster.network._channels == {}
