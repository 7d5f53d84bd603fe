"""Unit tests for the internetwork delivery services."""

from repro.net.hosts import HostTable
from repro.net.network import Network, NetworkParams
from repro.sim.simulator import Simulator


def _net(seed=1, **params):
    sim = Simulator(seed=seed)
    table = HostTable()
    a = table.add("a")
    b = table.add("b")
    return sim, Network(sim, NetworkParams(**params)), a, b


def test_datagram_delivery_takes_latency():
    sim, net, a, b = _net(base_latency_ms=2.0, jitter_ms=0.0, bandwidth_bytes_per_ms=0)
    arrivals = []
    net.send_datagram(a, b, 100, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [2.0]


def test_local_delivery_is_faster_than_remote():
    sim, net, a, b = _net(jitter_ms=0.0)
    times = {}
    net.send_datagram(a, a, 10, lambda: times.setdefault("local", sim.now))
    net.send_datagram(a, b, 10, lambda: times.setdefault("remote", sim.now))
    sim.run()
    assert times["local"] < times["remote"]


def test_bandwidth_adds_transfer_time():
    sim, net, a, b = _net(base_latency_ms=1.0, jitter_ms=0.0, bandwidth_bytes_per_ms=100.0)
    arrivals = []
    net.send_datagram(a, b, 1000, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [1.0 + 10.0]


def test_datagram_loss_drops_some_remote_packets():
    sim, net, a, b = _net(seed=3, datagram_loss=0.5)
    delivered = []
    for __ in range(200):
        net.send_datagram(a, b, 10, lambda: delivered.append(1))
    sim.run()
    assert 0 < len(delivered) < 200
    assert net.datagrams_dropped == 200 - len(delivered)


def test_datagram_loss_never_applies_locally():
    sim, net, a, b = _net(seed=3, datagram_loss=1.0)
    delivered = []
    for __ in range(50):
        net.send_datagram(a, a, 10, lambda: delivered.append(1))
    sim.run()
    assert len(delivered) == 50


def test_datagrams_can_reorder_under_jitter():
    sim, net, a, b = _net(seed=5, jitter_ms=5.0, bandwidth_bytes_per_ms=0)
    order = []
    for i in range(50):
        net.send_datagram(a, b, 10, lambda i=i: order.append(i))
    sim.run()
    assert sorted(order) == list(range(50))
    assert order != list(range(50))  # at least one overtake


def test_reliable_channel_preserves_fifo_despite_jitter():
    sim, net, a, b = _net(seed=5, jitter_ms=5.0, bandwidth_bytes_per_ms=0)
    order = []
    for i in range(50):
        net.send_reliable("chan", a, b, 10, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(50))


def test_reliable_channels_are_independent():
    sim, net, a, b = _net(seed=9, jitter_ms=0.0)
    order = []
    net.send_reliable("one", a, b, 10_000_000, lambda: order.append("big"))
    net.send_reliable("two", a, b, 10, lambda: order.append("small"))
    sim.run()
    assert order == ["small", "big"]


def test_reliable_never_drops():
    sim, net, a, b = _net(seed=1, datagram_loss=1.0)
    count = []
    for __ in range(20):
        net.send_reliable("c", a, b, 10, lambda: count.append(1))
    sim.run()
    assert len(count) == 20


def test_close_channel_forgets_fifo_state():
    sim, net, a, b = _net()
    net.send_reliable("c", a, b, 10, lambda: None)
    assert "c" in net._channels
    net.close_channel("c")
    assert "c" not in net._channels


def test_statistics_counters():
    sim, net, a, b = _net(seed=2, datagram_loss=0.0)
    net.send_datagram(a, b, 100, lambda: None)
    net.send_reliable("c", a, b, 50, lambda: None)
    assert net.datagrams_sent == 1
    assert net.reliable_packets_sent == 1
    assert net.bytes_sent == 150


# ----------------------------------------------------------------------
# One _Channel per reliable channel key
# ----------------------------------------------------------------------


def test_packets_in_flight_at_close_still_arrive_in_order():
    sim, net, a, b = _net(seed=5, jitter_ms=5.0, bandwidth_bytes_per_ms=0)
    order = []
    for i in range(20):
        net.send_reliable("c", a, b, 10, order.append, i)
    net.close_channel("c")
    assert "c" not in net._channels
    sim.run()
    assert order == list(range(20))
    assert net.reliable_packets_dropped == 0


def test_break_cancels_exactly_the_packets_in_flight():
    sim, net, a, b = _net(base_latency_ms=1.5, jitter_ms=0.0, bandwidth_bytes_per_ms=0)
    landed = []
    for i in range(6):  # sent at 0 .. 5 ms, landing at 1.5 .. 6.5 ms
        sim.schedule_at(float(i), net.send_reliable, "c", a, b, 10, landed.append, i)
    sim.schedule_at(0.0, net.send_reliable, "other", a, b, 10, landed.append, "x")
    sim.run(until_ms=5.2)
    assert landed == [0, "x", 1, 2, 3]
    assert net.break_channel("c") == 2
    assert net.reliable_packets_dropped == 2
    assert net.break_channel("c") == 0  # the channel is gone
    assert net.reliable_packets_dropped == 2
    sim.run()
    assert landed == [0, "x", 1, 2, 3]
    assert sim.pending_events() == 0


def test_a_send_after_a_break_starts_from_a_fresh_clearance():
    sim, net, a, b = _net(base_latency_ms=1.0, jitter_ms=0.0, bandwidth_bytes_per_ms=1.0)
    arrivals = []
    # A huge packet pushes the channel's clearance ~1e6 ms ahead.
    net.send_reliable("c", a, b, 1_000_000, arrivals.append, "big")
    net.break_channel("c")
    net.send_reliable("c", a, b, 10, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [1.0 + 10.0]


def test_the_channel_remembers_the_endpoints_of_its_last_send():
    sim, net, a, b = _net()
    c = HostTable().add("c")
    net.send_reliable("x", a, b, 10, lambda: None)
    net.send_reliable("x", a, c, 10, lambda: None)  # same key, new path
    net.set_partition([["a", "b"], ["c"]])
    assert net.severed_channels() == ["x"]
    net.heal_partition()
    assert net.break_channels_involving(b) == []
    assert net.break_channels_involving(c) == ["x"]
    assert net._channels == {}
