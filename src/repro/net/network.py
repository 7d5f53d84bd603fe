"""The internetwork: packet delivery between machines.

Two delivery services (paper Section 3.1):

- :meth:`Network.send_datagram` -- may drop packets, may reorder (each
  datagram gets independent jitter, so a later send can overtake an
  earlier one);
- :meth:`Network.send_reliable` -- per-channel FIFO delivery; never
  drops, never reorders *while the channel is intact*.  The kernel's
  stream sockets and the meter connections ride on this, which is why
  "message delivery is guaranteed and messages arrive in the same order
  as they were sent".

Local (same-machine) traffic bypasses loss entirely: "Such links are
reliable when used within a single machine" (Section 3.5.2).

Failure model (see DESIGN.md, "Failure model and fault injection"):
the internetwork can *partition* into groups that cannot exchange
packets, individual hosts can go *down* (machine crash), and links can
be *degraded* (extra datagram loss, extra latency).  Datagrams crossing
a severed path vanish silently, as UDP does.  Reliable channels are
FIFO and lossless only between mutually reachable, live hosts: severing
a channel (:meth:`break_channel`) cancels its in-flight packets -- the
bytes are gone, exactly like a TCP connection reset -- and the kernel
layer surfaces ``ECONNRESET``/``EPIPE`` to the endpoints.
"""

import itertools


class NetworkParams:
    """Tunable characteristics of the internetwork.

    Times in milliseconds.  Defaults roughly evoke a 1984 3Mb/10Mb
    Ethernet: ~1ms base latency, mild jitter, small datagram loss.
    """

    def __init__(
        self,
        base_latency_ms=1.0,
        jitter_ms=0.5,
        local_latency_ms=0.05,
        datagram_loss=0.0,
        bandwidth_bytes_per_ms=1250.0,
    ):
        self.base_latency_ms = float(base_latency_ms)
        self.jitter_ms = float(jitter_ms)
        self.local_latency_ms = float(local_latency_ms)
        self.datagram_loss = float(datagram_loss)
        self.bandwidth_bytes_per_ms = float(bandwidth_bytes_per_ms)


class Network:
    """Delivers packets between machines via the shared simulator."""

    def __init__(self, simulator, params=None):
        self.sim = simulator
        self.params = params or NetworkParams()
        # Cluster-scoped id wells for socket endpoints and socketpair
        # names.  Per-network (not module-global) state keeps runs
        # byte-identical even when several clusters share a process
        # (the determinism requirement of DESIGN.md Section 5).
        self._endpoint_ids = itertools.count(1)
        self._pair_ids = itertools.count(1)
        #: channel key -> earliest time the next packet may arrive,
        #: used to keep reliable channels FIFO.
        self._channel_clearance = {}
        #: channel key -> (src Host, dst Host) of the last send, so a
        #: partition or crash can identify the channels it severs.
        self._channel_hosts = {}
        #: channel key -> {packet id: in-flight delivery event},
        #: cancellable by break_channel (a severed channel drops its
        #: packets).
        self._channel_pending = {}
        self._packet_ids = itertools.count()
        #: host name -> partition group index; None = no partition.
        #: Hosts absent from every group share one implicit group.
        self._partition = None
        #: Names of hosts that are down (crashed machines).
        self._down = set()
        #: Link degradation (fault injection): extra datagram loss
        #: probability and extra one-way latency on remote paths.
        self.extra_loss = 0.0
        self.extra_latency_ms = 0.0
        self.datagrams_sent = 0
        self.datagrams_dropped = 0
        self.reliable_packets_sent = 0
        self.reliable_packets_dropped = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Id allocation
    # ------------------------------------------------------------------

    def next_endpoint_id(self):
        """Cluster-unique id for one end of a stream connection."""
        return next(self._endpoint_ids)

    def next_pair_id(self):
        """Cluster-unique id for socketpair names (Section 4.1:
        "internally generated unique name")."""
        return next(self._pair_ids)

    # ------------------------------------------------------------------
    # Topology faults
    # ------------------------------------------------------------------

    def set_partition(self, groups):
        """Partition the internetwork: hosts may exchange packets only
        within their group.  ``groups`` is an iterable of iterables of
        host names; hosts named in no group share one implicit group.
        """
        mapping = {}
        for index, group in enumerate(groups):
            for name in group:
                mapping[str(name)] = index
        self._partition = mapping

    def heal_partition(self):
        """Rejoin all partition groups (broken channels stay broken)."""
        self._partition = None

    @property
    def partition_active(self):
        """True while a partition is in force (heal clears it)."""
        return self._partition is not None

    def set_host_down(self, name):
        """Mark a host unreachable (its machine crashed)."""
        self._down.add(str(name))

    def set_host_up(self, name):
        """Mark a host reachable again (its machine rebooted)."""
        self._down.discard(str(name))

    def reachable(self, src_host, dst_host):
        """Whether a packet from ``src_host`` can reach ``dst_host``."""
        if src_host.name in self._down or dst_host.name in self._down:
            return False
        if src_host is dst_host:
            return True
        if self._partition is not None:
            if self._partition.get(src_host.name, -1) != self._partition.get(
                dst_host.name, -1
            ):
                return False
        return True

    # ------------------------------------------------------------------

    def _transit_time(self, src_host, dst_host, size_bytes, jittered):
        params = self.params
        if src_host is dst_host:
            latency = params.local_latency_ms
        else:
            latency = params.base_latency_ms + self.extra_latency_ms
            if jittered and params.jitter_ms > 0:
                latency += self.sim.rng.uniform(0.0, params.jitter_ms)
        if params.bandwidth_bytes_per_ms > 0:
            latency += size_bytes / params.bandwidth_bytes_per_ms
        return latency

    # ------------------------------------------------------------------

    def send_datagram(self, src_host, dst_host, size_bytes, deliver, *args):
        """Best-effort delivery; ``deliver(*args)`` runs on arrival (if
        any).

        Returns True if the datagram was sent (False means it was
        dropped in transit; the sender is never told, as in UDP).
        """
        self.datagrams_sent += 1
        self.bytes_sent += size_bytes
        if not self.reachable(src_host, dst_host):
            self.datagrams_dropped += 1
            return False
        remote = src_host is not dst_host
        loss = self.params.datagram_loss + (self.extra_loss if remote else 0.0)
        if remote and loss > 0:
            if self.sim.rng.random() < loss:
                self.datagrams_dropped += 1
                return False
        delay = self._transit_time(src_host, dst_host, size_bytes, jittered=True)
        self.sim.schedule(delay, deliver, *args)
        return True

    def send_reliable(self, channel, src_host, dst_host, size_bytes, deliver, *args):
        """Reliable FIFO delivery on ``channel`` (any hashable key):
        ``deliver(*args)`` runs on arrival.

        Packets on the same channel arrive in send order even when
        jitter would have reordered them; nothing is dropped while the
        path is intact.  Across a partition or to a down host the packet
        is dropped (returns False); the channel is dead and the kernel
        layer is responsible for surfacing the break to the endpoints.
        """
        self.reliable_packets_sent += 1
        self.bytes_sent += size_bytes
        if not self.reachable(src_host, dst_host):
            self.reliable_packets_dropped += 1
            return False
        delay = self._transit_time(src_host, dst_host, size_bytes, jittered=True)
        arrival = self.sim.now + delay
        clearance = self._channel_clearance.get(channel, 0.0)
        arrival = max(arrival, clearance)
        # Strictly increasing arrivals preserve FIFO under equal times too.
        self._channel_clearance[channel] = arrival + 1e-9
        self._channel_hosts[channel] = (src_host, dst_host)

        packet_id = next(self._packet_ids)
        event = self.sim.schedule_at(
            arrival, self._arrive, channel, packet_id, deliver, args
        )
        self._channel_pending.setdefault(channel, {})[packet_id] = event
        return True

    def _arrive(self, channel, packet_id, deliver, args):
        """A reliable packet lands: it is no longer in flight."""
        pending = self._channel_pending.get(channel)
        if pending is not None:
            pending.pop(packet_id, None)
        deliver(*args)

    def close_channel(self, channel):
        """Forget FIFO state for a finished connection.

        Graceful: packets already in flight still arrive.  Called from
        kernel socket teardown so long runs do not accumulate clearance
        state for dead connections.
        """
        self._channel_clearance.pop(channel, None)
        self._channel_hosts.pop(channel, None)
        self._channel_pending.pop(channel, None)

    def break_channel(self, channel):
        """Sever a reliable channel: its in-flight packets are dropped.

        Violent: models the loss of a transport connection when the
        path dies.  Returns the number of in-flight packets destroyed.
        """
        pending = self._channel_pending.pop(channel, {})
        for event in pending.values():
            self.sim.cancel(event)
        self.reliable_packets_dropped += len(pending)
        self._channel_clearance.pop(channel, None)
        self._channel_hosts.pop(channel, None)
        return len(pending)

    def severed_channels(self):
        """Channels whose recorded endpoints can no longer reach each
        other (after a partition or crash); candidates for breaking."""
        return [
            channel
            for channel, (src_host, dst_host) in self._channel_hosts.items()
            if not self.reachable(src_host, dst_host)
        ]

    def break_channels_involving(self, host):
        """Sever every tracked channel that touches ``host``."""
        victims = [
            channel
            for channel, (src_host, dst_host) in self._channel_hosts.items()
            if src_host is host or dst_host is host
        ]
        for channel in victims:
            self.break_channel(channel)
        return victims
