"""Syscall handlers: the 4.2BSD IPC layer (paper Section 3.1).

Mixin for :class:`repro.kernel.machine.Machine`.  Every handler that
corresponds to a meter event calls into ``self.meter`` after the
operation succeeds (or, for the *receivecall* event, when the receive
call is first made), exactly where the paper's kernel hooks sit:

    "On every call to a routine that might initiate a meter event, the
    kernel checks whether the call is currently metered for the process
    that is making the call." (Section 3.2)
"""

from repro.kernel import defs, errno, packets
from repro.kernel.errno import SyscallError
from repro.kernel.socket import (
    ST_CONNECTED,
    ST_CONNECTING,
    ST_LISTENING,
    ST_REFUSED,
    ST_UNCONNECTED,
    Socket,
)
from repro.net.addresses import InternetName, PairName, SocketName, UnixName


class SocketCalls:
    """socket/bind/listen/connect/accept/send*/recv*/socketpair/..."""

    # ------------------------------------------------------------------
    # Creation and naming
    # ------------------------------------------------------------------

    def sys_socket(self, proc, request):
        domain, type_, protocol = request.args
        sock = self._make_socket(proc, domain, type_, protocol)
        entry = self.file_table.allocate(sock)
        fd = proc.alloc_fd(entry)
        self.meter.on_socket(proc, entry, sock)
        return fd

    def _make_socket(self, proc, domain, type_, protocol):
        if domain not in (defs.AF_INET, defs.AF_UNIX):
            raise SyscallError(errno.EPROTONOSUPPORT, "domain %r" % domain)
        if type_ not in (defs.SOCK_STREAM, defs.SOCK_DGRAM):
            raise SyscallError(errno.ESOCKTNOSUPPORT, "type %r" % type_)
        return Socket(self, domain, type_, protocol)

    def sys_bind(self, proc, request):
        fd, name_arg = request.args
        entry = proc.lookup_socket(fd)
        sock = entry.obj
        if sock.name is not None:
            raise SyscallError(errno.EINVAL, "already bound")
        name = self._name_for_bind(sock, name_arg)
        self._register_binding(sock, name)
        return 0

    def _name_for_bind(self, sock, name_arg):
        """Turn a guest-supplied name into a SocketName for this host."""
        if isinstance(name_arg, SocketName):
            name_arg = (
                (name_arg.host, name_arg.port)
                if isinstance(name_arg, InternetName)
                else name_arg.path
            )
        if sock.domain == defs.AF_INET:
            if not (isinstance(name_arg, tuple) and len(name_arg) == 2):
                raise SyscallError(errno.EINVAL, "inet name must be (host, port)")
            host, port = name_arg
            if host not in ("", self.host.name):
                raise SyscallError(errno.EADDRNOTAVAIL, str(host))
            if port == 0:
                port = self._alloc_ephemeral_port(sock.type)
            return InternetName(self.host.name, int(port), self.host.host_id)
        if not isinstance(name_arg, str):
            raise SyscallError(errno.EINVAL, "unix name must be a path")
        return UnixName(name_arg)

    def _register_binding(self, sock, name):
        if isinstance(name, InternetName):
            key = (sock.type, name.port)
            if key in self.inet_ports:
                raise SyscallError(errno.EADDRINUSE, "port %d" % name.port)
            self.inet_ports[key] = sock
        elif isinstance(name, UnixName):
            if name.path in self.unix_names:
                raise SyscallError(errno.EADDRINUSE, name.path)
            self.unix_names[name.path] = sock
        sock.name = name

    def _alloc_ephemeral_port(self, sock_type):
        for __ in range(defs.EPHEMERAL_PORT_LAST - defs.EPHEMERAL_PORT_FIRST):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > defs.EPHEMERAL_PORT_LAST:
                self._next_ephemeral = defs.EPHEMERAL_PORT_FIRST
            if (sock_type, port) not in self.inet_ports:
                return port
        raise SyscallError(errno.EADDRNOTAVAIL, "no free ports")

    def _autobind(self, sock):
        """Assign an ephemeral name to an unbound socket on first use."""
        if sock.name is not None:
            return
        if sock.domain == defs.AF_INET:
            port = self._alloc_ephemeral_port(sock.type)
            self._register_binding(
                sock, InternetName(self.host.name, port, self.host.host_id)
            )
        else:
            self._register_binding(
                sock, UnixName("/autobind/{0}".format(self.network.next_pair_id()))
            )

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------

    def sys_listen(self, proc, request):
        fd, backlog = request.args
        sock = proc.lookup_socket(fd).obj
        if not sock.is_stream:
            raise SyscallError(errno.EOPNOTSUPP, "listen on datagram socket")
        if sock.name is None:
            raise SyscallError(errno.EINVAL, "listen before bind")
        sock.state = ST_LISTENING
        sock.backlog = max(1, min(int(backlog), defs.SOMAXCONN))
        return 0

    def sys_connect(self, proc, request):
        fd, name_arg, timeout_ms = request.args
        entry = proc.lookup_socket(fd)
        sock = entry.obj
        if sock.is_dgram:
            # Predefine the recipient (Section 3.1).
            dest = self._resolve_dest_name(sock, name_arg)
            sock.default_dest = dest
            self.meter.on_connect(proc, entry, sock, dest)
            return 0
        return self._stream_connect(proc, request, entry, name_arg, timeout_ms)

    def _stream_connect(self, proc, request, entry, name_arg, timeout_ms):
        sock = entry.obj
        state = proc.syscall_state
        if sock.state == ST_CONNECTED:
            if state.get("initiated"):
                self.meter.on_connect(proc, entry, sock, sock.peer_name)
                return 0
            raise SyscallError(errno.EISCONN)
        if sock.state == ST_REFUSED:
            sock.consume_error()
            sock.state = ST_UNCONNECTED
            raise SyscallError(errno.ECONNREFUSED)
        if sock.state == ST_LISTENING:
            raise SyscallError(errno.EINVAL, "connect on listening socket")
        if sock.error is not None:
            err = sock.consume_error()
            sock.state = ST_UNCONNECTED
            raise SyscallError(err, "connection reset during connect")
        if not state.get("initiated"):
            dest = self._resolve_dest_name(sock, name_arg)
            dst_host = self._host_for_name(dest)
            self._autobind(sock)
            sock.endpoint_id = self.network.next_endpoint_id()
            self.endpoints[sock.endpoint_id] = sock
            sock.state = ST_CONNECTING
            state["initiated"] = True
            if timeout_ms is not None:
                self._schedule_timeout_wake(proc, float(timeout_ms))
            self.send_packet(
                dst_host,
                packets.Packet(
                    packets.CONN_REQ,
                    self.host,
                    dst_name=dest,
                    client_eid=sock.endpoint_id,
                    client_name=sock.name,
                ),
                reliable_channel=("hs", sock.endpoint_id),
                size=64,
            )
        elif (
            proc.wake_deadline is not None
            and self.sim.now + 1e-9 >= proc.wake_deadline
        ):
            # Handshake timed out (the SYN or its reply is marooned on a
            # severed path, or the peer machine is down): abandon the
            # embryo endpoint so a late reply cannot resurrect it.
            self.endpoints.pop(sock.endpoint_id, None)
            self.network.break_channel(("hs", sock.endpoint_id))
            sock.endpoint_id = None
            sock.state = ST_UNCONNECTED
            raise SyscallError(errno.ETIMEDOUT, "connect timed out")
        return self.block(proc, request, [sock.conn_wait])

    def sys_accept(self, proc, request):
        (fd,) = request.args
        entry = proc.lookup_socket(fd)
        sock = entry.obj
        if sock.state != ST_LISTENING:
            raise SyscallError(errno.EINVAL, "accept before listen")
        if not sock.pending:
            return self.block(proc, request, [sock.conn_wait, sock.rd_wait])
        if len(proc.fds) >= defs.NOFILE:
            # 4.2BSD's falloc() precedes the dequeue: a caller out of
            # descriptors leaves the connection pending, to be accepted
            # once it has closed something.
            raise SyscallError(errno.EMFILE)
        conn = sock.pending.popleft()
        conn_entry = self.file_table.allocate(conn)
        newfd = proc.alloc_fd(conn_entry)
        self.meter.on_accept(proc, entry, conn_entry, sock, conn)
        return (newfd, conn.peer_name)

    def sys_socketpair(self, proc, request):
        domain, type_, protocol = request.args
        if domain == defs.AF_INET:
            raise SyscallError(errno.EOPNOTSUPP, "socketpair is UNIX-domain")
        sock_a = self._make_socket(proc, domain, type_, protocol)
        sock_b = self._make_socket(proc, domain, type_, protocol)
        sock_a.name = PairName(self.network.next_pair_id())
        sock_b.name = PairName(self.network.next_pair_id())
        sock_a.peer_name, sock_b.peer_name = sock_b.name, sock_a.name
        if type_ == defs.SOCK_STREAM:
            for sock in (sock_a, sock_b):
                sock.endpoint_id = self.network.next_endpoint_id()
                self.endpoints[sock.endpoint_id] = sock
                sock.state = ST_CONNECTED
            sock_a.peer = (self.host, sock_b.endpoint_id)
            sock_b.peer = (self.host, sock_a.endpoint_id)
        else:
            sock_a.pair_peer = sock_b
            sock_b.pair_peer = sock_a
            sock_a.state = sock_b.state = ST_CONNECTED
        entry_a = self.file_table.allocate(sock_a)
        entry_b = self.file_table.allocate(sock_b)
        fd_a = proc.alloc_fd(entry_a)
        fd_b = proc.alloc_fd(entry_b)
        # "socketpair() is not treated differently from a pair of socket
        # creates followed by separate connects and accepts; all four
        # messages are produced." (Section 3.2)
        self.meter.on_socket(proc, entry_a, sock_a)
        self.meter.on_socket(proc, entry_b, sock_b)
        self.meter.on_connect(proc, entry_a, sock_a, sock_b.name)
        self.meter.on_accept(proc, entry_b, entry_b, sock_b, sock_b)
        return (fd_a, fd_b)

    def sys_shutdown(self, proc, request):
        """shutdown(fd, "w"): half-close the sending side so the peer
        reads EOF while this socket can still receive."""
        fd, how = request.args
        sock = proc.lookup_socket(fd).obj
        if how != "w":
            raise SyscallError(errno.EINVAL, "only write shutdown supported")
        if sock.state != ST_CONNECTED:
            raise SyscallError(errno.ENOTCONN)
        if not sock.write_closed:
            sock.write_closed = True
            if sock.pair_peer is not None:
                sock.pair_peer.set_peer_closed(full=False)
            elif sock.peer is not None:
                peer_host, peer_eid = sock.peer
                packet = packets.Packet(
                    packets.STREAM_CLOSE, self.host, dst_eid=peer_eid, how="wr"
                )
                self.send_packet(
                    peer_host,
                    packet,
                    reliable_channel=("conn", sock.endpoint_id, peer_eid),
                    size=32,
                )
        return 0

    def sys_getsockname(self, proc, request):
        (fd,) = request.args
        return proc.lookup_socket(fd).obj.name

    def sys_getpeername(self, proc, request):
        (fd,) = request.args
        sock = proc.lookup_socket(fd).obj
        if sock.peer_name is None:
            raise SyscallError(errno.ENOTCONN)
        return sock.peer_name

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def _resolve_dest_name(self, sock, name_arg):
        """Resolve a guest-supplied destination into a SocketName.

        Following Section 3.5.4, Internet destinations are given as
        (literal host name, port); the kernel constructs the address
        using its own view of that host.
        """
        if isinstance(name_arg, SocketName):
            if isinstance(name_arg, InternetName):
                name_arg = (name_arg.host, name_arg.port)
            elif isinstance(name_arg, UnixName):
                name_arg = name_arg.path
            else:
                raise SyscallError(errno.EINVAL, "cannot address a pair name")
        if sock.domain == defs.AF_INET:
            if not (isinstance(name_arg, tuple) and len(name_arg) == 2):
                raise SyscallError(errno.EINVAL, "inet name must be (host, port)")
            host, port = name_arg
            if host == "":
                host = self.host.name
            if host not in self.host_table:
                raise SyscallError(errno.ENETUNREACH, str(host))
            target = self.host_table.lookup(host)
            return InternetName(target.name, int(port), target.host_id)
        if not isinstance(name_arg, str):
            raise SyscallError(errno.EINVAL, "unix name must be a path")
        return UnixName(name_arg)

    def _host_for_name(self, name):
        if isinstance(name, InternetName):
            return self.host_table.lookup(name.host)
        # UNIX-domain communication never crosses machines.
        return self.host

    # ------------------------------------------------------------------
    # Data transfer
    # ------------------------------------------------------------------

    def sys_send(self, proc, request):
        fd, data = request.args
        entry = proc.lookup_socket(fd)
        return self._socket_write(proc, request, entry, dest_name=None)

    def sys_sendto(self, proc, request):
        fd, data, name_arg = request.args
        entry = proc.lookup_socket(fd)
        return self._socket_write(proc, request, entry, dest_name=name_arg)

    def _socket_write(self, proc, request, entry, dest_name):
        sock = entry.obj
        if sock.is_dgram:
            return self._dgram_send(proc, request, entry, dest_name)
        return self._stream_send(proc, request, entry)

    def _dgram_send(self, proc, request, entry, dest_name):
        sock = entry.obj
        data = request.args[1]
        if len(data) > defs.MAX_DGRAM_BYTES:
            raise SyscallError(errno.EMSGSIZE, "%d bytes" % len(data))
        if dest_name is not None:
            dest = self._resolve_dest_name(sock, dest_name)
        elif sock.pair_peer is not None:
            dest = sock.pair_peer.name
        elif sock.default_dest is not None:
            dest = sock.default_dest
        else:
            raise SyscallError(errno.EINVAL, "datagram send with no recipient")
        self._autobind(sock)
        sock.messages_sent += 1
        sock.bytes_sent += len(data)
        if sock.pair_peer is not None:
            # Local socketpair: reliable delivery within one machine.
            peer = sock.pair_peer
            self.sim.schedule(
                self.network.params.local_latency_ms,
                lambda: peer.enqueue_datagram(data, sock.name),
            )
        else:
            dst_host = self._host_for_name(dest)
            packet = packets.Packet(
                packets.DGRAM,
                self.host,
                dst_name=dest,
                data=data,
                src_name=sock.name,
            )
            self.send_packet(dst_host, packet, size=packets.packet_size(len(data)))
        self.meter.on_send(proc, entry, sock, len(data), dest)
        return len(data)

    def _stream_send(self, proc, request, entry):
        sock = entry.obj
        data = request.args[1]
        state = proc.syscall_state
        if sock.state != ST_CONNECTED:
            raise SyscallError(errno.ENOTCONN)
        if sock.write_closed:
            raise SyscallError(errno.EPIPE, "shutdown")
        if "remaining" not in state:
            state["remaining"] = data
        while state["remaining"]:
            if sock.peer_gone:
                raise SyscallError(errno.EPIPE)
            if sock.send_credit <= 0:
                return self.block(proc, request, [sock.wr_wait])
            chunk = state["remaining"][: sock.send_credit]
            state["remaining"] = state["remaining"][len(chunk) :]
            sock.send_credit -= len(chunk)
            self._ship_stream_data(sock, chunk)
        sock.messages_sent += 1
        sock.bytes_sent += len(data)
        # "when one writes across a connection, the name of the recipient
        # is not available to the metering software ... the length of the
        # name is specified as zero" (Section 4.1).
        self.meter.on_send(proc, entry, sock, len(data), None)
        return len(data)

    def _ship_stream_data(self, sock, chunk):
        peer_host, peer_eid = sock.peer
        packet = packets.Packet(
            packets.STREAM_DATA, self.host, dst_eid=peer_eid, data=chunk
        )
        self.send_packet(
            peer_host,
            packet,
            reliable_channel=("conn", sock.endpoint_id, peer_eid),
            size=packets.packet_size(len(chunk)),
        )

    def kernel_stream_send(self, sock, data):
        """Kernel-originated stream write (meter messages): reliable and
        FIFO like any stream data, but exempt from flow control -- the
        paper buffers meter messages in the kernel until delivery."""
        if sock.state != ST_CONNECTED or sock.peer is None:
            return False
        if sock.peer_gone or sock.error is not None:
            return False  # connection reset: the path to the filter died
        self._ship_stream_data(sock, data)
        sock.messages_sent += 1
        sock.bytes_sent += len(data)
        return True

    def _socket_read(self, proc, request, entry, with_name):
        sock = entry.obj
        nbytes = request.args[1]
        state = proc.syscall_state
        if not state.get("recvcall_metered"):
            state["recvcall_metered"] = True
            self.meter.on_recvcall(proc, entry, sock)
        err = sock.error
        if err is not None:
            sock.consume_error()
            raise SyscallError(err)
        if sock.is_stream:
            if sock.state == ST_LISTENING:
                raise SyscallError(errno.EINVAL, "read on listening socket")
            if sock.state != ST_CONNECTED:
                raise SyscallError(errno.ENOTCONN)
            if sock.recv_bytes > 0:
                data = sock.take_stream_bytes(nbytes)
                self._return_window(sock, len(data))
                self.meter.on_recv(proc, entry, sock, len(data), sock.peer_name)
                return (data, sock.peer_name) if with_name else data
            if sock.peer_closed:
                return (b"", sock.peer_name) if with_name else b""
            return self.block(proc, request, [sock.rd_wait])
        # Datagram socket.
        if sock.recv_queue:
            data, src_name = sock.take_datagram(nbytes)
            self.meter.on_recv(proc, entry, sock, len(data), src_name)
            return (data, src_name) if with_name else data
        return self.block(proc, request, [sock.rd_wait])

    def _return_window(self, sock, nbytes):
        """Return flow-control credit to the stream peer -- a delayed
        window update: credit is owed until it amounts to a worthwhile
        share of the buffer, then goes back in one packet."""
        if sock.peer is None or nbytes <= 0:
            return
        sock.window_owed += nbytes
        if sock.window_owed < defs.WINDOW_UPDATE_BYTES:
            return
        peer_host, peer_eid = sock.peer
        packet = packets.Packet(
            packets.STREAM_WINDOW, self.host, dst_eid=peer_eid, n=sock.window_owed
        )
        sock.window_owed = 0
        self.send_packet(
            peer_host,
            packet,
            reliable_channel=("win", sock.endpoint_id, peer_eid),
            size=packets.packet_size(8),
        )
