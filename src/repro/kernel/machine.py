"""One machine: CPU, memory (the process table), and its kernel.

Composes the syscall handler mixins with:

- a round-robin, run-to-block scheduler (10 ms quantum, one CPU per
  machine) that drives guest generators and charges CPU time at the
  granularity the paper reports (``procTime``, 10 ms ticks);
- signal delivery (stop/continue/kill) -- the mechanism the daemons use
  for process control (Section 3.5.1);
- the packet layer connecting the socket code to the internetwork.
"""

import traceback
from collections import deque

from repro.kernel import defs, packets
from repro.kernel.errno import SyscallError
from repro.kernel.file_table import FileTable
from repro.kernel.filesystem import FileSystem
from repro.kernel.process import Proc
from repro.kernel.socket import ST_CONNECTED, ST_LISTENING
from repro.kernel.syscalls import SYS
from repro.kernel.sysfile import FileCalls
from repro.kernel.sysproc import ProcessCalls
from repro.kernel.syssock import SocketCalls
from repro.net.addresses import InternetName, UnixName


class _Marker:
    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return "<%s>" % self.label


def _deliver_to_host(host, packet):
    """A packet's arrival event: the host's machine is looked up when
    the packet lands, not when it was sent."""
    host.machine.deliver_packet(packet)


class Machine(SocketCalls, FileCalls, ProcessCalls):
    """A simulated 4.2BSD host."""

    BLOCKED = _Marker("blocked")
    EXITED = _Marker("exited")
    EXECED = _Marker("execed")

    def __init__(self, sim, network, host, host_table, clock, registry):
        self.sim = sim
        self.network = network
        self.host = host
        self.host_table = host_table
        self.clock = clock
        self.registry = registry
        host.machine = self

        self.fs = FileSystem()
        self.file_table = FileTable()

        #: True while this machine is down (fault injection).  A
        #: crashed machine delivers no packets and runs no processes.
        self.crashed = False
        self.crash_count = 0

        # Process table.  Pids only have meaning locally (Section 3.5.1);
        # each machine seeds differently so example transcripts read
        # like the paper's (distinct 21xx identifiers).
        self.procs = {}
        self._next_pid = 2100 + 17 * host.host_id
        self.exit_log = []

        # Scheduler state.
        self.run_queue = deque()
        self.cpu_busy = False
        self._dispatch_scheduled = False
        self._dispatching = False
        #: The in-flight trap or compute slice of the process holding
        #: the CPU: the one event a crash must take with it, or it
        #: would release a CPU some later process holds.
        self._cpu_event = None

        # Socket namespaces.
        self.inet_ports = {}  # (sock type, port) -> Socket
        self.unix_names = {}  # path -> Socket
        self.endpoints = {}  # endpoint id -> Socket
        self._next_ephemeral = defs.EPHEMERAL_PORT_FIRST

        # Console (sys.log output, crash reports).
        self.console = []

        # User accounts on this machine (Section 3.5.5: "To create a
        # process on a machine, a user must have an account on that
        # machine").  Root always has one.
        self.accounts = set()

        # Syscall dispatch table.
        self._handlers = {
            name[len("sys_") :]: getattr(self, name)
            for name in dir(self)
            if name.startswith("sys_")
        }
        # Packet dispatch table.
        self._packet_handlers = {
            packets.CONN_REQ: self._on_conn_req,
            packets.CONN_ACK: self._on_conn_ack,
            packets.CONN_REFUSED: self._on_conn_refused,
            packets.STREAM_DATA: self._on_stream_data,
            packets.STREAM_WINDOW: self._on_stream_window,
            packets.STREAM_CLOSE: self._on_stream_close,
            packets.DGRAM: self._on_dgram,
        }

        # The metering subsystem (the paper's kernel additions).
        from repro.metering.subsystem import MeterSubsystem

        self.meter = MeterSubsystem(self)

    # ------------------------------------------------------------------
    # Process creation and lifecycle
    # ------------------------------------------------------------------

    def create_process(
        self,
        main=None,
        argv=(),
        uid=0,
        ppid=0,
        program_name=None,
        start=True,
    ):
        """Create a process.

        ``start=False`` leaves it "suspended prior to the start of its
        execution" (Section 3.5.1) -- the daemon's addprocess behaviour.
        """
        pid = self._next_pid
        self._next_pid += 1
        name = program_name or getattr(main, "__name__", "a.out")
        proc = Proc(self, pid, uid, name, ppid=ppid)
        proc.main = main
        proc.argv = list(argv)
        proc.run_token = 0
        proc.compute_remaining = 0.0
        self.procs[pid] = proc
        if ppid in self.procs:
            self.procs[ppid].children.add(pid)
        if start:
            self.continue_proc(proc)
        return proc

    def attach_terminal(self, proc, tty):
        """Wire a terminal to descriptors 0, 1 and 2."""
        entry = self.file_table.allocate(tty)
        for fd in (0, 1, 2):
            proc.install_fd(fd, entry)
        return entry

    def attach_console_stdio(self, proc):
        """Give a directly-spawned process a console as stdio: writes
        land on the machine console, reads return EOF immediately."""
        from repro.kernel.tty import Terminal

        if getattr(self, "_console_tty", None) is None:
            tty = Terminal("console:%s" % self.host.name)
            tty.eof = True

            def on_output(data):
                text = data.decode("ascii", "replace").rstrip("\n")
                for line in text.splitlines():
                    self.console.append(
                        "[{0:10.3f}] stdout: {1}".format(self.sim.now, line)
                    )

            tty.on_output = on_output
            self._console_tty = tty
        return self.attach_terminal(proc, self._console_tty)

    def proc_exit(self, proc, status, reason):
        """Terminate a process: flush metering, release resources,
        notify the parent (the daemon's SIGCHLD path, Section 3.5.1)."""
        if proc.state == defs.PROC_ZOMBIE:
            return
        proc.run_token += 1
        proc.clear_wait_state()
        self._cancel_timeout_wake(proc)
        proc.state = defs.PROC_ZOMBIE
        proc.stopped = False
        proc.exit_status = status
        proc.exit_reason = reason
        # "As part of process termination, any unsent messages are
        # forwarded to the filter." (Section 3.2)
        self.meter.on_termproc(proc)
        if proc.gen is not None:
            try:
                proc.gen.close()
            except Exception:
                pass
            proc.gen = None
        proc.close_all_fds()
        parent = self.procs.get(proc.ppid)
        if parent is not None and parent.state != defs.PROC_ZOMBIE:
            parent.child_events.append(
                {"pid": proc.pid, "status": status, "reason": reason}
            )
            parent.children.discard(proc.pid)
            parent.child_wait.wake_all()
        self.exit_log.append((proc.pid, proc.program_name, status, reason))

    # ------------------------------------------------------------------
    # Machine failure (fault injection)
    # ------------------------------------------------------------------

    def crash(self):
        """Power off instantly: every process dies with no flush, open
        sockets vanish, remote peers are woken with a connection reset,
        and in-flight traffic to or from this host is destroyed.

        The disk (``self.fs``) survives, as a real disk would.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        self.network.set_host_down(self.host.name)
        # Remote ends of our stream connections learn the hard way:
        # reads fail ECONNRESET, writes fail EPIPE (no graceful close).
        for sock in list(self.endpoints.values()):
            if sock.peer is None:
                continue
            peer_host, peer_eid = sock.peer
            if peer_host is self.host:
                continue
            peer_machine = peer_host.machine
            if peer_machine is None or peer_machine.crashed:
                continue
            peer_sock = peer_machine.endpoints.get(peer_eid)
            if peer_sock is not None:
                peer_sock.reset()
        self.network.break_channels_involving(self.host)
        for proc in list(self.procs.values()):
            self._crash_proc(proc)
        self.procs.clear()
        self.run_queue.clear()
        if self._cpu_event is not None:
            self.sim.cancel(self._cpu_event)
        self.cpu_busy = False
        self.inet_ports.clear()
        self.unix_names.clear()
        self.endpoints.clear()
        # Pending meter-loss notifications die with the daemon that
        # would have read them.
        self.meter.lost_meters.clear()
        self.console.append("[{0:10.3f}] panic: machine crashed".format(self.sim.now))

    def _crash_proc(self, proc):
        """Terminate a process as the hardware dying would: no metering
        flush, no SIGCHLD, no graceful descriptor teardown."""
        if proc.state == defs.PROC_ZOMBIE:
            return
        proc.run_token += 1
        proc.clear_wait_state()
        self._cancel_timeout_wake(proc)
        proc.state = defs.PROC_ZOMBIE
        proc.stopped = False
        proc.exit_status = None
        proc.exit_reason = defs.EXIT_CRASHED
        if proc.gen is not None:
            try:
                proc.gen.close()
            except Exception:
                pass
            proc.gen = None
        proc.fds.clear()
        proc.meter_entry = None
        proc.meter_buffer = []
        proc.meter_window.clear()
        proc.meter_unsent = 0
        proc.meter_pending_dest = None

    def reboot(self):
        """Bring a crashed machine back with a cold kernel: empty
        process table, fresh file table, no sockets.  The file system
        and user accounts survive; daemons must be restarted."""
        if not self.crashed:
            return
        self.crashed = False
        self.network.set_host_up(self.host.name)
        self.file_table = FileTable()
        self._next_ephemeral = defs.EPHEMERAL_PORT_FIRST
        self._dispatch_scheduled = False
        self.console.append("[{0:10.3f}] reboot".format(self.sim.now))

    def reap_zombies(self):
        """Remove zombie entries from the process table."""
        for pid in [p for p, proc in self.procs.items() if proc.state == defs.PROC_ZOMBIE]:
            del self.procs[pid]

    def active_procs(self):
        return [p for p in self.procs.values() if p.state != defs.PROC_ZOMBIE]

    # ------------------------------------------------------------------
    # Signals (process control)
    # ------------------------------------------------------------------

    def post_signal(self, proc, sig):
        if proc.state == defs.PROC_ZOMBIE:
            return
        if sig in (defs.SIGKILL, defs.SIGTERM, defs.SIGINT, defs.SIGHUP):
            self.proc_exit(proc, status=sig, reason=defs.EXIT_SIGNALED)
        elif sig == defs.SIGSTOP:
            self.stop_proc(proc)
        elif sig == defs.SIGCONT:
            self.continue_proc(proc)
        # SIGCHLD / SIGPIPE: state-change notification handled elsewhere.

    def stop_proc(self, proc):
        if proc.state == defs.PROC_ZOMBIE:
            return
        proc.stopped = True
        if proc.state == defs.PROC_RUNNABLE:
            proc.state = defs.PROC_STOPPED
        # RUNNING finishes its step then parks; SLEEPING parks on wake.

    def continue_proc(self, proc):
        if proc.state == defs.PROC_ZOMBIE:
            return
        proc.stopped = False
        if proc.state in (defs.PROC_STOPPED, defs.PROC_EMBRYO):
            proc.state = defs.PROC_RUNNABLE
            self._enqueue(proc)

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------

    def wake(self, proc):
        """Retry a blocked syscall (BSD wakeup())."""
        if proc.state != defs.PROC_SLEEPING:
            return
        if proc.stopped:
            proc.state = defs.PROC_STOPPED
            return
        proc.state = defs.PROC_RUNNABLE
        self._enqueue(proc)

    def _enqueue(self, proc):
        if not proc.in_runq:
            proc.in_runq = True
            self.run_queue.append(proc)
        # A busy CPU dispatches the queue itself when it is released.
        # An idle one is kicked through the event queue and never run
        # from here: a woken process's retried syscall must not execute
        # inside its waker's stack (proc_exit wakes the parent before
        # its own bookkeeping is done, set_peer_closed wakes three
        # queues in a row).
        if not self.cpu_busy and not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.sim.call_soon(self._dispatch_event)

    def _dispatch_event(self):
        self._dispatch_scheduled = False
        self._dispatch()

    def _dispatch(self):
        """Run-to-block: hand the CPU to runnable processes until one
        holds it across simulated time (a trap or a compute slice) or
        the run queue is empty.  A step that finishes without holding
        the CPU -- a retried syscall that blocks again, an exit --
        releases it from inside this loop, so the release returns here
        instead of recursing."""
        if self._dispatching:
            return
        self._dispatching = True
        try:
            run_queue = self.run_queue
            while run_queue and not self.cpu_busy:
                proc = run_queue.popleft()
                proc.in_runq = False
                if proc.state == defs.PROC_RUNNABLE:
                    self._run(proc)
        finally:
            self._dispatching = False

    def _run(self, proc):
        proc.state = defs.PROC_RUNNING
        self.cpu_busy = True
        token = proc.run_token
        if proc.compute_remaining > 1e-9:
            self._compute_slice(proc, token)
            return
        if proc.retry is not None:
            # Retrying a blocked syscall costs no fresh trap.
            self._execute_syscall(proc, proc.retry)
            return
        self._resume_guest(proc, token)

    def _resume_guest(self, proc, token):
        try:
            if proc.gen is None:
                proc.gen = proc.main(SYS, list(proc.argv))
                request = proc.gen.send(None)
            elif proc.pending_exc is not None:
                exc = proc.pending_exc
                proc.pending_exc = None
                proc.has_pending = False
                request = proc.gen.throw(exc)
            else:
                value = proc.pending_value
                proc.pending_value = None
                proc.has_pending = False
                request = proc.gen.send(value)
        except StopIteration as stop:
            status = stop.value if stop.value is not None else 0
            self.proc_exit(proc, status=status, reason=defs.EXIT_NORMAL)
            self._release_cpu()
            return
        except SyscallError as err:
            self.console_log(proc, "uncaught %s" % err)
            self.proc_exit(proc, status=err.errno, reason=defs.EXIT_ERROR)
            self._release_cpu()
            return
        except Exception:
            self.console_log(proc, "crash:\n" + traceback.format_exc())
            self.proc_exit(proc, status=1, reason=defs.EXIT_ERROR)
            self._release_cpu()
            return

        proc.step_count += 1
        if request.name == "compute":
            proc.compute_remaining = float(request.args[0])
            if proc.compute_remaining <= 1e-9:
                self._complete(proc, value=None)
                self._release_cpu()
                return
            self._compute_slice(proc, token)
            return
        # A syscall trap: charge the trap cost, then execute.
        proc.syscall_count += 1
        proc.charge_cpu(defs.SYSCALL_COST_MS)
        self._cpu_event = self.sim.schedule(
            defs.SYSCALL_COST_MS, self._finish_trap, proc, token, request
        )

    def _finish_trap(self, proc, token, request):
        if proc.run_token != token or proc.state != defs.PROC_RUNNING:
            self._release_cpu()
            return
        self._execute_syscall(proc, request)

    def _execute_syscall(self, proc, request):
        handler = self._handlers.get(request.name)
        try:
            if handler is None:
                raise SyscallError(22, "unknown syscall %r" % request.name)
            result = handler(proc, request)
        except SyscallError as err:
            self._complete(proc, exc=err)
        else:
            if result is self.BLOCKED or result is self.EXITED:
                pass
            elif result is self.EXECED:
                proc.clear_wait_state()
                proc.has_pending = False
                proc.pending_value = proc.pending_exc = None
                if not proc.stopped:
                    proc.state = defs.PROC_RUNNABLE
                    self._enqueue(proc)
                else:
                    proc.state = defs.PROC_STOPPED
            else:
                self._complete(proc, value=result)
        self._release_cpu()

    def block(self, proc, request, queues):
        """Park ``proc`` until one of ``queues`` wakes it (handlers call
        this and return the result)."""
        proc.retry = request
        for queue in queues:
            queue.add(proc)
            if queue not in proc.waiting_on:
                proc.waiting_on.append(queue)
        proc.state = defs.PROC_SLEEPING
        return self.BLOCKED

    def _complete(self, proc, value=None, exc=None):
        proc.clear_wait_state()
        if proc.state == defs.PROC_ZOMBIE:
            return
        proc.pending_value = value
        proc.pending_exc = exc
        proc.has_pending = True
        if proc.stopped:
            proc.state = defs.PROC_STOPPED
        else:
            proc.state = defs.PROC_RUNNABLE
            self._enqueue(proc)

    def _compute_slice(self, proc, token):
        slice_ms = min(proc.compute_remaining, defs.QUANTUM_MS)
        self._cpu_event = self.sim.schedule(
            slice_ms, self._finish_slice, proc, token, slice_ms
        )

    def _finish_slice(self, proc, token, slice_ms):
        if proc.run_token != token or proc.state != defs.PROC_RUNNING:
            self._release_cpu()
            return
        proc.charge_cpu(slice_ms)
        proc.compute_remaining -= slice_ms
        if proc.compute_remaining > 1e-9:
            if proc.stopped:
                proc.state = defs.PROC_STOPPED
            else:
                proc.state = defs.PROC_RUNNABLE
                self._enqueue(proc)
        else:
            proc.compute_remaining = 0.0
            self._complete(proc, value=None)
        self._release_cpu()

    def _release_cpu(self):
        """Tail call of every step that ran on the CPU."""
        self.cpu_busy = False
        self._dispatch()

    # ------------------------------------------------------------------
    # Packet layer
    # ------------------------------------------------------------------

    def send_packet(self, dst_host, packet, reliable_channel=None, size=64):
        if reliable_channel is not None:
            self.network.send_reliable(
                reliable_channel, self.host, dst_host, size,
                _deliver_to_host, dst_host, packet,
            )
        else:
            self.network.send_datagram(
                self.host, dst_host, size, _deliver_to_host, dst_host, packet
            )

    def deliver_packet(self, packet):
        if self.crashed:
            return  # a dead machine receives nothing
        self._packet_handlers[packet.kind](packet)

    def _listener_for(self, name):
        if isinstance(name, InternetName):
            sock = self.inet_ports.get((defs.SOCK_STREAM, name.port))
        elif isinstance(name, UnixName):
            sock = self.unix_names.get(name.path)
        else:
            sock = None
        if sock is not None and sock.state == ST_LISTENING:
            return sock
        return None

    def _on_conn_req(self, packet):
        from repro.kernel.socket import Socket

        listener = self._listener_for(packet.dst_name)
        refused = listener is None or len(listener.pending) >= listener.backlog
        if refused:
            reply = packets.Packet(
                packets.CONN_REFUSED, self.host, client_eid=packet.client_eid
            )
            self.send_packet(
                packet.src_host,
                reply,
                reliable_channel=("hs", packet.client_eid),
                size=32,
            )
            return
        conn = Socket(self, listener.domain, defs.SOCK_STREAM)
        conn.name = listener.name
        conn.peer_name = packet.client_name
        conn.peer = (packet.src_host, packet.client_eid)
        conn.endpoint_id = self.network.next_endpoint_id()
        conn.state = ST_CONNECTED
        self.endpoints[conn.endpoint_id] = conn
        listener.pending.append(conn)
        listener.conn_wait.wake_all()
        listener.rd_wait.wake_all()
        reply = packets.Packet(
            packets.CONN_ACK,
            self.host,
            client_eid=packet.client_eid,
            server_eid=conn.endpoint_id,
            server_name=listener.name,
        )
        self.send_packet(
            packet.src_host, reply, reliable_channel=("hs", packet.client_eid), size=64
        )

    def _on_conn_ack(self, packet):
        sock = self.endpoints.get(packet.client_eid)
        if sock is None or sock.state == ST_CONNECTED:
            return
        sock.state = ST_CONNECTED
        sock.peer = (packet.src_host, packet.server_eid)
        sock.peer_name = packet.server_name
        sock.conn_wait.wake_all()

    def _on_conn_refused(self, packet):
        from repro.kernel.socket import ST_REFUSED

        sock = self.endpoints.get(packet.client_eid)
        if sock is None:
            return
        sock.state = ST_REFUSED
        sock.conn_wait.wake_all()

    def _on_stream_data(self, packet):
        sock = self.endpoints.get(packet.dst_eid)
        if sock is None:
            return  # connection already closed; data lost to the void
        sock.enqueue_stream_data(packet.data)

    def _on_stream_window(self, packet):
        sock = self.endpoints.get(packet.dst_eid)
        if sock is not None:
            sock.add_send_credit(packet.n)

    def _on_stream_close(self, packet):
        sock = self.endpoints.get(packet.dst_eid)
        if sock is not None:
            sock.set_peer_closed(full=packet.how == "full")

    def _on_dgram(self, packet):
        name = packet.dst_name
        if isinstance(name, InternetName):
            sock = self.inet_ports.get((defs.SOCK_DGRAM, name.port))
        elif isinstance(name, UnixName):
            sock = self.unix_names.get(name.path)
        else:
            sock = None
        if sock is not None and sock.is_dgram:
            sock.enqueue_datagram(packet.data, packet.src_name)
        # else: dropped, exactly like a UDP packet to a dead port.

    # ------------------------------------------------------------------
    # Socket teardown (called by Socket.close via refcount zero)
    # ------------------------------------------------------------------

    def socket_closed(self, sock):
        if sock.name is not None:
            if isinstance(sock.name, InternetName):
                key = (sock.type, sock.name.port)
                if self.inet_ports.get(key) is sock:
                    del self.inet_ports[key]
            elif isinstance(sock.name, UnixName):
                if self.unix_names.get(sock.name.path) is sock:
                    del self.unix_names[sock.name.path]
        if sock.endpoint_id is not None:
            self.endpoints.pop(sock.endpoint_id, None)
        if sock.is_stream and sock.peer is not None and not sock.peer_closed:
            peer_host, peer_eid = sock.peer
            packet = packets.Packet(packets.STREAM_CLOSE, self.host, dst_eid=peer_eid)
            self.send_packet(
                peer_host,
                packet,
                reliable_channel=("conn", sock.endpoint_id, peer_eid),
                size=32,
            )
        # The connection is over: release its FIFO clearance state so a
        # long run does not accumulate an entry per dead connection.
        # (Graceful: the STREAM_CLOSE just sent still arrives.)
        if sock.endpoint_id is not None:
            self.network.close_channel(("hs", sock.endpoint_id))
            if sock.peer is not None:
                __, peer_eid = sock.peer
                self.network.close_channel(("conn", sock.endpoint_id, peer_eid))
                self.network.close_channel(("win", sock.endpoint_id, peer_eid))
        if sock.pair_peer is not None:
            sock.pair_peer.set_peer_closed()
            sock.pair_peer.pair_peer = None
            sock.pair_peer = None
        for conn in list(sock.pending):
            conn.close()
        sock.pending.clear()
        sock.rd_wait.wake_all()
        sock.wr_wait.wake_all()
        sock.conn_wait.wake_all()

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------

    def machine_for(self, host_name):
        return self.host_table.lookup(host_name).machine

    def console_log(self, proc, message):
        self.console.append(
            "[{0:10.3f}] {1}({2}): {3}".format(
                self.sim.now, proc.program_name, proc.pid, message
            )
        )

    def __repr__(self):
        return "Machine({0!r}, {1} procs)".format(self.host.name, len(self.procs))
