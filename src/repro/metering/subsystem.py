"""The in-kernel meter.

Implements the paper's kernel changes (Section 3.2):

- event detection hooks called from the syscall layer;
- per-process meter-message buffering ("The default is to buffer
  several messages so that the number of meter messages is considerably
  smaller than the number of messages sent by the metered process");
- flush of unsent messages at process termination;
- the ``setmeter(2)`` system call (Appendix C);
- meter-state inheritance across fork.

The meter socket's descriptor "is not stored in the process's
descriptor table and is, therefore, not directly accessible by the
process" -- here it lives in ``proc.meter_entry``.
"""

from collections import deque

from repro.kernel import defs as kdefs
from repro.kernel import errno
from repro.kernel.errno import SyscallError
from repro.kernel.waitq import WaitQueue
from repro.metering import flags as mflags
from repro.metering.messages import MessageCodec, encode_batch_marker
from repro.net.addresses import InternetName

#: Event name -> the flag bit that enables it.
_EVENT_FLAG = {
    "send": mflags.METERSEND,
    "receivecall": mflags.METERRECEIVECALL,
    "receive": mflags.METERRECEIVE,
    "accept": mflags.METERACCEPT,
    "connect": mflags.METERCONNECT,
    "fork": mflags.METERFORK,
    "socket": mflags.METERSOCKET,
    "dup": mflags.METERDUP,
    "destsocket": mflags.METERDESTSOCKET,
    "termproc": mflags.METERTERMPROC,
}

#: Messages buffered before the kernel ships a batch to the filter.
DEFAULT_BUFFER_LIMIT = 8

#: Upper bound on messages retained across failed flushes (transient
#: backpressure, e.g. a meter socket that is not yet connected): past
#: this the oldest messages are dropped and counted, so a never-ready
#: socket cannot grow the kernel buffer without bound.
DEFAULT_REQUEUE_LIMIT = 64

#: Flushed batches retained per process for retransmission after a
#: filter reconnect.  Each batch is stamped with a per-process sequence
#: number; a replacement meter connection gets the whole window resent
#: and the filter inbox dedups by (machine, pid, seq).  Rolling a
#: never-delivered batch out of the window is real, counted loss.
WINDOW_BATCHES = 32

#: Stamped batches retained per destination (filter address) after
#: their process exits, so a filter that crashes around a process's
#: death can still recover the final records (including termproc)
#: through ``meterdrain``.
ORPHAN_BATCHES = 512


class MeterSubsystem:
    """Per-machine metering state and hooks."""

    def __init__(
        self,
        machine,
        buffer_limit=DEFAULT_BUFFER_LIMIT,
        requeue_limit=DEFAULT_REQUEUE_LIMIT,
    ):
        self.machine = machine
        self.buffer_limit = buffer_limit
        self.requeue_limit = requeue_limit
        self.codec = MessageCodec()
        # Statistics for the perturbation / buffering studies.
        self.events_recorded = 0
        self.wire_sends = 0
        self.wire_bytes = 0
        #: Meter messages lost for any reason (broken or never-ready
        #: meter connection, re-queue overflow, process termination
        #: with an unsendable buffer) -- loss is observable, not silent.
        self.events_dropped = 0
        #: pid -> share of ``events_dropped``, surfaced per process
        #: through meterstat(2) and the daemon status RPC.
        self.dropped_by_pid = {}
        #: (filter host, filter port) -> deque of window entries whose
        #: process has exited; drained to a reconnecting filter by
        #: meterdrain(2).
        self.orphans = {}
        #: Broken-meter notifications for the local meterdaemon
        #: (``select(want_meter_loss=True)``): the kernel knows the
        #: instant a meter connection dies, and the daemon on this
        #: machine is the only agent guaranteed to share its side of
        #: any partition -- the controller's health view runs over a
        #: different path and can stay green while meter data silently
        #: stops flowing.
        self.lost_meters = deque()
        self.lost_wait = WaitQueue("meter-loss")

    # ------------------------------------------------------------------
    # setmeter(2)
    # ------------------------------------------------------------------

    def sys_setmeter(self, proc, request):
        """Appendix C semantics.

        ``setmeter(proc, flags, socket)``: -1 for proc means the caller;
        -1 for flags/socket means no change; flags 0 (NONE) clears all;
        socket SOCK_NONE (or None) closes the meter connection.
        """
        target_pid, new_flags, socket_fd = request.args

        if target_pid == mflags.SELF:
            target = proc
        else:
            target = self.machine.procs.get(target_pid)
            if target is None or target.state == kdefs.PROC_ZOMBIE:
                raise SyscallError(errno.ESRCH, "pid %r" % target_pid)
        # "A user can request metering only for processes belonging to
        # that user ... A superuser process can set metering for any
        # process."
        if proc.uid != 0 and proc.uid != target.uid:
            raise SyscallError(errno.EPERM, "pid %r" % target_pid)

        if new_flags != mflags.NO_CHANGE:
            target.meter_flags = int(new_flags)

        if socket_fd is None:
            socket_fd = mflags.SOCK_NONE
        if socket_fd == mflags.SOCK_NONE:
            # Deliberate un-metering: nobody will reconnect for these
            # batches, so the window's undelivered remainder is loss.
            self._drop_meter_socket(target)
            target.meter_pending_dest = None
            self._discard_window(target)
        elif socket_fd != mflags.NO_CHANGE:
            entry = proc.fds.get(socket_fd)
            if entry is None:
                # Appendix C prints ESRCH for "the socket does not
                # exist", but a descriptor that names no open file is
                # EBADF in 4.2BSD; ESRCH stays reserved for the process
                # lookup above.
                raise SyscallError(errno.EBADF, "socket fd %r" % socket_fd)
            if entry.kind != "socket":
                raise SyscallError(errno.ENOTSOCK, "fd %r" % socket_fd)
            sock = entry.obj
            # "The socket provided must be a stream socket in the
            # Internet domain."  (It "must be connected to be used,
            # though this is not checked.")
            if not sock.is_stream or sock.domain != kdefs.AF_INET:
                raise SyscallError(
                    errno.EINVAL, "meter socket must be an Internet stream socket"
                )
            # "If setmeter() is called specifying a new meter socket for
            # a process already having one, the old socket is closed."
            self._drop_meter_socket(target)
            target.meter_entry = self.machine.file_table.ref(entry)
            target.meter_pending_dest = None
            if target.meter_window:
                # Reconnect: every retained batch goes out again on the
                # new connection; the filter dedups by (machine, pid,
                # seq), so redelivery is harmless and gaps are closed.
                for went in target.meter_window:
                    went[3] = False
                target.meter_unsent = len(target.meter_window)
                self._pump_window(target)
        return 0

    def _drop_meter_socket(self, proc):
        if proc.meter_entry is not None:
            self.machine.file_table.unref(proc.meter_entry)
            proc.meter_entry = None

    def inherit(self, parent, child):
        """fork(): "the child process inherits the meter socket and the
        meter flags of the parent"."""
        child.meter_flags = parent.meter_flags
        if parent.meter_entry is not None:
            child.meter_entry = self.machine.file_table.ref(parent.meter_entry)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _metered(self, proc, event):
        # A broken meter connection with a remembered destination means
        # a replacement filter may reconnect: keep recording into the
        # resend window so the gap can be closed.  Only a process that
        # never had a socket, or was deliberately un-metered (setmeter
        # with SOCK_NONE clears the pending destination), stops here.
        if proc.meter_entry is None and proc.meter_pending_dest is None:
            return False
        return proc.meter_flags & _EVENT_FLAG[event] != 0

    def _record(self, proc, event, **body):
        """Build, buffer, and maybe ship one meter message."""
        raw = self.codec.encode(
            event,
            machine=self.machine.host.host_id,
            cpu_time=int(self.machine.clock.local_time(self.machine.sim.now)),
            proc_time=int(proc.proc_time()),
            pc=proc.step_count,
            **body
        )
        proc.meter_buffer.append(raw)
        self.events_recorded += 1
        proc.charge_cpu(kdefs.METER_EVENT_COST_MS)
        immediate = proc.meter_flags & mflags.M_IMMEDIATE != 0
        if immediate and proc.meter_entry is None and proc.meter_pending_dest is not None:
            # Awaiting a filter reconnect: immediate delivery is moot
            # with no connection, and stamping one window batch per
            # event would burn through the resend window ``buffer_limit``
            # times faster than full batches do.  Batch fully until the
            # replacement connection arrives.
            immediate = False
        if immediate or len(proc.meter_buffer) >= self.buffer_limit:
            self.flush(proc)

    def flush(self, proc):
        """Ship any buffered messages over the meter connection."""
        if proc.meter_unsent:
            # Older stamped batches first, so the stream stays in
            # sequence order across a reconnect.
            self._pump_window(proc)
        if not proc.meter_buffer:
            return
        if proc.meter_entry is None:
            if proc.meter_pending_dest is not None:
                # The connection broke but a replacement filter may
                # reconnect: stamp the batch into the resend window
                # instead of dropping it.
                self._stamp_batch(proc, sent=False)
            else:
                # "Meter messages are lost if ... unconnected."
                self._count_dropped(proc.pid, len(proc.meter_buffer))
                proc.meter_buffer = []
            return
        pending = proc.meter_buffer
        proc.meter_buffer = []
        # The batch marker trails the batch, stamping it with this
        # process's flush sequence number; it rides in the same send,
        # so batching cost (one wire send per batch) is unchanged.
        seq = proc.meter_seq
        data = (
            pending[0] if len(pending) == 1 else b"".join(pending)
        ) + encode_batch_marker(self.machine.host.host_id, proc.pid, seq)
        sock = proc.meter_entry.obj
        if self.machine.kernel_stream_send(sock, data):
            self.wire_sends += 1
            self.wire_bytes += len(data)
            proc.meter_seq = seq + 1
            self._window_push(proc, [seq, data, len(pending), True])
        elif sock.closed or sock.peer_gone or sock.error is not None:
            # The meter connection broke (filter died, path severed):
            # transparency under failure (Section 2) -- quietly un-meter
            # the process and let it keep computing, never perturb it.
            # The batch waits in the resend window for a reconnect.
            proc.meter_seq = seq + 1
            self._window_push(proc, [seq, data, len(pending), False])
            self._disconnect(proc, sock)
        else:
            # Transient refusal while the socket itself is healthy
            # (e.g. a meter socket set before it finished connecting):
            # keep the batch for the next flush instead of silently
            # discarding it, bounded by the re-queue limit.  No sequence
            # number is consumed -- the records are still unstamped.
            requeued = pending + proc.meter_buffer
            overflow = len(requeued) - self.requeue_limit
            if overflow > 0:
                self._count_dropped(proc.pid, overflow)
                requeued = requeued[overflow:]
            proc.meter_buffer = requeued

    # -- resend window --------------------------------------------------

    def _count_dropped(self, pid, count):
        if count <= 0:
            return
        self.events_dropped += count
        self.dropped_by_pid[pid] = self.dropped_by_pid.get(pid, 0) + count

    def _dest_of(self, sock):
        """(host, port) of the filter a meter socket is connected to."""
        name = getattr(sock, "peer_name", None)
        if isinstance(name, InternetName):
            return (name.host, name.port)
        return None

    def _disconnect(self, proc, sock):
        """The meter connection is dead: remember where it pointed so a
        replacement connection can pick the window up, drop it, and
        tell the local meterdaemon so it can redial."""
        dest = self._dest_of(sock)
        if dest is not None:
            proc.meter_pending_dest = dest
            self.lost_meters.append(
                {
                    "meter_lost": True,
                    "pid": proc.pid,
                    "host": dest[0],
                    "port": dest[1],
                }
            )
            self.lost_wait.wake_all()
        self._drop_meter_socket(proc)

    def _stamp_batch(self, proc, sent):
        """Move the whole meter buffer into the window as one stamped,
        marker-prefixed batch."""
        pending = proc.meter_buffer
        proc.meter_buffer = []
        seq = proc.meter_seq
        proc.meter_seq = seq + 1
        data = (
            pending[0] if len(pending) == 1 else b"".join(pending)
        ) + encode_batch_marker(self.machine.host.host_id, proc.pid, seq)
        self._window_push(proc, [seq, data, len(pending), sent])

    def _window_push(self, proc, entry):
        """Append a [seq, wire bytes, record count, sent] entry, rolling
        the window; an entry that never reached any filter is loss."""
        proc.meter_window.append(entry)
        if not entry[3]:
            proc.meter_unsent += 1
        while len(proc.meter_window) > WINDOW_BATCHES:
            old = proc.meter_window.popleft()
            if not old[3]:
                proc.meter_unsent -= 1
                self._count_dropped(proc.pid, old[2])

    def _pump_window(self, proc):
        """(Re)send window batches not yet delivered on the current
        connection, oldest first; stops at the first refusal."""
        if proc.meter_entry is None:
            return
        sock = proc.meter_entry.obj
        for entry in proc.meter_window:
            if entry[3]:
                continue
            if self.machine.kernel_stream_send(sock, entry[1]):
                self.wire_sends += 1
                self.wire_bytes += len(entry[1])
                entry[3] = True
                proc.meter_unsent -= 1
            elif sock.closed or sock.peer_gone or sock.error is not None:
                self._disconnect(proc, sock)
                return
            else:
                return  # transient; retried at the next flush

    def _discard_window(self, proc):
        for entry in proc.meter_window:
            if not entry[3]:
                self._count_dropped(proc.pid, entry[2])
        proc.meter_window.clear()
        proc.meter_unsent = 0

    def _spool_orphans(self, proc, dest):
        """Keep an exited process's window for the filter at ``dest``;
        meterdrain(2) redelivers it on a fresh connection."""
        spool = self.orphans.setdefault(dest, deque())
        for entry in proc.meter_window:
            spool.append([entry[0], entry[1], entry[2], entry[3], proc.pid])
        while len(spool) > ORPHAN_BATCHES:
            old = spool.popleft()
            if not old[3]:
                self._count_dropped(old[4], old[2])
        proc.meter_window.clear()
        proc.meter_unsent = 0

    # ------------------------------------------------------------------
    # Hooks called by the syscall layer
    # ------------------------------------------------------------------

    def on_socket(self, proc, entry, sock):
        if self._metered(proc, "socket"):
            self._record(
                proc,
                "socket",
                pid=proc.pid,
                sock=entry.addr,
                domain=sock.domain,
                type=sock.type,
                protocol=sock.protocol,
            )

    def on_connect(self, proc, entry, sock, peer_name):
        if self._metered(proc, "connect"):
            self._record(
                proc,
                "connect",
                pid=proc.pid,
                sock=entry.addr,
                sockName=sock.name,
                peerName=peer_name,
                **self.codec.name_lengths(sockName=sock.name, peerName=peer_name)
            )

    def on_accept(self, proc, listener_entry, conn_entry, listener, conn):
        if self._metered(proc, "accept"):
            self._record(
                proc,
                "accept",
                pid=proc.pid,
                sock=listener_entry.addr,
                newSock=conn_entry.addr,
                sockName=listener.name,
                peerName=conn.peer_name,
                **self.codec.name_lengths(
                    sockName=listener.name, peerName=conn.peer_name
                )
            )

    def on_send(self, proc, entry, sock, msg_length, dest_name):
        if self._metered(proc, "send"):
            self._record(
                proc,
                "send",
                pid=proc.pid,
                sock=entry.addr,
                msgLength=msg_length,
                destName=dest_name,
                **self.codec.name_lengths(destName=dest_name)
            )

    def on_recvcall(self, proc, entry, sock):
        if self._metered(proc, "receivecall"):
            self._record(proc, "receivecall", pid=proc.pid, sock=entry.addr)

    def on_recv(self, proc, entry, sock, msg_length, source_name):
        if self._metered(proc, "receive"):
            self._record(
                proc,
                "receive",
                pid=proc.pid,
                sock=entry.addr,
                msgLength=msg_length,
                sourceName=source_name,
                **self.codec.name_lengths(sourceName=source_name)
            )

    def on_dup(self, proc, entry, newfd):
        if self._metered(proc, "dup"):
            self._record(
                proc, "dup", pid=proc.pid, sock=entry.addr, newSock=newfd
            )

    def on_destsocket(self, proc, entry):
        if self._metered(proc, "destsocket"):
            self._record(proc, "destsocket", pid=proc.pid, sock=entry.addr)

    def on_fork(self, parent, child):
        if self._metered(parent, "fork"):
            self._record(parent, "fork", pid=parent.pid, newPid=child.pid)

    def on_termproc(self, proc):
        """Called from proc_exit: final event, flush, close the socket."""
        if self._metered(proc, "termproc"):
            self._record(
                proc,
                "termproc",
                pid=proc.pid,
                status=proc.exit_status if proc.exit_status is not None else 0,
            )
        self.flush(proc)
        if proc.meter_buffer:
            # The process is gone; whatever could not be shipped is lost.
            self._count_dropped(proc.pid, len(proc.meter_buffer))
            proc.meter_buffer = []
        if proc.meter_window:
            # The process is gone but its filter may be mid-restart:
            # park the window where a drain for that filter address can
            # find it, so even the termproc record survives the race.
            dest = proc.meter_pending_dest
            if dest is None and proc.meter_entry is not None:
                dest = self._dest_of(proc.meter_entry.obj)
            if dest is not None:
                self._spool_orphans(proc, dest)
            else:
                self._discard_window(proc)
        proc.meter_pending_dest = None
        self._drop_meter_socket(proc)

    # ------------------------------------------------------------------
    # meterstat(2) / meterdrain(2)
    # ------------------------------------------------------------------

    def sys_meterstat(self, proc, request):
        """Machine-wide metering statistics (root only): loss totals,
        the per-pid split, how many orphan batches are parked (and
        where), and which live processes sit on a broken meter
        connection (the redial worklist)."""
        if proc.uid != 0:
            raise SyscallError(errno.EPERM, "meterstat is root-only")
        disconnected = {}
        for other in self.machine.procs.values():
            if (
                other.state != kdefs.PROC_ZOMBIE
                and other.meter_pending_dest is not None
            ):
                disconnected[other.pid] = list(other.meter_pending_dest)
        return {
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
            "wire_sends": self.wire_sends,
            "dropped_by_pid": dict(self.dropped_by_pid),
            "orphan_batches": sum(len(q) for q in self.orphans.values()),
            # Only never-delivered batches count: a spool of delivered
            # leftovers needs no redial (a drain would just be deduped).
            "orphans_parked": {
                key: count
                for key, count in (
                    (
                        "{0}:{1}".format(host, port),
                        sum(1 for entry in spool if not entry[3]),
                    )
                    for (host, port), spool in self.orphans.items()
                )
                if count
            },
            "disconnected": disconnected,
        }

    def sys_meterdrain(self, proc, request):
        """Redeliver orphaned batches over ``fd`` (root only).

        ``meterdrain(fd, ports)``: ``fd`` must be a stream socket
        connected to the (relaunched) filter's machine; every orphan
        batch spooled for that host at any of the given filter ports is
        shipped over it.  Returns the number of batches shipped."""
        fd, ports = request.args
        if proc.uid != 0:
            raise SyscallError(errno.EPERM, "meterdrain is root-only")
        entry = proc.fds.get(fd)
        if entry is None:
            raise SyscallError(errno.EBADF, "fd %r" % fd)
        if entry.kind != "socket":
            raise SyscallError(errno.ENOTSOCK, "fd %r" % fd)
        sock = entry.obj
        dest = self._dest_of(sock)
        if dest is None:
            raise SyscallError(
                errno.EINVAL, "meterdrain needs a connected Internet socket"
            )
        shipped = 0
        for port in ports:
            key = (dest[0], int(port))
            spool = self.orphans.pop(key, None)
            if not spool:
                continue
            while spool:
                batch = spool[0]
                if self.machine.kernel_stream_send(sock, batch[1]):
                    spool.popleft()
                    shipped += 1
                    self.wire_sends += 1
                    self.wire_bytes += len(batch[1])
                else:
                    # Refused mid-drain: keep the rest for a later try.
                    self.orphans[key] = spool
                    return shipped
        return shipped
