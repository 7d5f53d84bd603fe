"""Seeded generator of the ``postmortem`` workload's input log.

No simulation: a small causal model of 8 machines x 4 processes emits
Appendix-A records in bursty per-process runs, the locality a real
metered computation produces.  The trace is semantically consistent --
every accept mirrors a connect, every receive drains bytes some
earlier send put in flight, datagrams name real sockets -- so the
matchers, the clock engines and the twin digests all have real work to
do.  A seeded 2 % of datagrams is never received.

The input never passes through the live path, so a kernel or metering
change cannot silently resize the ``postmortem`` row.
"""

import random
from collections import deque

from repro.filtering.records import format_record
from repro.metering.messages import BODY_FIELDS, EVENT_TYPES, message_length

MACHINES = 8
PROCS_PER_MACHINE = 4
#: One datagram in this many is never received: a fixed share, at a
#: seeded phase, so the fold's work does not swing with the seed.
DGRAM_LOSS_EVERY = 50
#: How often the receiver of a run of sends reads it right away; the
#: rest waits for one of the receiver's own read runs.
PROMPT_READER = 0.8

_SIZES = (16, 24, 48, 64, 96, 128, 160, 256, 512, 1024)
_RUN = (8, 33)  # run lengths, as randrange bounds


class _Proc:
    def __init__(self, index):
        self.index = index
        self.machine = index // PROCS_PER_MACHINE + 1
        self.host = "m%d" % self.machine
        self.pid = 2000 + 10 * self.machine + index % PROCS_PER_MACHINE
        self.pc = 0
        self.cpu_ms = 0.0
        self.listen_sock = None
        self.listen_port = 5000 + index
        self.dgram_sock = None
        self.dgram_port = 6000 + index
        self.inbox = deque()  # (length, source display name)
        self.ends = []  # open stream endpoints
        self.spare_socks = []  # dup'd / extra sockets awaiting destsocket


class _End:
    """One end of a stream connection."""

    def __init__(self, proc, sock, name):
        self.proc = proc
        self.sock = sock
        self.name = name
        self.peer = None
        self.in_flight = deque()  # lengths sent to the peer, not yet read


class LogGenerator:
    def __init__(self, seed):
        self.rng = random.Random("ledger-postmortem:%d" % seed)
        self.records = []
        self.now = 100
        self.procs = [_Proc(i) for i in range(MACHINES * PROCS_PER_MACHINE)]
        self._next_sock = {m: 0x1000 for m in range(1, MACHINES + 1)}
        self._next_port = {m: 1024 for m in range(1, MACHINES + 1)}
        self._next_child = {m: 3000 for m in range(1, MACHINES + 1)}
        self.lost_datagrams = 0
        self._datagrams = self.rng.randrange(DGRAM_LOSS_EVERY)

    # -- emission -------------------------------------------------------

    def _emit(self, proc, event, **body):
        proc.pc += 1
        proc.cpu_ms += 0.4
        if self.rng.random() < 0.3:
            self.now += 1
        record = {
            "event": event,
            "size": message_length(event),
            "machine": proc.machine,
            "cpuTime": self.now,
            "procTime": int(proc.cpu_ms // 10) * 10,
            "traceType": EVENT_TYPES[event],
            "pid": proc.pid,
            "pc": proc.pc,
        }
        for name, kind in BODY_FIELDS[event][2:]:
            if name.endswith("NameLen"):
                record[name] = 8 if body.get(name[:-3]) else 0
            else:
                record[name] = body.get(name, "" if kind == "name" else 0)
        self.records.append(record)

    def _sock(self, proc):
        sock = self._next_sock[proc.machine]
        self._next_sock[proc.machine] = sock + 16
        return sock

    def _new_socket(self, proc, sock_type=1):
        sock = self._sock(proc)
        self._emit(proc, "socket", sock=sock, domain=2, type=sock_type)
        return sock

    def _run_length(self):
        return self.rng.randrange(*_RUN)

    # -- connections ----------------------------------------------------

    def _connect(self, initiator, acceptor):
        sock = self._new_socket(initiator)
        port = self._next_port[initiator.machine]
        self._next_port[initiator.machine] = port + 1
        init_name = "inet:%s:%d" % (initiator.host, port)
        acc_name = "inet:%s:%d" % (acceptor.host, acceptor.listen_port)
        self._emit(initiator, "connect", sock=sock, sockName=init_name,
                   peerName=acc_name)
        new_sock = self._sock(acceptor)
        self._emit(acceptor, "accept", sock=acceptor.listen_sock,
                   newSock=new_sock, sockName=acc_name, peerName=init_name)
        near = _End(initiator, sock, init_name)
        far = _End(acceptor, new_sock, acc_name)
        near.peer, far.peer = far, near
        return near, far

    def _open(self, initiator, acceptor):
        near, far = self._connect(initiator, acceptor)
        initiator.ends.append(near)
        acceptor.ends.append(far)

    def _setup(self):
        for proc in self.procs:
            proc.listen_sock = self._new_socket(proc)
            proc.dgram_sock = self._new_socket(proc, sock_type=2)
        count = len(self.procs)
        for i, proc in enumerate(self.procs):  # ring
            self._open(proc, self.procs[(i + 1) % count])
        for proc in self.procs[1:]:  # star on process 0
            self._open(proc, self.procs[0])

    # -- runs -----------------------------------------------------------

    def _stream_send(self, proc):
        end = self.rng.choice(proc.ends)
        size = self.rng.choice(_SIZES)
        for __ in range(self._run_length()):
            self._emit(proc, "send", sock=end.sock, msgLength=size)
            end.in_flight.append(size)
        if self.rng.random() < PROMPT_READER:
            self._read_stream(end.peer, len(end.in_flight))

    def _read_stream(self, end, limit):
        """Drain up to ``limit`` messages the peer put in flight; a
        read sometimes coalesces two ("as many bytes as possible")."""
        source = end.peer
        while limit > 0 and source.in_flight:
            length = source.in_flight.popleft()
            if source.in_flight and self.rng.random() < 0.15:
                length += source.in_flight.popleft()
            self._emit(end.proc, "receivecall", sock=end.sock)
            self._emit(end.proc, "receive", sock=end.sock, msgLength=length,
                       sourceName=source.name)
            limit -= 1

    def _stream_recv(self, proc):
        ready = [end for end in proc.ends if end.peer.in_flight]
        if not ready:
            return self._idle_poll(proc)
        self._read_stream(self.rng.choice(ready), self._run_length())

    def _idle_poll(self, proc):
        """A receive loop finding nothing: receivecalls, no receives."""
        sock = self.rng.choice(proc.ends).sock
        for __ in range(self._run_length()):
            self._emit(proc, "receivecall", sock=sock)

    def _dgram_send(self, proc):
        target = self.rng.choice(self.procs)
        dest = "inet:%s:%d" % (target.host, target.dgram_port)
        source = "inet:%s:%d" % (proc.host, proc.dgram_port)
        size = self.rng.choice(_SIZES)
        for __ in range(self._run_length()):
            self._emit(proc, "send", sock=proc.dgram_sock, msgLength=size,
                       destName=dest)
            self._datagrams += 1
            if self._datagrams % DGRAM_LOSS_EVERY == 0:
                self.lost_datagrams += 1
            else:
                target.inbox.append((size, source))
        if self.rng.random() < PROMPT_READER:
            self._dgram_recv(target, limit=len(target.inbox))

    def _dgram_recv(self, proc, limit=None):
        if not proc.inbox:
            return self._idle_poll(proc)
        limit = self._run_length() if limit is None else limit
        while limit > 0 and proc.inbox:
            size, source = proc.inbox.popleft()
            self._emit(proc, "receivecall", sock=proc.dgram_sock)
            self._emit(proc, "receive", sock=proc.dgram_sock, msgLength=size,
                       sourceName=source)
            limit -= 1

    def _dup_run(self, proc):
        sock = self.rng.choice(proc.ends).sock
        for __ in range(self._run_length()):
            new_sock = self._sock(proc)
            self._emit(proc, "dup", sock=sock, newSock=new_sock)
            proc.spare_socks.append(new_sock)

    def _socket_run(self, proc):
        for i in range(self._run_length()):
            sock = self._sock(proc)
            self._emit(proc, "socket", sock=sock, domain=2 - i % 2,
                       type=1 + i % 2)
            proc.spare_socks.append(sock)

    def _destsocket_run(self, proc):
        if not proc.spare_socks:
            return self._dup_run(proc)
        for __ in range(self._run_length()):
            if not proc.spare_socks:
                break
            self._emit(proc, "destsocket", sock=proc.spare_socks.pop())

    def _fork_run(self, proc):
        for __ in range(self._run_length()):
            child = self._next_child[proc.machine]
            self._next_child[proc.machine] = child + 1
            self._emit(proc, "fork", newPid=child)

    def _reconnect_run(self, proc):
        """Short-lived connections: connect, one message, close."""
        peer = self.rng.choice(self.procs)
        for __ in range(self.rng.randrange(3, 9)):
            near, far = self._connect(proc, peer)
            size = self.rng.choice(_SIZES)
            self._emit(proc, "send", sock=near.sock, msgLength=size)
            near.in_flight.append(size)
            self._read_stream(far, 1)
            self._emit(proc, "destsocket", sock=near.sock)
            self._emit(peer, "destsocket", sock=far.sock)

    # -- the whole log --------------------------------------------------

    def generate(self, min_records):
        actions = (
            [self._stream_send] * 28
            + [self._stream_recv] * 28
            + [self._dgram_send] * 12
            + [self._dgram_recv] * 12
            + [self._dup_run] * 4
            + [self._destsocket_run] * 4
            + [self._socket_run] * 3
            + [self._fork_run] * 4
            + [self._reconnect_run] * 3
            + [self._idle_poll] * 2
        )
        self._setup()
        while len(self.records) < min_records:
            self.now += self.rng.randrange(0, 3)
            self.rng.choice(actions)(self.rng.choice(self.procs))
        for proc in self.procs:  # drain what is still in flight
            for end in proc.ends:
                self._read_stream(end, len(end.peer.in_flight))
            self._dgram_recv(proc, limit=len(proc.inbox))
        for proc in self.procs:
            self._emit(proc, "termproc", status=0)
        return self.records


def generate_log(seed, min_records):
    """(text log, record count, datagrams lost by construction)."""
    gen = LogGenerator(seed)
    records = gen.generate(min_records)
    text = "\n".join(format_record(record) for record in records) + "\n"
    return text, len(records), gen.lost_datagrams
