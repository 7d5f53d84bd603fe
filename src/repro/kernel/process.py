"""The process structure.

Mirrors the 4.2BSD ``proc`` entry plus the paper's three additions
(Section 3.2):

    "For the purpose of metering, three fields have been added to the
    process structures in the process table.  One field is a pointer to
    the *meter socket* ... A second field is a bit mask indicating the
    events to be metered ... The third field is a pointer to meter
    messages that have yet to be sent."

The meter socket's file-table entry is held here, **not** in the
descriptor table, so the process cannot see or touch it and it does not
reduce the number of descriptors available to the process.
"""

from collections import deque

from repro.kernel import defs, errno
from repro.kernel.errno import SyscallError
from repro.kernel.waitq import WaitQueue


class Proc:
    """One process: address space (the generator), descriptors, state."""

    def __init__(self, machine, pid, uid, program_name, ppid=0):
        self.machine = machine
        self.pid = pid
        self.uid = uid
        self.ppid = ppid
        self.program_name = program_name
        self.argv = []

        #: Kernel-level run state (defs.PROC_*).
        self.state = defs.PROC_EMBRYO
        #: True while SIGSTOP'd (or still suspended pre-first-instruction).
        self.stopped = True

        #: fd -> FileTableEntry.
        self.fds = {}

        #: The guest generator; created at first dispatch.
        self.gen = None
        #: The guest main function.
        self.main = None

        # Pending resume information for the next dispatch.
        self.pending_value = None
        self.pending_exc = None
        self.has_pending = False
        #: A blocked syscall to retry: (handler, request) or None.
        self.retry = None
        #: Scratch state a blocking handler keeps across retries.
        self.syscall_state = {}
        #: WaitQueues this proc is currently parked on.
        self.waiting_on = []
        #: Simulated time at which the current timed wait (sleep, select
        #: or connect timeout, rcp) gives up; None outside one.
        self.wake_deadline = None
        #: (time, event) of this proc's one queued timer event, or None.
        self.wake_timer = None
        #: True while queued on the machine's run queue.
        self.in_runq = False

        # CPU accounting.  ``cpu_ms`` is exact; ``proc_time()`` reports
        # it at the 10ms granularity of Section 4.1.
        self.cpu_ms = 0.0
        #: Count of generator resumptions; stands in for the program
        #: counter in meter messages (see DESIGN.md substitutions).
        self.step_count = 0
        self.syscall_count = 0

        # Metering fields (the paper's proc-table additions).
        self.meter_entry = None  # FileTableEntry of the meter socket
        self.meter_flags = 0
        self.meter_buffer = []  # encoded messages not yet sent

        # At-least-once delivery state (PR 5).  Every flushed batch is
        # stamped with ``meter_seq`` and kept in ``meter_window`` (a
        # deque of (seq, wire bytes, record count, sent flag)) until the
        # window rolls over; a reconnecting filter gets the window
        # retransmitted and dedups on its side.  ``meter_pending_dest``
        # remembers the filter's socket name while the connection is
        # down so a replacement connection can be recognised.
        # ``meter_unsent`` counts the window entries whose sent flag is
        # clear, so a flush with nothing to resend skips the walk.
        self.meter_seq = 0
        self.meter_window = deque()
        self.meter_unsent = 0
        self.meter_pending_dest = None

        # Parent/child bookkeeping.
        self.children = set()
        #: Termination reports from children: dicts with pid/status/reason.
        self.child_events = deque()
        #: Woken when a child changes state (select want_children).
        self.child_wait = WaitQueue("children")

        # Exit info.
        self.exit_status = None
        self.exit_reason = None

    # ------------------------------------------------------------------

    def proc_time(self):
        """CPU time charged to the process, at 10 ms granularity."""
        tick = defs.CPU_TICK_MS
        return int(self.cpu_ms // tick) * tick

    def charge_cpu(self, ms):
        self.cpu_ms += ms

    # -- descriptor management -----------------------------------------

    def alloc_fd(self, entry):
        """Install ``entry`` at the lowest free descriptor (BSD rule)."""
        for fd in range(defs.NOFILE):
            if fd not in self.fds:
                self.fds[fd] = self.machine.file_table.ref(entry)
                return fd
        raise SyscallError(errno.EMFILE)

    def install_fd(self, fd, entry):
        """Install ``entry`` at a specific descriptor (dup2)."""
        if fd < 0 or fd >= defs.NOFILE:
            raise SyscallError(errno.EBADF, "fd %d" % fd)
        if fd in self.fds:
            self.machine.file_table.unref(self.fds.pop(fd))
        self.fds[fd] = self.machine.file_table.ref(entry)
        return fd

    def lookup_fd(self, fd):
        entry = self.fds.get(fd)
        if entry is None:
            raise SyscallError(errno.EBADF, "fd %r" % fd)
        return entry

    def lookup_socket(self, fd):
        entry = self.lookup_fd(fd)
        if entry.kind != "socket":
            raise SyscallError(errno.ENOTSOCK, "fd %d" % fd)
        return entry

    def close_fd(self, fd):
        entry = self.fds.pop(fd, None)
        if entry is None:
            raise SyscallError(errno.EBADF, "fd %r" % fd)
        self.machine.file_table.unref(entry)
        return entry

    def close_all_fds(self):
        for fd in list(self.fds):
            entry = self.fds.pop(fd)
            self.machine.file_table.unref(entry)

    # ------------------------------------------------------------------

    def clear_wait_state(self):
        """Remove this proc from every wait queue (syscall finished)."""
        # Most syscalls never blocked and kept no state: leave their
        # empty list and dict in place rather than make new ones.
        if self.waiting_on:
            for queue in self.waiting_on:
                queue.discard(self)
            self.waiting_on = []
        self.retry = None
        if self.syscall_state:
            self.syscall_state = {}
        self.wake_deadline = None

    def is_active(self):
        return self.state not in (defs.PROC_ZOMBIE,)

    def __repr__(self):
        return "Proc(pid={0}, {1!r}@{2}, state={3})".format(
            self.pid, self.program_name, self.machine.host.name, self.state
        )
