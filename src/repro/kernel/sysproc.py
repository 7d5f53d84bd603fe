"""Syscall handlers: processes, signals, time, select, rcp.

Mixin for :class:`repro.kernel.machine.Machine`.
"""

from repro.kernel import defs, errno
from repro.kernel.errno import SyscallError

#: Descriptor kinds whose readability select() tests and waits on.
_WAITABLE_KINDS = ("socket", "tty")


class ProcessCalls:
    """fork/execv/exit/kill/select/sleep and friends."""

    # ------------------------------------------------------------------

    def sys_fork(self, proc, request):
        child_main, argv = request.args
        child = self.create_process(
            main=child_main,
            argv=argv,
            uid=proc.uid,
            ppid=proc.pid,
            program_name=proc.program_name,
            start=True,
        )
        # Inherit descriptors (shared file-table entries, as in UNIX).
        for fd, entry in proc.fds.items():
            child.fds[fd] = self.file_table.ref(entry)
        # "When a process forks, the child process inherits the meter
        # socket and the meter flags of the parent." (Section 3.2)
        self.meter.inherit(proc, child)
        proc.children.add(child.pid)
        self.meter.on_fork(proc, child)
        return child.pid

    def sys_forkexec(self, proc, request):
        path, argv, stdio_fd, start, uid = request.args
        if uid is None:
            uid = proc.uid
        elif proc.uid != 0 and uid != proc.uid:
            raise SyscallError(errno.EPERM, "cannot setuid to %r" % uid)
        # Access check runs with the effective user's rights.
        node = self.fs.lookup(path, uid, want="exec")
        program_name = node.program or bytes(node.data).decode("ascii").strip()
        main = self.registry.resolve(program_name)
        child = self.create_process(
            main=main,
            argv=argv,
            uid=uid,
            ppid=proc.pid,
            program_name=program_name,
            start=start,
        )
        if stdio_fd is not None:
            entry = proc.lookup_fd(stdio_fd)
            for fd in (0, 1, 2):
                child.fds[fd] = self.file_table.ref(entry)
        # Like fork: the child inherits metering state (so a metered
        # rexec-style server's children are metered, Section 3.2).
        self.meter.inherit(proc, child)
        self.meter.on_fork(proc, child)
        return child.pid

    def sys_procstat(self, proc, request):
        (pid,) = request.args
        target = self.procs.get(pid)
        if target is None:
            raise SyscallError(errno.ESRCH, "pid %r" % pid)
        return {
            "pid": target.pid,
            "uid": target.uid,
            "state": target.state,
            "stopped": target.stopped,
            "program": target.program_name,
            "meter_flags": target.meter_flags,
        }

    def sys_hasaccount(self, proc, request):
        (uid,) = request.args
        return uid == 0 or uid in self.accounts

    def sys_reparent(self, proc, request):
        """Adopt a running process: its termination report will go to
        the caller (init-style adoption; lets a restarted meterdaemon
        hear the SIGCHLD of children its predecessor forked)."""
        (pid,) = request.args
        if proc.uid != 0:
            raise SyscallError(errno.EPERM, "reparent is root-only")
        target = self.procs.get(pid)
        if target is None or target.state == defs.PROC_ZOMBIE:
            raise SyscallError(errno.ESRCH, "pid %r" % pid)
        old_parent = self.procs.get(target.ppid)
        if old_parent is not None:
            old_parent.children.discard(pid)
        target.ppid = proc.pid
        proc.children.add(pid)
        return 0

    def sys_execv(self, proc, request):
        path, argv = request.args
        node = self.fs.lookup(path, proc.uid, want="exec")
        program_name = node.program or bytes(node.data).decode("ascii").strip()
        main = self.registry.resolve(program_name)
        if proc.gen is not None:
            proc.gen.close()
        proc.gen = None
        proc.main = main
        proc.program_name = program_name
        proc.argv = list(argv)
        # The metering state survives exec: an acquired rexec-style
        # server stays metered across the images it runs (Section 3.2).
        return self.EXECED

    def sys_exit(self, proc, request):
        (status,) = request.args
        self.proc_exit(proc, status=status, reason=defs.EXIT_NORMAL)
        return self.EXITED

    def sys_getpid(self, proc, request):
        return proc.pid

    def sys_getuid(self, proc, request):
        return proc.uid

    def sys_kill(self, proc, request):
        pid, sig = request.args
        target = self.procs.get(pid)
        if target is None or target.state == defs.PROC_ZOMBIE:
            raise SyscallError(errno.ESRCH, "pid %r" % pid)
        if proc.uid != 0 and proc.uid != target.uid:
            raise SyscallError(errno.EPERM, "pid %r" % pid)
        self.post_signal(target, sig)
        return 0

    def sys_gettimeofday(self, proc, request):
        return self.clock.local_time(self.sim.now)

    def sys_random(self, proc, request):
        return self.sim.rng.random()

    def sys_log(self, proc, request):
        (message,) = request.args
        self.console_log(proc, message)
        return 0

    def sys_setmeter(self, proc, request):
        return self.meter.sys_setmeter(proc, request)

    def sys_meterstat(self, proc, request):
        return self.meter.sys_meterstat(proc, request)

    def sys_meterdrain(self, proc, request):
        return self.meter.sys_meterdrain(proc, request)

    def sys_hosttable(self, proc, request):
        return self.host_table.names_by_id()

    def sys_hostname(self, proc, request):
        return self.host.name

    # ------------------------------------------------------------------
    # Blocking waits
    # ------------------------------------------------------------------

    def sys_sleep(self, proc, request):
        (ms,) = request.args
        if proc.wake_deadline is None:
            self._schedule_timeout_wake(proc, ms)
        if self.sim.now + 1e-9 >= proc.wake_deadline:
            return 0
        return self.block(proc, request, [])

    def sys_select(self, proc, request):
        read_fds, timeout_ms, want_children, want_meter_loss = request.args
        if want_meter_loss and proc.uid != 0:
            raise SyscallError(
                errno.EPERM, "select(want_meter_loss) is root-only"
            )
        if timeout_ms is not None and proc.wake_deadline is None:
            self._schedule_timeout_wake(proc, timeout_ms)

        # One pass: look up each fd (EBADF before anything returns),
        # test it, and note the queue a block would wait on.  Plain
        # files never block and have no queue.
        lookup = proc.lookup_fd
        ready = []
        queues = []
        for fd in read_fds:
            entry = lookup(fd)
            if entry.kind in _WAITABLE_KINDS:
                obj = entry.obj
                if obj.readable():
                    ready.append(fd)
                queues.append(obj.rd_wait)
            else:
                ready.append(fd)
        events = []
        if want_children:
            while proc.child_events:
                events.append(proc.child_events.popleft())
        if want_meter_loss:
            while self.meter.lost_meters:
                events.append(self.meter.lost_meters.popleft())
        if ready or events:
            return (ready, events)
        if timeout_ms is not None and self.sim.now + 1e-9 >= proc.wake_deadline:
            return ([], [])

        if want_children:
            queues.append(proc.child_wait)
        if want_meter_loss:
            queues.append(self.meter.lost_wait)
        return self.block(proc, request, queues)

    def _schedule_timeout_wake(self, proc, delay_ms):
        """Start a timed wait: ``proc.wake_deadline`` is when the
        blocked call gives up.  A process owns at most one queued timer
        event; one already due at or before the deadline is left alone
        and re-arms itself when it fires."""
        deadline = proc.wake_deadline = self.sim.now + delay_ms
        timer = proc.wake_timer
        if timer is not None:
            if timer[0] <= deadline:
                return
            self.sim.cancel(timer[1])
        proc.wake_timer = (
            deadline, self.sim.schedule(delay_ms, self._timeout_wake, proc)
        )

    def _timeout_wake(self, proc):
        proc.wake_timer = None
        deadline = proc.wake_deadline
        if deadline is None:
            return  # the wait it was armed for already finished
        remaining = deadline - self.sim.now
        if remaining > 1e-9:
            # Armed for an earlier wait that returned early; the
            # process is now in a later one.
            proc.wake_timer = (
                deadline, self.sim.schedule(remaining, self._timeout_wake, proc)
            )
        else:
            self.wake(proc)

    def _cancel_timeout_wake(self, proc):
        """A dead process leaves no timer behind, so an emptied event
        queue means the cluster is quiescent."""
        if proc.wake_timer is not None:
            self.sim.cancel(proc.wake_timer[1])
            proc.wake_timer = None

    # ------------------------------------------------------------------
    # Remote file copy (the controller's system("rcp ...") stand-in)
    # ------------------------------------------------------------------

    def sys_rcp(self, proc, request):
        src_host_name, src_path, dst_host_name, dst_path = request.args
        state = proc.syscall_state
        if proc.wake_deadline is None:
            src_machine = self.machine_for(src_host_name)
            node = src_machine.fs.lookup(src_path, proc.uid, want="read")
            state["payload"] = (
                bytes(node.data),
                node.program,
                node.mode,
            )
            transfer_ms = self.network.params.base_latency_ms * 2 + (
                len(node.data) / max(self.network.params.bandwidth_bytes_per_ms, 1.0)
            )
            self._schedule_timeout_wake(proc, transfer_ms)
        if self.sim.now + 1e-9 < proc.wake_deadline:
            return self.block(proc, request, [])
        dst_machine = self.machine_for(dst_host_name)
        data, program, mode = state["payload"]
        dst_machine.fs.install(
            dst_path, data=data, owner=proc.uid, mode=mode, program=program
        )
        return 0
