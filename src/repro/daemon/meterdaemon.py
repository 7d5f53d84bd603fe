"""The meterdaemon guest program (Section 3.5).

Main loop: "A meterdaemon spends most of its time listening for an IPC
connection request from a controller process" -- plus, here, watching
its children (termination notifications) and the per-process I/O
gateway sockets (Section 3.5.2).

Request handling is one-connection-per-exchange: accept, read one
request frame, execute, reply, close ("the stream connection between
the controller and a meterdaemon exists for the duration of a single
exchange of messages").  Each request type has one handler in
``Daemon.HANDLERS``; a handler takes the request body and returns the
reply body, and ``Daemon._serve_request`` alone turns that into a wire
reply.
"""

from repro import guestlib
from repro.daemon import protocol
from repro.filtering.standard import log_path_for
from repro.kernel import defs
from repro.kernel.errno import SyscallError
from repro.metering import flags as mflags
from repro.streaming import protocol as streamproto

#: Well-known port every meterdaemon listens on.
METERDAEMON_PORT = 3425

#: Filter supervision: a supervised filter that dies without the
#: controller asking for it is relaunched after a short backoff, up to
#: the restart budget; then the daemon gives up and reports the death.
FILTER_RESTART_BUDGET = 3
FILTER_RESTART_BACKOFF_MS = 50.0
FILTER_RESTART_BACKOFF_CAP_MS = 400.0

#: Meter redial: when the kernel reports a broken meter connection
#: (select want_meter_loss) the daemon re-dials the filter so the
#: kernel can pump its resend window and drain orphaned batches.  The
#: path may still be severed, so attempts back off exponentially; the
#: budget keeps a never-healing partition from scheduling forever
#: (quiescence), and a controller REMETER can still close the gap
#: later.
METER_REDIAL_BUDGET = 8
METER_REDIAL_BACKOFF_MS = 25.0
METER_REDIAL_BACKOFF_CAP_MS = 400.0
METER_REDIAL_CONNECT_TIMEOUT_MS = 250.0

#: Notification delivery policy: a termination or output report is
#: retried across transient failures (controller briefly unreachable,
#: partition healing) before the daemon gives up on it.
NOTIFY_ATTEMPTS = 4
NOTIFY_BACKOFF_MS = 25.0
NOTIFY_BACKOFF_CAP_MS = 200.0
NOTIFY_CONNECT_TIMEOUT_MS = 1000.0

#: How long the daemon waits for the filter engine's reply before
#: reporting the query failed (the filter answers between meter waits,
#: so this only expires when the filter is wedged or dying).
QUERY_REPLY_TIMEOUT_MS = 2000.0

#: Largest single stdin datagram pushed into a child's gateway.
_STDIN_CHUNK = 512


def meterdaemon(sys, argv):
    """Guest main.  argv: optionally [port]."""
    return Daemon(sys).run(argv)


class Daemon:
    """One meterdaemon and its host-local bookkeeping.  All of it dies
    with the process; a successor rebuilds what matters from the kernel
    (``_sweep_meter_state``) and from the controller (ADOPT)."""

    def __init__(self, sys):
        self.sys = sys
        #: child pid -> {control (host, port), jobname, procname}
        self.children = {}
        #: gateway fd -> child pid (stdio forwarding)
        self.gateways = {}
        #: supervised filter pid -> relaunch spec (program file, argv,
        #: uid, control address, meter port, remaining restart budget)
        self.filters = {}
        #: [due time, spec] pairs for filters awaiting relaunch
        self.pending_restarts = []
        #: pid -> redial job for a broken meter connection: the kernel
        #: told us (select want_meter_loss) that a meter stream died
        #: with batches parked; we re-dial the filter with backoff
        #: until the path heals or the budget runs out.
        self.pending_redials = {}
        #: Boot epoch (sim time at startup), carried by every reply: a
        #: controller that never saw this daemon down can still detect
        #: that it was restarted behind its back and reconcile.
        self.boot_ms = None
        self.requests_served = 0

    def run(self, argv):
        sys = self.sys
        port = int(argv[0]) if argv else METERDAEMON_PORT
        self.boot_ms = yield sys.gettimeofday()

        listen_fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(listen_fd, ("", port))
        yield sys.listen(listen_fd, defs.SOMAXCONN)

        # Startup reconciliation: a predecessor daemon may have died
        # mid-episode, taking its redial bookkeeping with it while the
        # kernel still holds broken meters or spooled orphan batches.  The
        # kernel state, not the (lost) notification, is the ground truth.
        yield from self._sweep_meter_state()

        while True:
            # A filter awaiting relaunch or a meter awaiting redial puts a
            # deadline on the select; otherwise the daemon blocks
            # indefinitely (quiescence: an idle daemon schedules nothing).
            deadlines = [when for when, __ in self.pending_restarts]
            deadlines.extend(job["due"] for job in self.pending_redials.values())
            timeout_ms = None
            if deadlines:
                now = yield sys.gettimeofday()
                timeout_ms = max(0.0, min(deadlines) - now)
            ready, events = yield sys.select(
                [listen_fd] + list(self.gateways),
                timeout_ms=timeout_ms,
                want_children=True,
                want_meter_loss=True,
            )
            # Drain I/O gateways before handling terminations so a child's
            # final output is not lost with its gateway.
            for fd in ready:
                if fd == listen_fd:
                    conn, __ = yield sys.accept(listen_fd)
                    yield from self._serve_request(conn)
                    yield sys.close(conn)
                elif fd in self.gateways:
                    yield from self._forward_output(fd)
            for event in events:
                if event.get("meter_lost"):
                    yield from self._note_meter_loss(event)
                else:
                    yield from self._report_termination(event)
            if self.pending_restarts:
                now = yield sys.gettimeofday()
                due_now = [item for item in self.pending_restarts if item[0] <= now]
                self.pending_restarts = [
                    item for item in self.pending_restarts if item[0] > now
                ]
                for __, spec in due_now:
                    yield from self._relaunch_filter(spec)
            if self.pending_redials:
                now = yield sys.gettimeofday()
                for key in sorted(self.pending_redials, key=str):
                    job = self.pending_redials.get(key)
                    if job is not None and job["due"] <= now:
                        yield from self._redial_meter(job)

    # ------------------------------------------------------------------
    # Notifications (daemon -> controller)
    # ------------------------------------------------------------------

    def _notify(self, address, payload):
        """Send one frame to a controller's notification socket.
        Transient connection failures are retried with capped, jittered
        exponential backoff; hard errors (the controller is really
        gone) abandon the notification, since there is nobody left to
        tell."""
        delay = NOTIFY_BACKOFF_MS
        for attempt in range(NOTIFY_ATTEMPTS):
            __, err = yield from protocol.exchange(
                self.sys, address, payload, NOTIFY_CONNECT_TIMEOUT_MS, reply=False
            )
            if err is None or err.errno not in guestlib.TRANSIENT_ERRNOS:
                return
            if attempt + 1 < NOTIFY_ATTEMPTS:
                yield from guestlib.backoff_sleep(self.sys, delay)
                delay = min(delay * 2.0, NOTIFY_BACKOFF_CAP_MS)

    def _report(self, control, msg_type, **fields):
        """Notify ``control`` of something that happened on this machine."""
        hostname = yield self.sys.hostname()
        payload = protocol.encode(msg_type, machine=hostname, **fields)
        yield from self._notify(control, payload)

    def _report_termination(self, event):
        """SIGCHLD path: tell the responsible controller (Section 3.5.1).

        A supervised filter that dies unexpectedly is not reported dead:
        its relaunch is scheduled instead, and the controller hears a
        FILTER_RESTART_NOTIFY once the replacement is up.  Only when the
        restart budget is exhausted does the death become a termination
        report.
        """
        sys = self.sys
        child = self.children.pop(event["pid"], None)
        if child is None:
            return
        for fd, pid in list(self.gateways.items()):
            if pid == event["pid"]:
                yield sys.close(fd)
                del self.gateways[fd]
        spec = self.filters.pop(event["pid"], None)
        reason = event["reason"]
        if spec is not None:
            if spec["restarts_left"] > 0:
                spec["restarts_left"] -= 1
                now = yield sys.gettimeofday()
                self.pending_restarts.append([now + spec["backoff_ms"], spec])
                spec["backoff_ms"] = min(
                    spec["backoff_ms"] * 2.0, FILTER_RESTART_BACKOFF_CAP_MS
                )
                return
            reason = "{0} (filter restart budget exhausted)".format(reason)
        yield from self._report(
            child["control"],
            protocol.TERMINATION_NOTIFY,
            pid=event["pid"],
            reason=reason,
            status=event["status"],
            jobname=child.get("jobname"),
            procname=child.get("procname"),
        )

    def _forward_output(self, fd):
        """Relay a child's standard output to its controller (3.5.2)."""
        pid = self.gateways[fd]
        data = yield self.sys.read(fd, 2048)
        child = self.children.get(pid)
        if child is None:
            return
        yield from self._report(
            child["control"],
            protocol.OUTPUT_NOTIFY,
            pid=pid,
            procname=child.get("procname"),
            data=data.decode("ascii", "replace"),
        )

    # ------------------------------------------------------------------
    # Filter supervision
    # ------------------------------------------------------------------

    def _adopt_child(self, pid, control, jobname, procname):
        self.children[pid] = {
            "control": control,
            "jobname": jobname,
            "procname": procname,
        }

    @staticmethod
    def _filter_spec(info, log_path, uid, control):
        """What relaunching a filter takes, with a fresh restart budget.
        ``info`` is a CREATE_FILTER body or one ADOPT filter entry."""
        return {
            "filtername": info["filtername"],
            "filterfile": info.get("filterfile", "filter"),
            "argv": [
                info["filtername"],
                log_path,
                info.get("descriptions", "descriptions"),
                info.get("templates", "templates"),
            ],
            "uid": uid,
            "control": control,
            "restarts_left": FILTER_RESTART_BUDGET,
            "backoff_ms": FILTER_RESTART_BACKOFF_MS,
        }

    def _supervise(self, spec, pid, meter_port):
        spec["pid"] = pid
        spec["meter_port"] = meter_port
        self.filters[pid] = spec
        self._adopt_child(pid, spec["control"], None, spec["filtername"])

    def _launch_filter(self, spec):
        """Bind a fresh meter listening socket, start the filter with it
        as its standard input, and supervise the new incarnation."""
        sys = self.sys
        meter_fd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(meter_fd, ("", 0))
        yield sys.listen(meter_fd, defs.SOMAXCONN)
        name = yield sys.getsockname(meter_fd)
        launch = sys.forkexec(
            spec["filterfile"],
            argv=spec["argv"],
            stdio_fd=meter_fd,
            start=True,
            uid=spec["uid"],
        )
        pid = yield from self._then_close(meter_fd, launch)
        self._supervise(spec, pid, name.port)

    def _relaunch_filter(self, spec):
        """Bring a crashed filter back: fresh meter socket, same argv, same
        log path (the filter recovers committed batch sequences from the
        log it extends), then tell the controller about the new incarnation
        so it can re-point meter connections."""
        old_pid, old_port = spec["pid"], spec["meter_port"]
        try:
            yield from self._launch_filter(spec)
        except SyscallError as err:
            # Relaunch impossible (program file gone, no ports): give up
            # and report the filter dead so the controller can react.
            yield from self._report(
                spec["control"],
                protocol.TERMINATION_NOTIFY,
                pid=old_pid,
                reason="filter relaunch failed: {0}".format(err),
                status=-1,
                jobname=None,
                procname=spec["filtername"],
            )
            return
        hostname = yield self.sys.hostname()
        payload = protocol.encode(
            protocol.FILTER_RESTART_NOTIFY,
            filtername=spec["filtername"],
            pid=spec["pid"],
            old_pid=old_pid,
            machine=hostname,
            meter_host=hostname,
            meter_port=spec["meter_port"],
            old_port=old_port,
            restarts_left=spec["restarts_left"],
        )
        yield from self._notify(spec["control"], payload)

    # ------------------------------------------------------------------
    # Meter-connection supervision (self-healing data path)
    # ------------------------------------------------------------------

    def _arm_redial(self, now, key, pid, host, port):
        self.pending_redials[key] = {
            "key": key,
            "pid": pid,
            "host": host,
            "port": port,
            "attempts_left": METER_REDIAL_BUDGET,
            "backoff_ms": METER_REDIAL_BACKOFF_MS,
            "due": now + METER_REDIAL_BACKOFF_MS,
        }

    def _note_meter_loss(self, event):
        """The kernel reports a dead meter connection.  The controller
        cannot be relied on to notice: its health RPCs run over its own
        paths, and a partition can sever kernel->filter while leaving
        controller->daemon intact.  Queue a redial; a repeat loss for the
        same pid re-targets and re-arms the existing job."""
        now = yield self.sys.gettimeofday()
        self._arm_redial(now, event["pid"], event["pid"], event["host"], event["port"])

    def _sweep_meter_state(self):
        """Seed redial jobs from kernel meter state: live processes on a
        broken connection, plus destinations with undelivered orphan
        batches (their process died; only a drain can ship them).  Run at
        startup -- the notification for an episode in progress went to a
        daemon that no longer exists."""
        stats = yield self.sys.meterstat()
        disconnected = stats.get("disconnected", {})
        parked = stats.get("orphans_parked", {})
        if not disconnected and not parked:
            return
        now = yield self.sys.gettimeofday()
        covered = set()
        for pid in sorted(disconnected):
            host, port = disconnected[pid]
            covered.add((host, port))
            self._arm_redial(now, pid, pid, host, port)
        for key in sorted(parked):
            host, __, port = key.rpartition(":")
            if (host, int(port)) in covered:
                continue
            self._arm_redial(now, "drain:" + key, None, host, int(port))

    def _redial_meter(self, job):
        """One redial attempt: if the kernel still wants this destination
        (or holds orphan batches spooled for it), connect a fresh meter
        socket, reinstall it with setmeter (the kernel then retransmits its
        window; the filter dedups), and drain any orphans.  Transient
        connect failures -- the partition has not healed yet -- reschedule
        with backoff until the budget is spent."""
        sys = self.sys
        pid = job["pid"]
        host, port = job["host"], job["port"]
        stats = yield sys.meterstat()
        still_wanted = (
            pid is not None
            and stats.get("disconnected", {}).get(pid) == [host, port]
        )
        parked = stats.get("orphans_parked", {}).get("{0}:{1}".format(host, port), 0)
        if not still_wanted and not parked:
            # Re-aimed elsewhere (REMETER won the race) or nothing left to
            # deliver: the episode is over.
            self.pending_redials.pop(job["key"], None)
            return
        try:
            fd = yield from self._dial_meter(
                host, port, METER_REDIAL_CONNECT_TIMEOUT_MS
            )
        except SyscallError as err:
            job["attempts_left"] -= 1
            if err.errno in guestlib.TRANSIENT_ERRNOS and job["attempts_left"] > 0:
                job["backoff_ms"] = min(
                    job["backoff_ms"] * 2.0, METER_REDIAL_BACKOFF_CAP_MS
                )
                now = yield sys.gettimeofday()
                job["due"] = now + job["backoff_ms"]
            else:
                self.pending_redials.pop(job["key"], None)
            return
        if still_wanted:
            try:
                yield sys.setmeter(pid, mflags.NO_CHANGE, fd)
            except SyscallError:
                pass  # the process died in the gap; the drain below covers it
        if parked:
            yield sys.meterdrain(fd, [port])
        yield sys.close(fd)
        self.pending_redials.pop(job["key"], None)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def _serve_request(self, conn):
        """One request in, one reply out.  The only place a reply's
        type, ``status`` and ``boot`` are set: a handler that returns is
        an ok reply of the request's own type, one that raises is an
        ERROR_REPLY whose status says why."""
        try:
            payload = yield from guestlib.recv_frame(self.sys, conn)
        except SyscallError:
            return  # requester's machine died mid-request
        if payload is None:
            return
        self.requests_served += 1
        reply_type = protocol.ERROR_REPLY
        try:
            msg_type, body = protocol.decode(payload)
            handler = self.HANDLERS.get(msg_type)
            if handler is None:
                reply = {"status": "unknown request type %r" % msg_type}
            else:
                reply = (yield from handler(self, body)) or {}
                reply["status"] = protocol.OK
                reply_type = protocol.REPLY_FOR[msg_type]
        except SyscallError as err:
            reply = {"status": str(err)}
        except Exception as err:  # malformed frame/body: survive it
            reply = {"status": "bad request: %s" % err}
        # Every reply carries this daemon's boot epoch: the controller
        # compares it across exchanges to catch a daemon that died and was
        # replaced entirely between two of its heartbeats.
        reply["boot"] = self.boot_ms
        try:
            yield from guestlib.send_frame(
                self.sys, conn, protocol.encode(reply_type, **reply)
            )
        except SyscallError:
            pass  # requester hung up before the reply; nothing to do

    def _check_account(self, uid):
        allowed = yield self.sys.hasaccount(uid)
        if not allowed:
            raise SyscallError(1, "uid %d has no account on this machine" % uid)

    def _require_same_user(self, uid, pid):
        stat = yield self.sys.procstat(pid)
        if uid != 0 and stat["uid"] != uid:
            raise SyscallError(1, "process %d belongs to uid %d" % (pid, stat["uid"]))

    def _dial_meter(self, host, port, timeout_ms=None):
        """Create the kernel end of a meter connection: a stream socket in
        the Internet domain, connected to the filter (Section 4.1).  A
        failed connect costs the daemon no descriptor."""
        fd = yield self.sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        try:
            yield self.sys.connect(fd, (host, port), timeout_ms)
        except SyscallError:
            yield self.sys.close(fd)
            raise
        return fd

    def _then_close(self, fd, request):
        """Make one syscall that hands ``fd`` to the kernel or a child,
        then close the daemon's copy whether it succeeded or not.  Not a
        ``finally``: the kernel close()s a killed guest's generator, and
        a yield while it unwinds is an error."""
        try:
            result = yield request
        except SyscallError:
            yield self.sys.close(fd)
            raise
        yield self.sys.close(fd)
        return result

    def _meter(self, pid, flags, body):
        """Point ``pid``'s meter at the filter a request names."""
        fd = yield from self._dial_meter(body["filter_host"], body["filter_port"])
        yield from self._then_close(fd, self.sys.setmeter(pid, flags, fd))

    def _handle_create(self, body):
        """Type 11: create a (suspended) metered process."""
        sys = self.sys
        uid = body["uid"]
        yield from self._check_account(uid)
        # Read what the body must carry before anything exists to roll back.
        filename = body["filename"]
        control = (body["control_host"], body["control_port"])

        # The I/O gateway: a local datagram pair, one end the child's stdio
        # (Section 3.5.2: datagrams "are reliable when used within a single
        # machine").
        gw_daemon, gw_child = yield sys.socketpair(defs.AF_UNIX, defs.SOCK_DGRAM)
        pid = None
        try:
            fork = sys.forkexec(
                filename,
                argv=body.get("params", []),
                stdio_fd=gw_child,
                start=False,
                uid=uid,
            )
            pid = yield from self._then_close(gw_child, fork)
            if body.get("filter_host"):
                yield from self._meter(pid, body.get("meter_flags", 0), body)
        except SyscallError:
            # The reply will say "not created", so nothing may be left
            # behind: no gateway, no suspended child nobody can name.
            yield sys.close(gw_daemon)
            if pid is not None:
                yield sys.kill(pid, defs.SIGKILL)
            raise

        self._adopt_child(pid, control, body.get("jobname"), body.get("procname"))
        self.gateways[gw_daemon] = pid
        return {"pid": pid}

    def _handle_create_filter(self, body):
        """Type 12: create a filter process.

        The daemon binds the meter listening socket and installs it as the
        filter's standard input, then reports the socket's port so the
        controller can hand (literal host, port) to other daemons
        (Section 3.5.4).
        """
        uid = body["uid"]
        yield from self._check_account(uid)
        log_path = log_path_for(
            body["filtername"],
            directory=body.get("log_directory"),
            log_format=body.get("log_format", "text"),
        )
        spec = self._filter_spec(
            body, log_path, uid, (body["control_host"], body["control_port"])
        )
        yield from self._launch_filter(spec)
        hostname = yield self.sys.hostname()
        return {
            "pid": spec["pid"],
            "meter_host": hostname,
            "meter_port": spec["meter_port"],
            "log_path": log_path,
        }

    def _handle_setflags(self, body):
        """Type 13: change a process's meter flags."""
        yield from self._require_same_user(body["uid"], body["pid"])
        yield self.sys.setmeter(body["pid"], body["flags"], mflags.NO_CHANGE)

    def _handle_signal(self, body):
        """Type 14: start/stop/kill via a signal.

        A SIGKILL aimed at a supervised filter is a deliberate removal
        (controller exit, removejob): the supervision entry is dropped
        first so the death is reported, not answered with a relaunch.
        """
        yield from self._require_same_user(body["uid"], body["pid"])
        if body["sig"] == defs.SIGKILL:
            self.filters.pop(body["pid"], None)
        yield self.sys.kill(body["pid"], body["sig"])

    def _handle_acquire(self, body):
        """Type 15: meter an already-running process (Section 4.3 acquire).

        "no changes are made to the handling of the processes' I/O ...
        monitoring is transparent to the executing processes."
        """
        uid = body["uid"]
        yield from self._check_account(uid)
        yield from self._require_same_user(uid, body["pid"])
        yield from self._meter(body["pid"], body.get("meter_flags", 0), body)

    def _handle_unmeter(self, body):
        """Type 16: take down a process's meter connection (removejob of an
        acquired process: it "will not continue to be metered ... but the
        process continues to execute")."""
        yield from self._require_same_user(body["uid"], body["pid"])
        yield self.sys.setmeter(body["pid"], mflags.NONE, mflags.SOCK_NONE)

    def _handle_getlog(self, body):
        """Type 17: return a filter log file's content."""
        content = yield from guestlib.read_whole_file(self.sys, body["path"])
        return {"content": content}

    def _handle_stdin(self, body):
        """Type 25: standard input for a child (Section 3.5.2).

        Two variants: ``data`` carries literal user input ("The reverse
        path is traversed when sending standard input from the user to the
        process"); ``path`` names a local file that the daemon opens and
        redirects into the process ("The file is then opened by the
        meterdaemon, which redirects to it the standard input").
        """
        pid = body["pid"]
        gw_fd = next(
            (fd for fd, child in self.gateways.items() if child == pid), None
        )
        if gw_fd is None:
            raise SyscallError(3, "no gateway for pid %d" % pid)
        if body.get("path") is not None:
            content = yield from guestlib.read_whole_file(self.sys, body["path"])
            data = content.encode("ascii")
        else:
            data = body.get("data", "").encode("ascii")
        for start in range(0, len(data), _STDIN_CHUNK):
            yield self.sys.write(gw_fd, data[start : start + _STDIN_CHUNK])

    def _handle_ping(self, body):
        """Type 27: liveness probe (controller heartbeat).  Deliberately
        does almost nothing; the serve loop stamps the reply with the boot
        epoch, which is what lets the controller notice a daemon that was
        restarted behind its back."""
        now = yield self.sys.gettimeofday()
        return {
            "time": now,
            "children": len(self.children),
            "filters": len(self.filters),
            "requests_served": self.requests_served,
        }

    def _handle_status(self, body):
        """Type 32: daemon census plus kernel metering-loss counters.

        ``dropped_by_pid`` comes from meterstat(2) (the daemon runs as
        root), so the controller can surface per-process event loss in
        ``jobs`` without any new kernel/controller path.
        """
        stats = yield self.sys.meterstat()
        return {
            "children": [
                {
                    "pid": pid,
                    "jobname": info.get("jobname"),
                    "procname": info.get("procname"),
                }
                for pid, info in sorted(self.children.items())
            ],
            "filters": [
                {
                    "pid": pid,
                    "filtername": spec["filtername"],
                    "meter_port": spec["meter_port"],
                    "restarts_left": spec["restarts_left"],
                }
                for pid, spec in sorted(self.filters.items())
            ],
            "events_recorded": stats["events_recorded"],
            "events_dropped": stats["events_dropped"],
            "dropped_by_pid": stats["dropped_by_pid"],
            "orphan_batches": stats["orphan_batches"],
            "requests_served": self.requests_served,
        }

    def _handle_remeter(self, body):
        """Type 34: re-point meter connections at a relaunched filter.

        For every listed (pid, flags) still alive, a fresh meter socket is
        connected and installed with setmeter -- the kernel then
        retransmits its unacknowledged batch window, which the filter
        dedups.  Batches the kernel spooled for processes that died while
        the filter was down are redelivered with meterdrain(2) against the
        filter's previous port numbers.
        """
        sys = self.sys
        uid = body["uid"]
        yield from self._check_account(uid)
        remetered, dead = [], []
        for record in body.get("records", []):
            pid = record["pid"]
            try:
                yield from self._require_same_user(uid, pid)
                yield from self._meter(pid, record.get("flags", 0), body)
            except SyscallError:
                dead.append(pid)
                continue
            remetered.append(pid)
        drained = 0
        old_ports = [int(port) for port in body.get("old_ports", [])]
        if old_ports:
            drain_fd = yield from self._dial_meter(
                body["filter_host"], body["filter_port"]
            )
            drained = yield sys.meterdrain(drain_fd, old_ports)
            yield sys.close(drain_fd)
        return {"remetered": remetered, "dead": dead, "drained": drained}

    def _handle_adopt(self, body):
        """Type 36: re-register children after a daemon or controller
        restart (the census behind the controller's ``resume``).

        Each listed child still alive is adopted -- reparented to this
        daemon so its termination report arrives here, and re-recorded with
        the requesting controller's (new) notification address.  Dead pids
        are reported back so the controller can mark them killed.  Filters
        are re-entered under supervision with a fresh restart budget.
        """
        sys = self.sys
        uid = body["uid"]
        yield from self._check_account(uid)
        control = (body["control_host"], body["control_port"])
        alive, dead = [], []
        for child in body.get("children", []):
            pid = child["pid"]
            try:
                yield sys.reparent(pid)
            except SyscallError:
                dead.append(pid)
                continue
            self._adopt_child(
                pid, control, child.get("jobname"), child.get("procname")
            )
            alive.append(pid)
        filters_alive, filters_dead = [], []
        for info in body.get("filters", []):
            try:
                yield sys.reparent(info["pid"])
            except SyscallError:
                filters_dead.append(info["filtername"])
                continue
            self._supervise(
                self._filter_spec(info, info["log_path"], uid, control),
                info["pid"],
                info["meter_port"],
            )
            filters_alive.append(info["filtername"])
        return {
            "alive": alive,
            "dead": dead,
            "filters_alive": filters_alive,
            "filters_dead": filters_dead,
        }

    def _handle_query(self, body):
        """Types 39 and 41: relay one live-analysis query (a statistics
        snapshot / digest, or continuous-query add/remove/poll/list) to
        the named filter's streaming engine, over the filter's own meter
        port (so the query reaches exactly the incarnation currently
        committing records)."""
        sys = self.sys
        filtername = body.get("filtername")
        spec = next(
            (s for s in self.filters.values() if s["filtername"] == filtername), None
        )
        if spec is None:
            raise SyscallError(3, "no filter named %r on this machine" % filtername)
        hostname = yield sys.hostname()
        fd = yield from self._dial_meter(hostname, spec["meter_port"])
        try:
            yield sys.write(fd, streamproto.encode_query(body.get("query") or {}))
            payload = yield from guestlib.recv_frame_timeout(
                sys, fd, QUERY_REPLY_TIMEOUT_MS
            )
        except SyscallError:
            yield sys.close(fd)
            raise
        yield sys.close(fd)
        return {"result": streamproto.parse_reply(payload)}

    #: Request type -> handler(self, body) returning the reply body.
    HANDLERS = {
        protocol.CREATE_REQ: _handle_create,
        protocol.CREATE_FILTER_REQ: _handle_create_filter,
        protocol.SETFLAGS_REQ: _handle_setflags,
        protocol.SIGNAL_REQ: _handle_signal,
        protocol.ACQUIRE_REQ: _handle_acquire,
        protocol.UNMETER_REQ: _handle_unmeter,
        protocol.GETLOG_REQ: _handle_getlog,
        protocol.STDIN_REQ: _handle_stdin,
        protocol.PING_REQ: _handle_ping,
        protocol.STATUS_REQ: _handle_status,
        protocol.REMETER_REQ: _handle_remeter,
        protocol.ADOPT_REQ: _handle_adopt,
        protocol.STATS_REQ: _handle_query,
        protocol.WATCH_REQ: _handle_query,
    }
