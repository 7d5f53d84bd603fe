"""The controller guest program: the users' interface (Section 4.3).

Runs on the machine the programmer chose, reads commands from the
terminal (or from sourced scripts), performs them by RPC to the
meterdaemons, and reports asynchronous state changes ("DONE: process B
in job 'foo' terminated: reason: normal").
"""

import json

from repro import guestlib
from repro.controller import health, journal, states
from repro.controller.model import FilterInfo, Job, ProcessRecord
from repro.daemon import protocol
from repro.daemon.meterdaemon import METERDAEMON_PORT
from repro.kernel import defs
from repro.kernel.errno import SyscallError, errno_name
from repro.metering import flags as mflags
from repro.streaming.engine import format_firing, format_snapshot
from repro.streaming.queries import QUERY_KINDS

PROMPT = "<Control> "

#: What ``HealthMonitor.note_success``'s verdict tells the user.
_ANSWER_WARNINGS = {
    "recovered": "WARNING: meterdaemon on '{0}' is responding again",
    "restarted": "WARNING: meterdaemon on '{0}' was restarted between "
    "heartbeats; reconciling",
}

DEFAULT_FILTER_FILE = "filter"
DEFAULT_DESCRIPTIONS = "descriptions"
DEFAULT_TEMPLATES = "templates"
MAX_SOURCE_DEPTH = 16

#: Characters allowed in command parameters (Section 4.3 plus '-' for
#: flag resets and '_' for file names).
_PARAM_CHARS = set(
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ/.-_*"
)

#: The live-analysis commands additionally take rule/comparison
#: characters (watch specifications such as ``rule=type=send,msgLength>=400``).
_WATCH_PARAM_CHARS = _PARAM_CHARS | set("=<>!,:")

HELP_TEXT = """\
Commands:
  help                                           this menu
  filter [<name> [<machine> [<file> [<descr> [<templates>]]]]]
                                                 create or list filters
  newjob <jobname> [<filtername>]                create a job
  addprocess <jobname> <machine> <file> [<parms>...]   add a process
  acquire <jobname> <machine> <pid>              meter a running process
  setflags <jobname> <flag1> [<flag2>...]        set metering flags
  startjob <jobname>                             start the job
  stopjob <jobname>                              stop the job
  removejob <jobname>                            remove the job
  removeprocess <jobname> <procname>             remove one process
  jobs [<jobname>...]                            show job status
  getlog <filtername> <destfile>                 fetch a trace file
  source <filename>                              run a command script
  sink [<filename>]                              redirect output
  input <jobname> <procname> <word>...           send a line to a
                                                 process' standard input
  stdinfile <jobname> <procname> <filename>      redirect a file into a
                                                 process' standard input
  stats [<filtername>] [digest]                  live statistics from the
                                                 filter's streaming engine
  watch add [<filtername>] <kind> [<k>=<v>...]   register a continuous
                                                 query (kinds: undelivered
                                                 pattern quiet rate)
  watch [poll]                                   report new watch firings
  watch list                                     list registered watches
  watch rm <id>                                  remove a watch
  resume [<journalfile>]                         rebuild the session of a
                                                 crashed controller
  die                                            exit the controller
Metering flags:
  fork termproc send receivecall receive socket dup destsocket
  accept connect all immediate  (prefix '-' to reset)"""


class _InputSource:
    def __init__(self, fd, is_tty):
        self.fd = fd
        self.is_tty = is_tty
        self.buffered = [b""]


#: RPC policy: per-call deadline, bounded retries on transient errors,
#: and per-machine health so a dead daemon degrades the machine instead
#: of wedging every later command behind full retry cycles.
RPC_DEADLINE_MS = 1500.0
RPC_ATTEMPTS = 3
RPC_BACKOFF_MS = 40.0
RPC_BACKOFF_CAP_MS = 320.0


def controller(sys, argv):
    """Guest main for the control process."""
    return Controller(sys).run(argv)


class Controller:
    """One control process: the effects half of the session.

    What a crash must not lose lives in ``session`` (a
    :class:`~repro.controller.journal.SessionState`) and changes only
    through :meth:`record`, which applies a journal entry and appends
    it -- the same ``apply`` that ``resume`` folds over the file.
    Everything else here dies with the process and is observed again
    by its successor: sockets and file descriptors, what the daemons
    last said about themselves, and debts owed to unreachable machines.
    """

    def __init__(self, sys):
        self.sys = sys
        self.session = journal.SessionState()
        self.uid = None
        self.hostname = None
        #: Per-session log placement (argv; None means the daemon's
        #: default /usr/tmp) and format ("text" or "store").
        self.log_directory = None
        self.log_format = "text"
        self.notify_listen = None
        self.notify_port = None
        #: notify conn fd -> reassembly buffer
        self.notify_buffers = {}
        #: One record per machine's daemon: health state, probe clock,
        #: boot epoch and owed drains.
        self.health = health.HealthMonitor()
        self.input_stack = []
        self.sink_fd = None  # output file fd, or None for the terminal
        #: Per-filter poll cursors into the engine's firing sequence.
        self.watch_seqs = {}
        #: Session journal (opened lazily; -1 means unavailable).
        self.journal_fd = None
        self.die_warned = False
        self.dead = False

    def run(self, argv):
        sys = self.sys
        self.uid = yield sys.getuid()
        self.hostname = yield sys.hostname()
        if len(argv) > 1 and argv[1]:
            self.log_directory = argv[1]
        if len(argv) > 2 and argv[2]:
            self.log_format = argv[2]

        # The notification socket: daemons connect here to report process
        # state changes (Section 3.5.1).
        nfd = yield sys.socket(defs.AF_INET, defs.SOCK_STREAM)
        yield sys.bind(nfd, ("", 0))
        yield sys.listen(nfd, defs.SOMAXCONN)
        self.notify_listen = nfd
        name = yield sys.getsockname(nfd)
        self.notify_port = name.port

        self.input_stack.append(_InputSource(0, is_tty=True))

        while not self.dead:
            source = self.input_stack[-1]
            if source.is_tty:
                line = yield from self._read_tty_line(source)
            else:
                yield from self._poll_notifications()
                line = yield from guestlib.read_line(sys, source.fd, source.buffered)
                if line is None:
                    yield sys.close(source.fd)
                    self.input_stack.pop()
                    continue
            yield from self._dispatch(line)
        yield sys.exit(0)

    # ------------------------------------------------------------------
    # Session state and output
    # ------------------------------------------------------------------

    def record(self, op, **fields):
        """Apply one entry to the session and append it to the journal
        -- the only way session state changes.  The append is
        best-effort: a session with no writable journal still runs, it
        just cannot be resumed after a controller crash."""
        entry = dict(fields, op=op)
        self.session.apply(entry)
        if self.journal_fd is None:
            try:
                self.journal_fd = yield self.sys.open(
                    journal.journal_path(self.log_directory), "a"
                )
            except SyscallError:
                self.journal_fd = -1
        if self.journal_fd == -1:
            return
        line = journal.encode_entry(**entry)
        yield self.sys.write(self.journal_fd, line.encode("ascii"))

    def record_state(self, job, record, state):
        """Journal a process state change.  Entries carry machine and pid
        besides the procname: two processes of one job may share a program
        name (the paper's DONE lines name only the program), and a replay
        that resolves by name alone can mark the wrong record -- the
        resumed controller then re-reports a death it already reported."""
        yield from self.record(
            "state",
            jobname=job.name,
            procname=record.procname,
            machine=record.machine,
            pid=record.pid,
            state=state,
        )

    def report_death(self, machine, pid, reason):
        """A process is gone: mark it killed and say so, once."""
        job, record = self.session.find_record(machine, pid)
        if record is None or record.state == states.KILLED:
            # Unknown pid, or a duplicate: the daemon retries notifications
            # and the reconcile path may already have reported this death.
            return
        yield from self.record_state(job, record, states.KILLED)
        yield from self.emit(
            "DONE: process {0} in job '{1}' terminated: reason: {2}",
            record.procname,
            job.name,
            reason,
        )

    def _filter_gone(self, info, reason):
        yield from self.emit(
            "DONE: filter '{0}' terminated: reason: {1}", info.name, reason
        )
        yield from self.record("filter-gone", name=info.name)

    def emit(self, text, *args):
        if args:
            text = text.format(*args)
        fd = self.sink_fd if self.sink_fd is not None else 1
        yield self.sys.write(fd, (text + "\n").encode("ascii"))

    def _find_job(self, name):
        """The named job, or None after saying there is none."""
        job = self.session.jobs.get(name)
        if job is None:
            yield from self.emit("no job '{0}'", name)
        return job

    def _watched_machines(self):
        """Machines hosting a piece of the session (a filter or a live
        process record), plus machines owing a remeter: the heartbeat set.
        A machine whose processes all died can still hold their final
        batches spooled in its kernel -- it must stay probed until its
        daemon comes back and the drain succeeds."""
        watched = {info.machine for info in self.session.filters.values()}
        for job in self.session.jobs.values():
            for record in job.processes:
                if record.state != states.KILLED:
                    watched.add(record.machine)
        watched.update(self.health.owing())
        return watched

    # ------------------------------------------------------------------
    # Input and notifications
    # ------------------------------------------------------------------

    def _read_tty_line(self, source):
        """Prompt, then wait for a command while servicing notifications
        and running the daemon liveness schedule.

        The select timeout is the next heartbeat or recovery-probe
        deadline; when every watched machine is dormant (session idle, no
        degraded machines mid-episode) it is None and the controller
        blocks -- the quiescence the simulator's settle() depends on.
        """
        sys = self.sys
        yield sys.write(1, PROMPT.encode("ascii"))
        while True:
            now = yield sys.gettimeofday()
            watched = self._watched_machines()
            for machine in watched:
                self.health.watch(machine, now)
            deadline = self.health.next_wakeup(watched)
            timeout_ms = None if deadline is None else max(0.0, deadline - now)
            fds = [source.fd, self.notify_listen] + list(self.notify_buffers)
            ready, __ = yield sys.select(fds, timeout_ms=timeout_ms)
            yield from self._handle_notification_fds(ready)
            if source.fd in ready:
                line = yield from guestlib.read_line(sys, source.fd, source.buffered)
                if line is None:
                    return "die"  # control-D
                return line
            now = yield sys.gettimeofday()
            for machine in self.health.due(now, self._watched_machines()):
                yield from self._probe_machine(machine)

    def _poll_notifications(self):
        fds = [self.notify_listen] + list(self.notify_buffers)
        ready, __ = yield self.sys.select(fds, timeout_ms=0)
        yield from self._handle_notification_fds(ready)

    def _handle_notification_fds(self, ready):
        sys = self.sys
        for fd in ready:
            if fd == self.notify_listen:
                conn, __ = yield sys.accept(self.notify_listen)
                self.notify_buffers[conn] = b""
            elif fd in self.notify_buffers:
                try:
                    data = yield sys.read(fd, 4096)
                except SyscallError:
                    data = b""  # daemon's machine died mid-notification
                buf = self.notify_buffers[fd] + data
                while data and len(buf) >= 4:
                    length = int.from_bytes(buf[:4], "big")
                    if length > guestlib.MAX_FRAME_BYTES:
                        # No daemon sends that (its recv_frame refuses
                        # one): hang up instead of holding a descriptor.
                        data = b""
                        break
                    if len(buf) - 4 < length:
                        break
                    payload = buf[4 : 4 + length]
                    buf = buf[4 + length :]
                    yield from self._handle_notification(payload)
                if data:
                    self.notify_buffers[fd] = buf
                else:
                    yield sys.close(fd)
                    del self.notify_buffers[fd]

    def _handle_notification(self, payload):
        try:
            msg_type, body = protocol.decode(payload)
        except Exception:
            return  # junk on the notification port; ignore it
        if msg_type == protocol.TERMINATION_NOTIFY:
            yield from self._on_termination(body)
        elif msg_type == protocol.FILTER_RESTART_NOTIFY:
            yield from self._on_filter_restart(body)
        elif msg_type == protocol.OUTPUT_NOTIFY:
            text = body.get("data", "").rstrip("\n")
            for line in text.splitlines():
                yield from self.emit("{0}: {1}", body.get("procname"), line)

    def _on_termination(self, body):
        machine, pid = body.get("machine"), body.get("pid")
        # A filter died?
        for info in list(self.session.filters.values()):
            if info.machine == machine and info.pid == pid:
                yield from self._filter_gone(info, body.get("reason"))
                return
        yield from self.report_death(machine, pid, body.get("reason"))

    def _on_filter_restart(self, body):
        """The meterdaemon relaunched a crashed filter (its supervision
        duty): adopt the replacement and repoint every meter at it."""
        info = self.session.filters.get(body.get("filtername"))
        if info is None or info.machine != body.get("machine"):
            return
        if info.pid != body.get("old_pid") and info.pid != body.get("pid"):
            return  # stale notification for a generation we no longer track
        yield from self._filter_relaunched(
            info, body.get("old_port", info.meter_port), body
        )

    # ------------------------------------------------------------------
    # RPC to meterdaemons
    # ------------------------------------------------------------------

    def _daemon_answered(self, machine, body):
        """Record a successful exchange (RPC or probe) and reconcile
        session state with the daemon when it is not the one we knew:
        it was degraded (it may be brand-new), or the boot epoch every
        reply carries changed on a machine we believed healthy -- the
        daemon was replaced inside one heartbeat interval, and the
        replacement has empty state and must re-adopt this machine's
        share of the session (and report any child that died in the
        gap)."""
        now = yield self.sys.gettimeofday()
        change = self.health.note_success(machine, now, body.get("boot"))
        if change is None:
            return
        yield from self.emit(_ANSWER_WARNINGS[change], machine)
        yield from self._reconcile_machine(machine)

    def _note_failure(self, machine):
        """Record a failed exchange (the caller already spent its retry
        budget); emit the warning on a healthy->degraded transition."""
        now = yield self.sys.gettimeofday()
        if self.health.note_failure(machine, now):
            yield from self.emit(
                "WARNING: meterdaemon on '{0}' is not responding; "
                "marking machine degraded",
                machine,
            )

    def rpc(self, machine, msg_type, **body):
        """One controller/daemon exchange (Section 3.5.1).

        Returns (ok, reply body): ok means the daemon answered with the
        request's own reply type and an ok status (it sends every
        failure as an ERROR_REPLY); connection problems surface the same
        way, with a ``status`` to print, so command handlers report
        rather than crash.

        Robustness: each attempt carries a connect/receive deadline, and
        transient failures (daemon not up yet, path severed) are retried
        with jittered exponential backoff.  Outcomes feed the shared
        :class:`~repro.controller.health.HealthMonitor`: a machine whose
        daemon exhausts the retry budget is marked *degraded* -- later RPCs
        to it fast-fail after a single attempt, and liveness probes take
        over until one succeeds again.  A daemon that hangs up mid-exchange
        is NOT retried -- the request may already have executed (e.g. the
        process may have been created), and repeating it could duplicate
        the side effect.
        """
        body.setdefault("uid", self.uid)
        body.setdefault("control_host", self.hostname)
        body.setdefault("control_port", self.notify_port)
        request = protocol.encode(msg_type, **body)
        now = yield self.sys.gettimeofday()
        self.health.note_activity(now)
        payload, err = yield from guestlib.retry(
            self.sys,
            1 if self.health.is_degraded(machine) else RPC_ATTEMPTS,
            RPC_BACKOFF_MS,
            RPC_BACKOFF_CAP_MS,
            protocol.exchange,
            self.sys,
            (machine, METERDAEMON_PORT),
            request,
            RPC_DEADLINE_MS,
        )
        if err is not None:
            yield from self._note_failure(machine)
            status = "no meterdaemon on '{0}' ({1})"
            return False, {"status": status.format(machine, errno_name(err.errno))}
        if payload is None:
            # Mid-exchange hangup: ambiguous outcome, never retried,
            # and no health transition -- the daemon was reachable.
            return False, {"status": "daemon closed the connection"}
        reply_type, reply = protocol.decode(payload)
        yield from self._daemon_answered(machine, reply)
        ok = reply_type == protocol.REPLY_FOR[msg_type] and protocol.is_ok(reply)
        return ok, reply

    def _probe_machine(self, machine):
        """One liveness ping (Section 3.5.1's exchange, minimal body).

        Single attempt: the probe schedule itself is the retry loop, with
        the HealthMonitor's backoff between episodes.  Silent except for
        health transitions, so an all-healthy session produces no output.
        """
        request = protocol.encode(
            protocol.PING_REQ,
            uid=self.uid,
            control_host=self.hostname,
            control_port=self.notify_port,
        )
        payload, __ = yield from protocol.exchange(
            self.sys, (machine, METERDAEMON_PORT), request, health.PROBE_DEADLINE_MS
        )
        if payload is None:
            yield from self._note_failure(machine)
            return
        try:
            __, body = protocol.decode(payload)
        except Exception:
            body = {}
        yield from self._daemon_answered(machine, body)

    # ------------------------------------------------------------------
    # Recovery: reconcile, respawn, repoint
    # ------------------------------------------------------------------

    def _reconcile_machine(self, machine):
        """A machine came back (healed partition, restarted daemon or
        controller): have its daemon adopt the session's processes and
        filters, square our records with what actually survived, then
        REMETER each filter whose meters or spools there may be stale."""
        session = self.session
        children = [
            {
                "pid": record.pid,
                "jobname": record.jobname,
                "procname": record.procname,
                "flags": record.flags,
            }
            for record in session.records_on(machine)
            if record.state != states.KILLED
        ]
        filter_infos = []
        for name in session.filter_order:
            info = session.filters[name]
            if info.machine == machine:
                filter_infos.append(
                    {
                        "pid": info.pid,
                        "filtername": info.name,
                        "filterfile": info.filterfile,
                        "log_path": info.log_path,
                        "descriptions": info.descriptions,
                        "templates": info.templates,
                        "meter_port": info.meter_port,
                    }
                )
        adopted = bool(children or filter_infos)
        body = {}
        if adopted:
            ok, body = yield from self.rpc(
                machine, protocol.ADOPT_REQ, children=children, filters=filter_infos
            )
            if not ok:
                return  # still watched; the next recovery tries again
        for pid in body.get("dead", []):
            yield from self.report_death(
                machine, pid, "lost while machine was degraded"
            )
        respawned = set()
        for filtername in body.get("filters_dead", []):
            info = session.filters.get(filtername)
            if info is not None and info.machine == machine:
                respawned.add(filtername)
                yield from self._respawn_filter(info)
        # Survivors keep running through a degradation, but a setflags
        # issued during it may never have landed: re-assert.
        for pid in body.get("alive", []):
            __, record = session.find_record(machine, pid)
            if record is not None and record.state != states.KILLED:
                yield from self.rpc(
                    machine,
                    protocol.SETFLAGS_REQ,
                    pid=record.pid,
                    flags=record.flags,
                )
        # One REMETER per filter.  A filter restart this machine slept
        # through left its meters aimed at a dead port and its kernel
        # holding batches spooled under the old ones; a REMETER that
        # failed while it was down is owed.  Filters respawned just above
        # already repointed everything, and a filter with no past ports
        # never restarted, so its meters were never stale.  A debt for a
        # filter that left the session has nothing to drain into.
        entry = self.health.entry(machine)
        entry.owed.intersection_update(session.filters)
        for name in list(session.filter_order):
            info = session.filters.get(name)
            if info is None or name in respawned:
                continue
            stale = adopted and info.past_ports and session.records_on(machine, name)
            if name in entry.owed or stale:
                yield from self._remeter_machine(info, machine)

    def _create_filter(self, machine, name, filterfile, descriptions, templates):
        request = dict(
            filtername=name,
            filterfile=filterfile,
            descriptions=descriptions,
            templates=templates,
            log_format=self.log_format,
        )
        if self.log_directory:
            request["log_directory"] = self.log_directory
        return (
            yield from self.rpc(machine, protocol.CREATE_FILTER_REQ, **request)
        )

    def _respawn_filter(self, info):
        """A filter died with its daemon: recreate it from the stored spec
        (same log path, so the trace continues where it stopped) and
        repoint every meter at the replacement."""
        ok, body = yield from self._create_filter(
            info.machine,
            info.name,
            info.filterfile,
            info.descriptions,
            info.templates,
        )
        if not ok:
            yield from self._filter_gone(info, "could not be relaunched")
            return
        yield from self._filter_relaunched(info, info.meter_port, body)

    def _filter_relaunched(self, info, old_port, body):
        """``info``'s filter has a new incarnation (``body`` is the
        daemon's word on it): adopt it, repoint every meter at it and
        re-subscribe its watches."""
        yield from self.record(
            "filter-restart",
            name=info.name,
            pid=body["pid"],
            meter_port=body["meter_port"],
            meter_host=body.get("meter_host", info.meter_host),
            log_path=body.get("log_path", info.log_path),
            old_port=old_port,
        )
        yield from self.emit(
            "WARNING: filter '{0}' on {1} was relaunched: identifier = {2}",
            info.name,
            info.machine,
            info.pid,
        )
        yield from self._repoint_filter(info)
        yield from self._reregister_watches(info)

    def _repoint_filter(self, info):
        """A filter has a new meter port: every machine with a process of
        one of its jobs re-aims live meters at it (the kernel resends its
        unacknowledged window; the filter dedups) and drains batches
        orphaned under its earlier port numbers.  Machines whose processes
        all died still get the drain -- their final batches are waiting."""
        machines = {
            record.machine
            for job in self.session.jobs.values()
            if job.filtername == info.name
            for record in job.processes
        }
        for machine in sorted(machines):
            yield from self._remeter_machine(info, machine)

    def _remeter_machine(self, info, machine):
        """One REMETER exchange: aim the meters of the filter's live
        processes on ``machine`` at its current port and drain batches
        orphaned under any port it has had (``FilterInfo.drain_ports``)."""
        records = [
            {"pid": record.pid, "flags": record.flags}
            for record in self.session.records_on(machine, info.name)
            if record.state != states.KILLED
        ]
        ok, body = yield from self.rpc(
            machine,
            protocol.REMETER_REQ,
            records=records,
            filter_host=info.meter_host,
            filter_port=info.meter_port,
            old_ports=info.drain_ports(),
        )
        if not ok:
            # The machine's kernel may hold batches spooled under the old
            # ports; the debt keeps it watched until a reconcile drains
            # them at whatever port the filter has by then.
            self.health.entry(machine).owed.add(info.name)
            return
        self.health.entry(machine).owed.discard(info.name)
        for pid in body.get("dead", []):
            yield from self.report_death(machine, pid, "died during filter restart")

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, line):
        tokens = line.split()
        if not tokens:
            return
        command = tokens[0].lower()
        args = tokens[1:]
        if command != "die":
            self.die_warned = False
        allowed = (
            _WATCH_PARAM_CHARS if command in ("watch", "stats") else _PARAM_CHARS
        )
        if not all(set(token) <= allowed for token in args):
            yield from self.emit("bad parameter characters in command")
            return
        entry = self._COMMANDS.get(command)
        if entry is None:
            yield from self.emit("unknown command '{0}' (try help)", command)
            return
        handler, journaled, fewest, most, usage = entry
        now = yield self.sys.gettimeofday()
        self.health.note_activity(now)
        if journaled:
            yield from self.record("cmd", line=line)
        if len(args) < fewest or (most is not None and len(args) > most):
            yield from self.emit("usage: " + usage)
            return
        yield from handler(self, args)

    def cmd_help(self, args):
        yield from self.emit(HELP_TEXT)

    def cmd_filter(self, args):
        session = self.session
        if not args:
            if not session.filters:
                yield from self.emit("no filters")
                return
            for name in session.filter_order:
                info = session.filters[name]
                yield from self.emit(
                    "filter '{0}': identifier = {1}, machine = {2}",
                    info.name,
                    info.pid,
                    info.machine,
                )
            return
        filtername = args[0]
        if filtername in session.filters:
            yield from self.emit("filter '{0}' already exists", filtername)
            return
        machine = args[1] if len(args) > 1 else self.hostname
        filterfile = args[2] if len(args) > 2 else DEFAULT_FILTER_FILE
        descriptions = args[3] if len(args) > 3 else DEFAULT_DESCRIPTIONS
        templates = args[4] if len(args) > 4 else DEFAULT_TEMPLATES
        ok, body = yield from self._create_filter(
            machine, filtername, filterfile, descriptions, templates
        )
        if not ok:
            yield from self.emit(
                "filter '{0}' not created: {1}", filtername, body.get("status")
            )
            return
        yield from self.record(
            "filter",
            name=filtername,
            machine=machine,
            pid=body["pid"],
            meter_host=body["meter_host"],
            meter_port=body["meter_port"],
            log_path=body["log_path"],
            filterfile=filterfile,
            descriptions=descriptions,
            templates=templates,
        )
        yield from self.emit(
            "filter '{0}' ... created: identifier = {1}", filtername, body["pid"]
        )

    def cmd_newjob(self, args):
        session = self.session
        jobname = args[0]
        if jobname in session.jobs:
            yield from self.emit("job '{0}' already exists", jobname)
            return
        if len(args) > 1:
            info = session.filters.get(args[1])
            if info is None:
                yield from self.emit("no filter '{0}'", args[1])
                return
        else:
            info = session.default_filter()
            if info is None:
                yield from self.emit(
                    "a job cannot be created if a filter has not been created"
                )
                return
        yield from self.record(
            "newjob",
            name=jobname,
            filtername=info.name,
            number=session.next_job_number,
        )

    def _add_process(self, job, procname, machine, pid, state):
        yield from self.record(
            "process",
            jobname=job.name,
            procname=procname,
            machine=machine,
            pid=pid,
            state=state,
            flags=job.flags,
        )

    def cmd_addprocess(self, args):
        jobname, machine, processfile = args[0], args[1], args[2]
        params = args[3:]
        job = yield from self._find_job(jobname)
        if job is None:
            return
        info = self.session.filters[job.filtername]
        request = dict(
            filename=processfile,
            params=list(params),
            filter_host=info.meter_host,
            filter_port=info.meter_port,
            meter_flags=job.flags,
            jobname=jobname,
            procname=processfile,
        )
        ok, body = yield from self.rpc(machine, protocol.CREATE_REQ, **request)
        if not ok and "ENOENT" in str(body.get("status")):
            # The executable is not on the target machine: copy it there
            # (Section 3.5.3) and try once more.
            try:
                yield self.sys.rcp(self.hostname, processfile, machine, processfile)
            except SyscallError as err:
                yield from self.emit(
                    "process '{0}' not created: cannot copy '{1}' ({2})",
                    processfile,
                    processfile,
                    errno_name(err.errno),
                )
                return
            ok, body = yield from self.rpc(machine, protocol.CREATE_REQ, **request)
        if not ok:
            yield from self.emit(
                "process '{0}' not created: {1}", processfile, body.get("status")
            )
            return
        yield from self._add_process(
            job, processfile, machine, body["pid"], states.NEW
        )
        yield from self.emit(
            "process '{0}' ... created: identifier = {1}", processfile, body["pid"]
        )

    def cmd_acquire(self, args):
        jobname, machine = args[0], args[1]
        try:
            pid = int(args[2])
        except ValueError:
            yield from self.emit("bad process identifier '{0}'", args[2])
            return
        job = yield from self._find_job(jobname)
        if job is None:
            return
        info = self.session.filters[job.filtername]
        ok, body = yield from self.rpc(
            machine,
            protocol.ACQUIRE_REQ,
            pid=pid,
            meter_flags=job.flags,
            filter_host=info.meter_host,
            filter_port=info.meter_port,
        )
        if not ok:
            yield from self.emit(
                "process {0} not acquired: {1}", pid, body.get("status")
            )
            return
        yield from self._add_process(job, str(pid), machine, pid, states.ACQUIRED)
        yield from self.emit("process {0} ... acquired", pid)

    def cmd_setflags(self, args):
        job = yield from self._find_job(args[0])
        if job is None:
            return
        try:
            set_mask, clear_mask = mflags.flags_from_names(args[1:])
        except ValueError as err:
            yield from self.emit(str(err))
            return
        # "the set of active flags is the union of the two groups" --
        # resets must be explicit.
        yield from self.record(
            "flags",
            jobname=job.name,
            flags=(job.flags | set_mask) & ~clear_mask,
            flag_order=_flag_order(job.flag_order, args[1:]),
        )
        yield from self.emit("new job flags = {0}", " ".join(job.flag_order))
        for record in job.processes:
            if record.state == states.KILLED:
                continue
            ok, body = yield from self.rpc(
                record.machine,
                protocol.SETFLAGS_REQ,
                pid=record.pid,
                flags=job.flags,
            )
            if ok:
                yield from self.emit("Process '{0}' : Flags set", record.procname)
            else:
                yield from self.emit(
                    "Process '{0}' : flags not set: {1}",
                    record.procname,
                    body.get("status"),
                )

    def _signal_job(self, jobname, eligible, sig, state, done, refusal):
        """Signal every ``eligible`` process of the job and move it to
        ``state``; ``refusal`` (or silence, when None) answers the rest."""
        job = yield from self._find_job(jobname)
        if job is None:
            return
        for record in job.processes:
            if not eligible(record.state):
                if refusal is not None:
                    yield from self.emit(refusal, record.procname, record.state)
                continue
            ok, body = yield from self.rpc(
                record.machine, protocol.SIGNAL_REQ, pid=record.pid, sig=sig
            )
            if ok:
                yield from self.record_state(job, record, state)
                yield from self.emit("'{0}' {1}.", record.procname, done)
            else:
                yield from self.emit(
                    "'{0}' not {1}: {2}", record.procname, done, body.get("status")
                )

    def cmd_startjob(self, args):
        return self._signal_job(
            args[0],
            states.startable,
            defs.SIGCONT,
            states.RUNNING,
            "started",
            "'{0}' cannot be started: it is {1}.",
        )

    def cmd_stopjob(self, args):
        # "Processes that are killed or acquired are ignored", and so is
        # an already stopped one.
        return self._signal_job(
            args[0], states.stoppable, defs.SIGSTOP, states.STOPPED, "stopped", None
        )

    def _remove_record(self, job, record):
        """Shared by removejob/removeprocess: stopped processes are killed
        (Figure 4.2's stopped->killed edge); acquired processes only lose
        their meter connection."""
        if record.state == states.STOPPED:
            yield from self.rpc(
                record.machine,
                protocol.SIGNAL_REQ,
                pid=record.pid,
                sig=defs.SIGKILL,
            )
            yield from self.record_state(job, record, states.KILLED)
        elif record.state == states.ACQUIRED:
            yield from self.rpc(record.machine, protocol.UNMETER_REQ, pid=record.pid)
        yield from self.emit("'{0}' removed", record.procname)

    def cmd_removejob(self, args):
        job = yield from self._find_job(args[0])
        if job is None:
            return
        blockers = [
            record for record in job.processes if not states.removable(record.state)
        ]
        if blockers:
            yield from self.emit(
                "job '{0}' not removed: process '{1}' is {2}",
                job.name,
                blockers[0].procname,
                blockers[0].state,
            )
            return
        for record in job.processes:
            yield from self._remove_record(job, record)
        yield from self.record("removejob", name=job.name)

    def cmd_removeprocess(self, args):
        job = yield from self._find_job(args[0])
        if job is None:
            return
        record = job.find_process(args[1])
        if record is None:
            yield from self.emit("no process '{0}' in job '{1}'", args[1], args[0])
            return
        if not states.removable(record.state):
            yield from self.emit(
                "process '{0}' not removed: it is {1}", record.procname, record.state
            )
            return
        yield from self._remove_record(job, record)
        yield from self.record(
            "removeprocess",
            jobname=job.name,
            procname=record.procname,
            machine=record.machine,
            pid=record.pid,
        )

    def cmd_jobs(self, args):
        if not args:
            if not self.session.jobs:
                yield from self.emit("no jobs")
                return
            for job in sorted(self.session.jobs.values(), key=lambda j: j.number):
                yield from self.emit(
                    "{0}: {1} (filter {2})", job.number, job.name, job.filtername
                )
            return
        for jobname in args:
            job = yield from self._find_job(jobname)
            if job is None:
                continue
            dropped = yield from self._job_drop_counts(job)
            yield from self.emit("job '{0}':", job.name)
            for record in job.processes:
                flag_names = " ".join(mflags.names_from_flags(record.flags)) or "none"
                line = "  {0} {1} '{2}' on {3} flags: {4}".format(
                    record.pid,
                    record.state,
                    record.procname,
                    record.machine,
                    flag_names,
                )
                lost = dropped.get((record.machine, record.pid), 0)
                if lost:
                    line += " dropped: {0}".format(lost)
                yield from self.emit(line)
            degraded = sorted(
                {
                    record.machine
                    for record in job.processes
                    if self.health.is_degraded(record.machine)
                }
            )
            if degraded:
                yield from self.emit(
                    "  degraded machines (meterdaemon not responding): "
                    + " ".join(degraded)
                )
                for machine in degraded:
                    entry = self.health.entry(machine)
                    last = (
                        "never"
                        if entry.last_probe_ms is None
                        else "{0:.0f}ms".format(entry.last_probe_ms)
                    )
                    yield from self.emit(
                        "    {0}: {1} failure(s), last probe at {2}",
                        machine,
                        entry.failures,
                        last,
                    )

    def _job_drop_counts(self, job):
        """Per-(machine, pid) dropped-event counts from the daemons'
        status RPC.  Degraded machines are skipped: the probe schedule,
        not a status call, decides when they are back."""
        dropped = {}
        for machine in sorted({record.machine for record in job.processes}):
            if self.health.is_degraded(machine):
                continue
            ok, body = yield from self.rpc(machine, protocol.STATUS_REQ)
            if not ok:
                continue
            by_pid = body.get("dropped_by_pid", {})
            for record in job.processes:
                if record.machine != machine:
                    continue
                # JSON round-trips dict keys as strings.
                count = by_pid.get(str(record.pid), 0)
                if count:
                    dropped[(machine, record.pid)] = count
        return dropped

    def cmd_getlog(self, args):
        info = yield from self._resolve_filter(args[0])
        if info is None:
            return
        ok, body = yield from self.rpc(
            info.machine, protocol.GETLOG_REQ, path=info.log_path
        )
        if not ok:
            yield from self.emit("getlog failed: {0}", body.get("status"))
            return
        yield from guestlib.write_text(self.sys, args[1], body["content"])

    def _find_job_process(self, jobname, procname):
        job = yield from self._find_job(jobname)
        if job is None:
            return None
        record = job.find_process(procname)
        if record is None:
            yield from self.emit("no process '{0}' in job '{1}'", procname, jobname)
            return None
        if record.state in (states.KILLED, states.ACQUIRED):
            yield from self.emit(
                "process '{0}' is {1}: no I/O path", procname, record.state
            )
            return None
        return record

    def cmd_input(self, args):
        """Send a line to a process' standard input through its daemon's
        I/O gateway (the reverse path of Section 3.5.2)."""
        record = yield from self._find_job_process(args[0], args[1])
        if record is None:
            return
        ok, body = yield from self.rpc(
            record.machine,
            protocol.STDIN_REQ,
            pid=record.pid,
            data=" ".join(args[2:]) + "\n",
        )
        if not ok:
            yield from self.emit("input not delivered: {0}", body.get("status"))

    def cmd_stdinfile(self, args):
        """Redirect a file into a process' standard input (Section 3.5.2:
        the file is copied to the process' machine and opened by its
        meterdaemon)."""
        record = yield from self._find_job_process(args[0], args[1])
        if record is None:
            return
        filename = args[2]
        if record.machine != self.hostname:
            try:
                yield self.sys.rcp(self.hostname, filename, record.machine, filename)
            except SyscallError as err:
                yield from self.emit(
                    "cannot copy '{0}' to {1} ({2})",
                    filename,
                    record.machine,
                    errno_name(err.errno),
                )
                return
        ok, body = yield from self.rpc(
            record.machine, protocol.STDIN_REQ, pid=record.pid, path=filename
        )
        if not ok:
            yield from self.emit("stdin not redirected: {0}", body.get("status"))

    def cmd_source(self, args):
        if len(self.input_stack) >= MAX_SOURCE_DEPTH:
            yield from self.emit("source nesting too deep (max 16)")
            return
        try:
            fd = yield self.sys.open(args[0], "r")
        except SyscallError as err:
            yield from self.emit(
                "cannot source '{0}': {1}", args[0], errno_name(err.errno)
            )
            return
        self.input_stack.append(_InputSource(fd, is_tty=False))

    def cmd_sink(self, args):
        if self.sink_fd is not None:
            yield self.sys.close(self.sink_fd)
            self.sink_fd = None
        if args:
            self.sink_fd = yield self.sys.open(args[0], "w")

    # ------------------------------------------------------------------
    # Live analysis: stats and watch (repro.streaming)
    # ------------------------------------------------------------------

    def _resolve_filter(self, name):
        """``name`` (or the default filter when None); emits the error."""
        if name is not None:
            info = self.session.filters.get(name)
            if info is None:
                yield from self.emit("no filter '{0}'", name)
            return info
        info = self.session.default_filter()
        if info is None:
            yield from self.emit("no filters")
        return info

    def _stream_query(self, info, req_type, query):
        """One live-analysis RPC: controller -> daemon -> filter engine.
        Returns (engine reply dict, None) or (None, error text)."""
        ok, body = yield from self.rpc(
            info.machine, req_type, filtername=info.name, query=query
        )
        if not ok:
            return None, str(body.get("status"))
        result = body.get("result") or {}
        if result.get("status") != "ok":
            return None, str(result.get("reason", "engine error"))
        return result, None

    def cmd_stats(self, args):
        """Live statistics snapshot (or digest) from a filter's engine."""
        args = list(args)
        want_digest = bool(args) and args[-1] == "digest"
        if want_digest:
            args.pop()
        info = yield from self._resolve_filter(args[0] if args else None)
        if info is None:
            return
        query = {"op": "digest" if want_digest else "stats"}
        result, err = yield from self._stream_query(info, protocol.STATS_REQ, query)
        if result is None:
            yield from self.emit("stats failed: {0}", err)
            return
        if want_digest:
            # One canonical JSON line: scriptable, and what the benchmark
            # diffs against the post-mortem twins.
            yield from self.emit(json.dumps(result.get("result"), sort_keys=True))
            return
        for line in format_snapshot(result.get("result") or {}):
            yield from self.emit(line)

    def _watch_add(self, args):
        args = list(args)
        name = None
        if args and args[0] in self.session.filters:
            name = args.pop(0)
        if not args or args[0] not in QUERY_KINDS:
            yield from self.emit(
                "usage: watch add [<filtername>] <kind> [<k>=<v>...]   "
                "kinds: {0}",
                " ".join(QUERY_KINDS),
            )
            return
        kind = args.pop(0)
        spec = {"kind": kind}
        for token in args:
            key, eq, value = token.partition("=")
            if not eq or not key:
                yield from self.emit("bad watch parameter '{0}' (want k=v)", token)
                return
            spec[key] = _coerce_param(value)
        info = yield from self._resolve_filter(name)
        if info is None:
            return
        wid = self.session.next_watch_id
        result, err = yield from self._stream_query(
            info, protocol.WATCH_REQ, {"op": "add", "id": wid, "spec": spec}
        )
        if result is None:
            yield from self.emit("watch not registered: {0}", err)
            return
        yield from self.record("watch", wid=wid, filtername=info.name, spec=spec)
        yield from self.emit(
            "watch W{0} [{1}] registered on filter '{2}'", wid, kind, info.name
        )

    def _watch_rm(self, args):
        try:
            wid = int(args[0].lstrip("W")) if args else None
        except ValueError:
            wid = None
        if wid is None:
            yield from self.emit("usage: watch rm <id>")
            return
        watch = self.session.watches.get(wid)
        if watch is None:
            yield from self.emit("no watch W{0}", wid)
            return
        yield from self.record("watch-rm", wid=wid)
        info = self.session.filters.get(watch["filtername"])
        if info is not None:
            yield from self._stream_query(
                info, protocol.WATCH_REQ, {"op": "remove", "id": wid}
            )
        yield from self.emit("watch W{0} removed", wid)

    def _watch_list(self):
        watches = self.session.watches
        if not watches:
            yield from self.emit("no watches")
            return
        for wid in sorted(watches):
            yield from self.emit(
                "W{0} on '{1}': {2}",
                wid,
                watches[wid]["filtername"],
                json.dumps(watches[wid]["spec"], sort_keys=True),
            )

    def _watch_poll(self):
        if not self.session.watches:
            yield from self.emit("no watches")
            return
        fired = 0
        names = sorted({w["filtername"] for w in self.session.watches.values()})
        for name in names:
            info = self.session.filters.get(name)
            if info is None:
                continue
            result, err = yield from self._stream_query(
                info,
                protocol.WATCH_REQ,
                {"op": "poll", "since": self.watch_seqs.get(name, 0)},
            )
            if result is None:
                yield from self.emit("watch poll failed on '{0}': {1}", name, err)
                continue
            self.watch_seqs[name] = result.get("seq", 0)
            for firing in result.get("firings", []):
                fired += 1
                yield from self.emit(format_firing(firing))
        if not fired:
            yield from self.emit("no new firings")

    def cmd_watch(self, args):
        """Continuous queries over the live record stream."""
        sub = args[0].lower() if args else "poll"
        rest = args[1:]
        if sub == "add":
            yield from self._watch_add(rest)
        elif sub in ("rm", "remove"):
            yield from self._watch_rm(rest)
        elif sub == "list":
            yield from self._watch_list()
        elif sub == "poll":
            yield from self._watch_poll()
        else:
            yield from self.emit("usage: watch [add|poll|list|rm] ...")

    def _reregister_watches(self, info, only_missing=False):
        """Re-subscribe this filter's watches to its engine.

        After a filter relaunch the replacement's engine replayed the log
        but has no queries and a fresh firing sequence, so every watch is
        re-added and the poll cursor rewound.  After a controller resume
        the engine may have survived intact; ``only_missing`` then asks it
        what it still holds and re-adds only what is gone (replacing a live
        query would discard its accumulated state)."""
        watched = {
            wid: w
            for wid, w in self.session.watches.items()
            if w["filtername"] == info.name
        }
        if not watched:
            return
        existing = set()
        if only_missing:
            result, __ = yield from self._stream_query(
                info, protocol.WATCH_REQ, {"op": "list"}
            )
            if result is not None:
                existing = {q.get("id") for q in result.get("queries", [])}
        else:
            self.watch_seqs[info.name] = 0
        for wid in sorted(watched):
            if wid in existing:
                continue
            yield from self._stream_query(
                info,
                protocol.WATCH_REQ,
                {"op": "add", "id": wid, "spec": watched[wid]["spec"]},
            )

    def cmd_resume(self, args):
        """Rebuild a crashed controller's session from its journal.

        Folds the journal's effect entries to recover filters, jobs and
        process records, then reconciles every machine: its daemon adopts
        the session's processes (re-registering them against THIS
        controller's notification port), dead processes are reported
        exactly once, dead filters are relaunched and meters repointed.
        """
        if self.session.filters or self.session.jobs:
            yield from self.emit(
                "resume: this controller already has session state "
                "(resume only into a fresh controller)"
            )
            return
        path = args[0] if args else journal.journal_path(self.log_directory)
        text = yield from guestlib.read_optional_file(self.sys, path)
        if text is None:
            yield from self.emit("resume: no journal at '{0}'", path)
            return
        session = journal.replay(journal.parse_journal(text))
        if session.clean_exit or not (session.filters or session.jobs):
            yield from self.emit("resume: nothing to recover")
            return
        self.session = session
        yield from self.record("resume")
        yield from self.emit(
            "resumed {0} filter(s) and {1} job(s) from '{2}'",
            len(session.filters),
            len(session.jobs),
            path,
        )
        for machine in sorted(self._watched_machines()):
            yield from self._reconcile_machine(machine)
        # Filters that survived the controller crash still hold their
        # queries; respawned ones were re-subscribed above.  Fill only the
        # gaps (and leave live query state alone).
        for name in list(session.filter_order):
            info = session.filters.get(name)
            if info is not None:
                yield from self._reregister_watches(info, only_missing=True)

    def cmd_die(self, args):
        if self.session.active_count() > 0 and not self.die_warned:
            self.die_warned = True
            yield from self.emit(
                "there are still active processes; repeat die to exit anyway"
            )
            return
        # "Upon exit, all executing filter processes are removed."
        for name in list(self.session.filter_order):
            info = self.session.filters[name]
            yield from self.rpc(
                info.machine,
                protocol.SIGNAL_REQ,
                pid=info.pid,
                sig=defs.SIGKILL,
            )
        # A clean exit truncates the recoverable session: resume after
        # this reports nothing to recover.
        yield from self.record("die")
        self.dead = True

    #: command -> (handler, journaled, fewest arguments, most arguments or
    #: None, usage line).  A journaled command's line is written ahead (it
    #: changes session state: a crash mid-command leaves the intent on
    #: record); ``_dispatch`` checks the argument count after that write.
    _COMMANDS = {
        "help": (cmd_help, False, 0, None, None),
        "filter": (cmd_filter, True, 0, None, None),
        "newjob": (cmd_newjob, True, 1, None, "newjob <jobname> [<filtername>]"),
        "addprocess": (
            cmd_addprocess, True, 3, None,
            "addprocess <jobname> <machine> <processfile> [<parms>...]",
        ),
        "acquire": (
            cmd_acquire, True, 3, 3,
            "acquire <jobname> <machine> <process identifier>",
        ),
        "setflags": (cmd_setflags, True, 2, None, "setflags <jobname> <flag1> [...]"),
        "startjob": (cmd_startjob, True, 1, None, "startjob <jobname>"),
        "stopjob": (cmd_stopjob, True, 1, None, "stopjob <jobname>"),
        "removejob": (cmd_removejob, True, 1, None, "removejob <jobname>"),
        "removeprocess": (
            cmd_removeprocess, True, 2, 2, "removeprocess <jobname> <procname>"
        ),
        "jobs": (cmd_jobs, False, 0, None, None),
        "getlog": (cmd_getlog, False, 2, 2, "getlog <filtername> <destfile>"),
        "source": (cmd_source, False, 1, 1, "source <filename>"),
        "sink": (cmd_sink, False, 0, None, None),
        "input": (cmd_input, False, 3, None, "input <jobname> <procname> <word>..."),
        "stdinfile": (
            cmd_stdinfile, False, 3, 3, "stdinfile <jobname> <procname> <filename>"
        ),
        "stats": (cmd_stats, False, 0, None, None),
        "watch": (cmd_watch, True, 0, None, None),
        "resume": (cmd_resume, True, 0, None, None),
        "die": (cmd_die, True, 0, None, None),
    }
    _COMMANDS.update(
        add=_COMMANDS["addprocess"],
        rmjob=_COMMANDS["removejob"],
        exit=_COMMANDS["die"],
        bye=_COMMANDS["die"],
    )


def _flag_order(order, names):
    """``order`` (flag spellings in first-set order) after a setflags."""
    order = list(order)
    for raw in names:
        name = raw.lower()
        if name.startswith("-"):
            name = name[1:]
            if name == "all":
                order = []
            elif name in order:
                order.remove(name)
        else:
            if name not in order and name != "immediate":
                order.append(name)
    return order


def _coerce_param(value):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value
