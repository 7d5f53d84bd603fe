"""MeasurementSession: stand up and drive the measurement system.

Builds, on an existing :class:`~repro.core.cluster.Cluster`:

- a meterdaemon (root) on every machine (Section 3.5.1: "There must be
  a meterdaemon on each machine that supports the measurement system");
- the standard filter executable plus default ``descriptions`` and
  ``templates`` files on every machine;
- a controller process on the chosen machine, attached to a terminal.

Commands are typed with :meth:`command`, which returns the controller
output produced for that command; :meth:`transcript` returns the whole
session, prompt included, in the shape of the paper's Appendix B.
"""

from repro.controller.control import PROMPT, controller
from repro.daemon.meterdaemon import meterdaemon
from repro.filtering.descriptions import default_descriptions_text
from repro.filtering.records import parse_trace
from repro.filtering.rules import DEFAULT_TEMPLATES_TEXT
from repro.filtering.standard import (
    DEFAULT_LOG_DIRECTORY,
    LOG_FORMAT_STORE,
    LOG_FORMAT_TEXT,
    log_path_for,
    standard_filter,
)
from repro.kernel import defs
from repro.kernel.tty import Terminal
from repro.tracestore import StoreReader
from repro.tracestore.writer import segment_path

DEFAULT_UID = 100


class MeasurementSession:
    """One user's session with the measurement tools."""

    def __init__(
        self,
        cluster,
        control_machine=None,
        uid=DEFAULT_UID,
        install=True,
        start=True,
        log_directory=None,
        log_format=LOG_FORMAT_TEXT,
    ):
        self.cluster = cluster
        self.uid = uid
        #: Where this session's filters log, and in which format.  A
        #: directory per session keeps concurrent sessions on the same
        #: machines from colliding on /usr/tmp/<filter>.log.
        self.log_directory = log_directory or DEFAULT_LOG_DIRECTORY
        if log_format not in (LOG_FORMAT_TEXT, LOG_FORMAT_STORE):
            raise ValueError("unknown log format %r" % (log_format,))
        self.log_format = log_format
        names = cluster.machine_names()
        self.control_machine = control_machine or names[-1]
        self.daemons = {}
        self.controller_proc = None
        self.tty = Terminal()
        self._transcript_parts = []
        self._prompts_seen = 0
        self.tty.on_output = self._on_tty_output
        if install:
            self.install_measurement_system()
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Bring-up
    # ------------------------------------------------------------------

    def install_measurement_system(self):
        """Install the standard filter program and its data files."""
        self.cluster.registry.register("filter", standard_filter)
        self.cluster.registry.register("meterdaemon", meterdaemon)
        descriptions = default_descriptions_text()
        for machine in self.cluster.machines.values():
            machine.fs.install("filter", data="filter", mode=0o755, program="filter")
            machine.fs.install("descriptions", data=descriptions, mode=0o644)
            machine.fs.install("templates", data=DEFAULT_TEMPLATES_TEXT, mode=0o644)
            machine.accounts.add(self.uid)

    def install_program(self, name, main, machines=None, path=None):
        """Install a workload executable under its bare name, matching
        the paper's ``addprocess foo red A`` usage."""
        return self.cluster.install_program(
            name, main, machines=machines, path=path or name
        )

    def start(self):
        """Spawn daemons and the controller; run to the first prompt."""
        for name, machine in self.cluster.machines.items():
            self.daemons[name] = machine.create_process(
                main=meterdaemon, uid=0, program_name="meterdaemon"
            )
        machine = self.cluster.machine(self.control_machine)
        self.controller_proc = machine.create_process(
            main=controller,
            argv=["control", self.log_directory, self.log_format],
            uid=self.uid,
            program_name="control",
            start=False,
        )
        machine.attach_terminal(self.controller_proc, self.tty)
        machine.continue_proc(self.controller_proc)
        self._wait_for_prompts(1)

    def restart_controller(self, wait=True):
        """Kill the controller (if still alive) and start a fresh one
        on the same terminal -- the crash-recovery entry point.  The
        new controller knows nothing; type ``resume`` at its prompt to
        rebuild the session from the journal."""
        machine = self.cluster.machine(self.control_machine)
        if self.controller_alive():
            machine.post_signal(self.controller_proc, defs.SIGKILL)
        target = self._prompt_count() + 1
        self.controller_proc = machine.create_process(
            main=controller,
            argv=["control", self.log_directory, self.log_format],
            uid=self.uid,
            program_name="control",
            start=False,
        )
        machine.attach_terminal(self.controller_proc, self.tty)
        machine.continue_proc(self.controller_proc)
        if wait:
            self._wait_for_prompts(target)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _on_tty_output(self, data):
        text = data.decode("ascii", "replace")
        self._transcript_parts.append(text)
        # The controller writes the prompt in one chunk, so chunk-wise
        # counting is exact (and O(1) per write).
        self._prompts_seen += text.count(PROMPT)

    def _prompt_count(self):
        return self._prompts_seen

    def controller_alive(self):
        return (
            self.controller_proc is not None
            and self.controller_proc.state != defs.PROC_ZOMBIE
        )

    def _wait_for_prompts(self, target, max_events=2_000_000):
        self.cluster.run_until(
            lambda: self._prompt_count() >= target or not self.controller_alive(),
            max_events=max_events,
        )

    def command(self, line, max_events=2_000_000):
        """Type one command; returns the output it produced (without
        the prompt).  Asynchronous DONE reports that arrive during the
        command are included."""
        target = self._prompt_count() + 1
        # Output arrives as whole parts appended after this index, so
        # only this command's parts are joined, not the transcript.
        first = len(self._transcript_parts)
        self.tty.push_line(line)
        self._wait_for_prompts(target, max_events=max_events)
        text = "".join(self._transcript_parts[first:])
        # Trim the echoless input gap: output starts after our push.
        if text.endswith(PROMPT):
            text = text[: -len(PROMPT)]
        return text

    def settle(self, ms=None, max_events=2_000_000):
        """Let the cluster quiesce (or advance ``ms`` of simulated
        time): workloads finish, notifications arrive."""
        if ms is None:
            self.cluster.run(max_events=max_events)
        else:
            self.cluster.run(until_ms=self.cluster.sim.now + ms)

    def drain_output(self):
        """The whole transcript so far, compacted (DONE reports and
        all); subsequent output appends after it."""
        text = "".join(self._transcript_parts)
        self._transcript_parts = [text]
        return text

    def transcript(self):
        """The whole session so far, prompts included (Appendix B)."""
        return "".join(self._transcript_parts)

    # ------------------------------------------------------------------
    # Trace access
    # ------------------------------------------------------------------

    def filter_log_path(self, filtername):
        """This session's log path for a filter (text or store base)."""
        return log_path_for(filtername, self.log_directory, self.log_format)

    def find_filter_log(self, filtername):
        """Locate a filter's text log file; returns (machine, text)."""
        path = log_path_for(filtername, self.log_directory)
        for name, machine in self.cluster.machines.items():
            if machine.fs.exists(path):
                return name, bytes(machine.fs.node(path).data).decode("ascii")
        raise FileNotFoundError(path)

    def store_reader(self, filtername):
        """A :class:`StoreReader` over a filter's store segments
        (host-side shortcut, the store analogue of find_filter_log)."""
        base = log_path_for(filtername, self.log_directory, LOG_FORMAT_STORE)
        first = segment_path(base, 0)
        host_names = self.cluster.host_table.names_by_id()
        for machine in self.cluster.machines.values():
            if machine.fs.exists(first):
                return StoreReader.from_fs(machine.fs, base, host_names=host_names)
        raise FileNotFoundError(first)

    def read_trace(self, filtername):
        """A filter's accepted records as dicts, whatever the log
        format (host-side shortcut; the in-world route is getlog)."""
        if self.log_format == LOG_FORMAT_STORE:
            return self.store_reader(filtername).records()
        __, text = self.find_filter_log(filtername)
        return parse_trace(text)

    def read_controller_file(self, path):
        """Read a file from the controller's machine (e.g. a getlog
        destination file)."""
        machine = self.cluster.machine(self.control_machine)
        return bytes(machine.fs.node(path).data).decode("ascii")
