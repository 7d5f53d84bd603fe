"""The controller's session journal: crash recovery for the control
process itself.

Every state-changing command is journaled -- the command line first
(write-ahead, before any RPC fires), then one *effect* entry per state
mutation carrying exactly what a replay needs (pids, ports, log paths
come from daemon replies, so the command line alone cannot rebuild
them).  The journal is a JSON-lines file in the session's log
directory; a fresh controller started after a crash rebuilds the dead
one's filters, jobs and process records with ``resume`` and then
reconciles the result against what the daemons report as still
running.

The session those entries describe lives here too, as
:class:`SessionState`, so that there is one implementation of each
entry's meaning: the live controller and ``resume`` both change the
session only by applying entries.

Append-only and line-oriented on purpose: a controller crash can tear
at most the final line, and :func:`parse_journal` drops torn lines
instead of failing the whole recovery.
"""

import json

from repro.controller import states
from repro.controller.model import FilterInfo, Job, ProcessRecord

JOURNAL_NAME = "control.journal"


def journal_path(log_directory):
    return "{0}/{1}".format(log_directory or "/usr/tmp", JOURNAL_NAME)


def encode_entry(op, **fields):
    """One journal line (newline included)."""
    entry = {"op": op}
    entry.update(fields)
    return json.dumps(entry, sort_keys=True) + "\n"


def parse_journal(text):
    """Journal text -> entry dicts, skipping damaged (torn) lines."""
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and "op" in entry:
            entries.append(entry)
    return entries


class SessionState:
    """The recoverable half of a controller: filters, jobs, process
    records and watches -- everything the journal can rebuild.

    :meth:`apply` is the only writer.  The live controller applies
    each entry as it journals it and ``resume`` applies the same
    entries read back from the file, so what a crashed controller
    showed is what its successor shows.  Nothing here holds a syscall
    handle: daemon health, boot epochs and remeter debts are
    observations of the present, which a resumed controller must make
    again rather than read from a file.
    """

    def __init__(self):
        self.filters = {}  # name -> FilterInfo
        self.filter_order = []  # creation order (for the default filter)
        self.jobs = {}  # name -> Job
        self.next_job_number = 1
        #: Continuous queries: watch id -> {"filtername", "spec"}.
        self.watches = {}
        self.next_watch_id = 1
        self.clean_exit = False

    def default_filter(self):
        """"If no filter is indicated, the control program uses the
        default filter process" -- the most recently created one."""
        if not self.filter_order:
            return None
        return self.filters[self.filter_order[-1]]

    def find_record(self, machine, pid):
        for job in self.jobs.values():
            for record in job.processes:
                if record.machine == machine and record.pid == pid:
                    return job, record
        return None, None

    def active_count(self):
        return sum(len(job.active_processes()) for job in self.jobs.values())

    def records_on(self, machine, filtername=None):
        """Process records on ``machine`` in session order, dead ones
        included; only those of ``filtername``'s jobs when given."""
        return [
            record
            for job in self.jobs.values()
            if filtername is None or job.filtername == filtername
            for record in job.processes
            if record.machine == machine
        ]

    def apply(self, entry):
        """Fold one journal entry into the session.

        ``cmd`` (write-ahead) entries are intent, not effect: a command
        journaled but crashed mid-execution contributes whatever effect
        entries it managed to append, and nothing more -- the reconcile
        pass squares that against the daemons' reality.
        """
        op = entry["op"]
        if op in ("cmd", "resume"):
            return
        if op == "die":
            self.__init__()
            self.clean_exit = True
        elif op == "filter":
            info = FilterInfo(
                entry["name"],
                entry["machine"],
                entry["pid"],
                entry["meter_host"],
                entry["meter_port"],
                entry["log_path"],
                filterfile=entry.get("filterfile", "filter"),
                descriptions=entry.get("descriptions", "descriptions"),
                templates=entry.get("templates", "templates"),
            )
            self.filters[info.name] = info
            if info.name not in self.filter_order:
                self.filter_order.append(info.name)
            self.clean_exit = False
        elif op == "filter-restart":
            info = self.filters.get(entry["name"])
            if info is not None:
                # Kernels that missed the restart still hold orphaned
                # batches keyed by the previous meter port; remember it
                # so reconcile can drain those spools.  (Older journals
                # do not name it: there it is the port on record.)
                old_port = entry.get("old_port")
                if old_port is None and info.meter_port != entry["meter_port"]:
                    old_port = info.meter_port
                if old_port is not None and old_port not in info.past_ports:
                    info.past_ports.append(old_port)
                info.pid = entry["pid"]
                info.meter_port = entry["meter_port"]
                info.meter_host = entry.get("meter_host", info.meter_host)
                info.log_path = entry.get("log_path", info.log_path)
        elif op == "filter-gone":
            self.filters.pop(entry["name"], None)
            if entry["name"] in self.filter_order:
                self.filter_order.remove(entry["name"])
        elif op == "newjob":
            job = Job(entry["name"], entry["filtername"], entry["number"])
            self.jobs[job.name] = job
            self.next_job_number = max(
                self.next_job_number, entry["number"] + 1
            )
            self.clean_exit = False
        elif op == "flags":
            job = self.jobs.get(entry["jobname"])
            if job is not None:
                # The *requested* flags, on every live record, whether
                # or not its daemon could be told yet: reconcile,
                # ADOPT and REMETER push these once it answers again.
                job.flags = entry["flags"]
                job.flag_order = list(entry.get("flag_order", []))
                for record in job.processes:
                    if record.state != states.KILLED:
                        record.flags = job.flags
        elif op == "process":
            job = self.jobs.get(entry["jobname"])
            if job is not None:
                record = ProcessRecord(
                    entry["procname"],
                    entry["jobname"],
                    entry["machine"],
                    entry["pid"],
                    entry["state"],
                )
                record.flags = entry.get("flags", 0)
                job.processes.append(record)
        elif op == "state":
            job = self.jobs.get(entry["jobname"])
            if job is not None:
                record = _resolve_record(job, entry)
                if record is not None:
                    record.state = entry["state"]
        elif op == "removeprocess":
            job = self.jobs.get(entry["jobname"])
            if job is not None:
                record = _resolve_record(job, entry)
                if record is not None:
                    job.processes.remove(record)
        elif op == "removejob":
            self.jobs.pop(entry["name"], None)
        elif op == "watch":
            wid = int(entry["wid"])
            self.watches[wid] = {
                "filtername": entry["filtername"],
                "spec": entry.get("spec", {}),
            }
            self.next_watch_id = max(self.next_watch_id, wid + 1)
        elif op == "watch-rm":
            self.watches.pop(int(entry["wid"]), None)


def _resolve_record(job, entry):
    """Find the process record a journal entry names.  Entries written
    with machine+pid resolve exactly -- a job may run two processes of
    the same program name, and the name-only fallback (older journals)
    can only pick the first of them."""
    if "pid" in entry:
        for record in job.processes:
            if record.pid == entry["pid"] and record.machine == entry.get(
                "machine", record.machine
            ):
                return record
        return None
    return job.find_process(entry["procname"])


def replay(entries):
    """Fold journal entries into a fresh :class:`SessionState`."""
    session = SessionState()
    for entry in entries:
        session.apply(entry)
    return session
