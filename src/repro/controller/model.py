"""Controller bookkeeping: filters, jobs, process records."""

from repro.controller import states


class FilterInfo:
    """One filter process known to the controller."""

    def __init__(
        self,
        name,
        machine,
        pid,
        meter_host,
        meter_port,
        log_path,
        filterfile="filter",
        descriptions="descriptions",
        templates="templates",
    ):
        self.name = name
        self.machine = machine
        self.pid = pid
        #: Where meters connect: exchanged as (literal host, port)
        #: per Section 3.5.4.
        self.meter_host = meter_host
        self.meter_port = meter_port
        self.log_path = log_path
        #: How to launch it again: kept for crash recovery (the daemon
        #: relaunches with these; ``resume`` recreates from these).
        self.filterfile = filterfile
        self.descriptions = descriptions
        self.templates = templates
        #: Meter ports of earlier incarnations.  Kernels park orphaned
        #: batches keyed by the port their meter last pointed at; a
        #: machine that was unreachable during a filter restart still
        #: has spools under these, so reconcile drains all of them.
        self.past_ports = []

    def drain_ports(self):
        """Every meter port this filter has had, oldest incarnation
        first: where a kernel may hold batches spooled for it."""
        return list(dict.fromkeys(self.past_ports + [self.meter_port]))


class ProcessRecord:
    """One process of a job, tracked through its life cycle."""

    def __init__(self, procname, jobname, machine, pid, state):
        self.procname = procname
        self.jobname = jobname
        self.machine = machine
        self.pid = pid
        self.state = state
        self.flags = 0

    def __repr__(self):
        return "ProcessRecord({0!r}, pid={1}@{2}, {3})".format(
            self.procname, self.pid, self.machine, self.state
        )


class Job:
    """A computation: "a collection of processes working towards a
    common goal" (Section 4.2), named and associated with a filter."""

    def __init__(self, name, filtername, number):
        self.name = name
        self.filtername = filtername
        self.number = number
        self.flags = 0
        #: Flag spellings in first-set order, for display.
        self.flag_order = []
        self.processes = []

    def find_process(self, procname):
        for record in self.processes:
            if record.procname == procname:
                return record
        return None

    def active_processes(self):
        return [
            record
            for record in self.processes
            if record.state in states.ACTIVE_STATES
        ]
