"""One filter past its descriptor limit (ROADMAP item 3a, first step):
never silently.  A filter holds one meter connection per metered
process and NOFILE is 64, so a 96-process job does not fit; what does
not fit must be refused at ``addprocess`` time, in so many words, and
everything that was created must be recorded in full."""

import re

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.kernel import defs
from repro.programs import install_all

MACHINES = 32
PER_MACHINE = 3
SENDS = 40
#: socket + SENDS sends + termproc, under ``send socket termproc``.
RECORDS_PER_PROCESS = SENDS + 2


def test_96_processes_on_one_filter_are_recorded_or_refused_never_lost():
    names = ["blue"] + ["m{0:02d}".format(i) for i in range(MACHINES)]
    cluster = Cluster(seed=7, machines=names)
    session = MeasurementSession(cluster, control_machine="blue")
    install_all(session)
    session.command("filter f1 blue")
    session.command("newjob wide f1")
    created, refused = [], 0
    for name in names[1:]:
        for __ in range(PER_MACHINE):
            output = session.command(
                "addprocess wide {0} dgramproducer blue 6000 {1} 64 1".format(
                    name, SENDS
                )
            )
            match = re.search(r"created: identifier = (\d+)", output)
            if match:
                host_id = cluster.machine(name).host.host_id
                created.append((host_id, int(match.group(1))))
            else:
                # Every refusal is printed where the user asked.
                assert "not created: ECONNREFUSED" in output
                refused += 1
    assert len(created) + refused == MACHINES * PER_MACHINE
    assert len(created) >= 60 and refused > 0

    session.command("setflags wide send socket termproc immediate")
    session.command("startjob wide")
    session.settle()

    per_process = {}
    for record in session.read_trace("f1"):
        key = (record["machine"], record["pid"])
        per_process[key] = per_process.get(key, 0) + 1
    assert per_process == {key: RECORDS_PER_PROCESS for key in created}

    # The filter survived its limit: never relaunched, still answering.
    assert "relaunched" not in session.transcript()
    assert "{0} records".format(len(created) * RECORDS_PER_PROCESS) in (
        session.command("stats f1")
    )
    # A refused process is not left behind suspended, and the refusals
    # cost the daemons nothing.
    for machine in cluster.machines.values():
        for proc in machine.procs.values():
            if proc.state == defs.PROC_ZOMBIE:
                continue
            assert proc.program_name != "dgramproducer"
            if proc.program_name == "meterdaemon":
                assert len(proc.fds) == 1
