"""Regression tests for self-healing paths the chaos engine exposed.

Two bugs found by schedule fuzzing (PR 10), each pinned here with the
narrowest deterministic repro:

* A meterdaemon killed *and* restarted between two controller
  heartbeats never looks down -- every probe that runs succeeds.  The
  controller must notice the boot-epoch change stamped on daemon
  replies and reconcile anyway, or the replacement daemon never adopts
  the machine's records and process deaths go unreported.

* A REMETER that fails because the target daemon is down must be
  remembered as a debt.  Without it, a machine whose processes have all
  been killed drops out of the probe watch set with meter batches still
  spooled under the filter's retired port, and they are stranded there
  forever once its replacement daemon sweeps.
"""

from repro.chaos.generator import generate_plan
from repro.chaos.oracles import run_oracles, violated_names
from repro.chaos.scenario import DgramPairScenario, run_scenario
from repro.controller.control import Controller
from repro.core.cluster import Cluster
from repro.daemon import protocol
from repro.core.session import MeasurementSession
from repro.faults import FaultInjector, FaultPlan
from repro.programs import install_all

DONE_LINE = "DONE: process dgramproducer in job 'j' terminated"


def _dgram_pair_run(plan_events, seed=7):
    cluster = Cluster(seed=seed)
    session = MeasurementSession(cluster, control_machine="yellow")
    install_all(session)
    session.command("filter f1 blue")
    session.command("newjob j")
    session.command("addprocess j red dgramproducer green 6000 40 64 5")
    session.command("addprocess j green dgramproducer red 6001 40 64 5")
    session.command("setflags j send termproc immediate")
    session.command("startjob j")
    plan = plan_events(cluster.sim.now)
    injector = FaultInjector(cluster, plan, session=session).arm()
    session.settle()
    session.command("stopjob j")
    session.settle()
    return cluster, session, injector


def test_restart_between_heartbeats_is_detected_and_reconciled():
    """Kill + restart the daemon inside one heartbeat interval: no
    probe ever fails, so only the boot-epoch check can notice."""

    def plan(now):
        return (
            FaultPlan()
            .kill_daemon(now + 20.0, "green")
            .restart_daemon(now + 50.0, "green")
        )

    cluster, session, injector = _dgram_pair_run(plan)
    transcript = session.transcript()
    # The controller never saw green down...
    assert "is not responding" not in transcript
    # ...but spotted the epoch change and reconciled,
    assert (
        "WARNING: meterdaemon on 'green' was restarted between "
        "heartbeats; reconciling" in transcript
    )
    # so both producer deaths were reported, each exactly once.
    assert transcript.count(DONE_LINE) == 2


def test_restart_detection_does_not_fire_on_a_healthy_daemon():
    def plan(now):
        return FaultPlan().heal(now + 20.0)

    __, session, __ = _dgram_pair_run(plan)
    assert "restarted between heartbeats" not in session.transcript()


def test_failed_remeter_debt_is_paid_on_daemon_recovery():
    """The generated schedule that found the bug: the filter dies
    twice, and its second relaunch REMETERs red while red's daemon is
    down.  Red's producer is already dead, so without the owed-remeter
    debt nothing would ever probe red again, and the batches spooled
    under the filter's retired port would never reach the store."""
    scenario = DgramPairScenario()
    plan = generate_plan(0, "processes", scenario.surface(None))
    assert plan.has_kind("kill_process")
    baseline = run_scenario(scenario, 7)
    run = run_scenario(scenario, 7, plan)
    verdict = run_oracles(run, baseline)
    assert verdict["ok"], violated_names(verdict)
    # Record-identity is the load-bearing oracle here: every meter
    # record from the killed machines made it to the store.
    assert verdict["oracles"]["baseline_identical"]["applied"]


def test_recovered_cluster_leaves_no_orphan_batches_parked():
    """After daemons return and debts settle, no kernel may still hold
    undelivered meter batches spooled for a retired destination."""

    def plan(now):
        return (
            FaultPlan()
            .kill_daemon(now + 140.0, "red")
            .kill_filter(now + 160.0, "blue")
            .restart_daemon(now + 400.0, "red")
        )

    cluster, session, __ = _dgram_pair_run(plan)
    parked = {
        name: sum(
            1
            for spool in machine.meter.orphans.values()
            for entry in spool
            if not entry[3]
        )
        for name, machine in cluster.machines.items()
    }
    assert all(count == 0 for count in parked.values()), parked
    assert session.transcript().count(DONE_LINE) == 2


def test_reconcile_remeters_each_filter_at_most_once(monkeypatch):
    """A reconcile that pays a remeter debt and also finds a filter
    restart the machine slept through must send that filter ONE
    REMETER, not a debt payment followed by a second re-aim (the soak
    schedule ``processes:20`` did both)."""
    stack, counts = [], []
    real_rpc = Controller.rpc
    real_reconcile = Controller._reconcile_machine

    def counting_reconcile(self, machine):
        stack.append({})
        try:
            yield from real_reconcile(self, machine)
        finally:
            counts.append(stack.pop())

    def counting_rpc(self, machine, msg_type, **body):
        if stack and msg_type == protocol.REMETER_REQ:
            name = next(
                info.name
                for info in self.session.filters.values()
                if info.meter_port == body["filter_port"]
            )
            stack[-1][machine, name] = stack[-1].get((machine, name), 0) + 1
        return (yield from real_rpc(self, machine, msg_type, **body))

    monkeypatch.setattr(Controller, "_reconcile_machine", counting_reconcile)
    monkeypatch.setattr(Controller, "rpc", counting_rpc)
    scenario = DgramPairScenario()
    plan = generate_plan(20, "processes", scenario.surface(None))
    baseline = run_scenario(scenario, 7)
    run = run_scenario(scenario, 7, plan)
    verdict = run_oracles(run, baseline)
    assert any(count for count in counts), "no reconcile REMETERed"
    assert all(n <= 1 for count in counts for n in count.values()), counts
    assert verdict["ok"], violated_names(verdict)
