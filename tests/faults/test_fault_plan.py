"""FaultPlan construction and scheduling semantics."""

import pytest

from repro.core.cluster import Cluster
from repro.faults import FaultInjector, FaultPlan


def test_builder_chains_and_counts():
    plan = (
        FaultPlan()
        .crash(100.0, "red")
        .reboot(200.0, "red")
        .partition(50.0, [["red"], ["green"]])
        .heal(75.0)
        .loss_burst(10.0, duration_ms=20.0, loss=0.5)
        .latency_spike(10.0, duration_ms=20.0, extra_ms=5.0)
        .kill_process(30.0, "green", "worker")
        .kill_daemon(40.0, "green")
    )
    assert len(plan) == 8


def test_events_fire_in_time_order_not_declaration_order():
    plan = FaultPlan().crash(300.0, "red").heal(100.0).crash(200.0, "green")
    kinds = [event.kind for __, event in plan.sorted_events()]
    assert kinds == ["heal", "crash", "crash"]
    times = [event.at_ms for __, event in plan.sorted_events()]
    assert times == [100.0, 200.0, 300.0]


def test_simultaneous_events_keep_declaration_order():
    plan = FaultPlan().heal(50.0).crash(50.0, "red").heal(50.0)
    kinds = [event.kind for __, event in plan.sorted_events()]
    assert kinds == ["heal", "crash", "heal"]


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        FaultPlan().crash(-1.0, "red")


def test_kill_daemon_is_a_meterdaemon_kill():
    plan = FaultPlan().kill_daemon(10.0, "blue")
    event = plan.events[0]
    assert event.kind == "kill_process"
    assert event.args == {"machine": "blue", "program": "meterdaemon"}


def test_describe_lists_schedule():
    plan = FaultPlan().crash(120.0, "red").heal(130.0)
    lines = plan.describe()
    assert len(lines) == 2
    assert "crash" in lines[0] and "machine=red" in lines[0]
    assert "heal" in lines[1]


def test_unknown_machine_name_rejected_at_arm_time():
    cluster = Cluster(seed=1)
    injector = FaultInjector(cluster, FaultPlan().crash(5.0, "mauve"))
    with pytest.raises(ValueError, match="unknown machine 'mauve'"):
        injector.arm()
    assert not injector.armed  # still re-armable after fixing the plan


def test_unknown_machine_in_partition_group_rejected_at_arm_time():
    cluster = Cluster(seed=1)
    plan = FaultPlan().partition(5.0, [["red", "mauve"], ["green"]])
    with pytest.raises(ValueError, match="unknown machine 'mauve'"):
        FaultInjector(cluster, plan).arm()


def test_injector_arm_is_once_only():
    cluster = Cluster(seed=1)
    injector = FaultInjector(cluster, FaultPlan().heal(10.0))
    injector.arm()
    with pytest.raises(RuntimeError):
        injector.arm()


def test_faults_fire_at_their_scheduled_times():
    cluster = Cluster(seed=1)
    plan = FaultPlan().crash(50.0, "red").reboot(120.0, "red")
    injector = FaultInjector(cluster, plan).arm()
    cluster.run(until_ms=80.0)
    assert cluster.machine("red").crashed
    assert [when for when, __ in injector.log] == [50.0]
    cluster.run(until_ms=200.0)
    assert not cluster.machine("red").crashed
    assert [when for when, __ in injector.log] == [50.0, 120.0]


def test_applied_log_is_reproducible():
    def run():
        cluster = Cluster(seed=9)
        plan = (
            FaultPlan()
            .loss_burst(10.0, duration_ms=30.0, loss=0.3)
            .partition(40.0, [["red", "blue"], ["green", "yellow"]])
            .heal(60.0)
            .crash(70.0, "green")
        )
        injector = FaultInjector(cluster, plan).arm()
        cluster.run(until_ms=100.0)
        return injector.describe_applied()

    assert run() == run()


def test_moves_pair_each_recovery_with_the_outage_it_closes():
    """In firing order, each recovery closes the earliest open outage of
    its kind (on its machine); everything else is a move of its own."""
    plan = (
        FaultPlan()
        .partition(100.0, [["red"], ["green"]])  # 0
        .partition(150.0, [["red", "green"], ["blue"]])  # 1
        .heal(300.0)  # 2: closes the earlier partition
        .heal(400.0)  # 3
        .kill_daemon(50.0, "green")  # 4
        .kill_daemon(60.0, "red")  # 5
        .restart_daemon(90.0, "red")  # 6: red's daemon, not green's
        .restart_daemon(95.0, "green")  # 7
        .crash(10.0, "blue")  # 8
        .reboot(20.0, "blue")  # 9
        .kill_controller(30.0)  # 10
        .restart_controller(40.0)  # 11
        .kill_filter(45.0, "blue")  # 12: the daemon relaunches it
        .loss_burst(70.0, duration_ms=20.0, loss=0.5)  # 13
    )
    assert plan.moves() == [
        [8, 9], [10, 11], [12], [4, 7], [5, 6], [13], [0, 2], [1, 3]
    ]
    assert plan.open_moves() == []


def test_an_outage_no_recovery_follows_is_an_open_move():
    plan = (
        FaultPlan()
        .heal(10.0)  # nothing to heal yet: a move of its own
        .partition(20.0, [["red"], ["green"]])
        .restart_daemon(30.0, "red")
        .kill_daemon(40.0, "red")  # restarted before it was killed
        .crash(50.0, "green")
        .reboot(60.0, "red")  # another machine
    )
    assert plan.open_moves() == [[1], [3], [4]]
    assert len(plan.moves()) == 6


def test_interleaved_recoveries_pair_like_the_recovery_churn_plan():
    """Outages and their recoveries need not be adjacent: a daemon kill
    stays open across a partition and a controller outage."""
    plan = (
        FaultPlan()
        .kill_filter(30.0, "blue")
        .kill_daemon(100.0, "green")
        .partition(120.0, [["yellow"], ["red", "green", "blue"]])
        .heal(200.0)
        .kill_controller(250.0)
        .restart_controller(350.0)
        .restart_daemon(600.0, "green")
    )
    assert plan.moves() == [[0], [1, 6], [2, 3], [4, 5]]
    assert plan.open_moves() == []
