"""Daemon liveness bookkeeping: the HealthMonitor's probe clock.

These are pure unit tests over the schedule -- no simulator.  The
property the recovery design leans on: probe traffic toward a dead
machine is *bounded* (exponential backoff up to a cap, a fixed number
of probes per episode, then dormancy), and any of the controller's
normal activity re-arms a dormant episode.  Without the bound, one
dead meterdaemon would keep the controller's event loop busy forever
and ``settle()`` would never terminate.
"""

from repro.controller import health


def _fail_times(monitor, machine, start):
    """Drive an episode with failures only; return the probe times the
    schedule asked for, until the monitor goes dormant."""
    now = start
    times = []
    while True:
        deadline = monitor.next_wakeup([machine])
        if deadline is None:
            return times
        times.append(deadline)
        now = deadline
        assert monitor.due(now, [machine]) == [machine]
        monitor.note_failure(machine, now)


def test_healthy_machine_heartbeats_only_while_active():
    monitor = health.HealthMonitor()
    monitor.note_activity(0.0)
    monitor.watch("red", 0.0)
    assert monitor.next_wakeup(["red"]) == health.HEARTBEAT_MS
    # Past the idle window the heartbeat disarms: an idle controller
    # with healthy machines schedules nothing.
    monitor.entry("red").next_probe_ms = monitor.active_until + 1.0
    assert monitor.next_wakeup(["red"]) is None


def test_probe_traffic_is_bounded_with_exponential_backoff():
    monitor = health.HealthMonitor()
    monitor.note_activity(0.0)
    monitor.watch("red", 0.0)
    # First failure marks the machine degraded...
    assert monitor.note_failure("red", 100.0) is True
    assert monitor.is_degraded("red")
    times = _fail_times(monitor, "red", 100.0)
    # ...then exactly PROBES_PER_EPISODE re-probes happen, no more.
    assert len(times) == health.PROBES_PER_EPISODE
    gaps = [b - a for a, b in zip([100.0] + times, times)]
    # Gaps start at the minimum and double up to the cap, never past it.
    assert gaps[0] == health.PROBE_MIN_MS
    for prev, cur in zip(gaps, gaps[1:]):
        assert cur == min(prev * 2.0, health.PROBE_CAP_MS)
    assert max(gaps) <= health.PROBE_CAP_MS
    # Dormant now: nothing scheduled no matter how far we look.
    assert monitor.next_wakeup(["red"]) is None
    assert monitor.due(1e9, ["red"]) == []


def test_activity_rearms_a_dormant_episode():
    monitor = health.HealthMonitor()
    monitor.note_activity(0.0)
    monitor.watch("red", 0.0)
    monitor.note_failure("red", 100.0)
    _fail_times(monitor, "red", 100.0)
    assert monitor.next_wakeup(["red"]) is None
    # A user command arrives: the episode restarts from the minimum.
    monitor.note_activity(50000.0)
    assert monitor.next_wakeup(["red"]) == 50000.0 + health.PROBE_MIN_MS
    assert monitor.entry("red").probes_left == health.PROBES_PER_EPISODE


def test_success_clears_degradation_exactly_once():
    monitor = health.HealthMonitor()
    monitor.note_activity(0.0)
    monitor.watch("red", 0.0)
    assert monitor.note_success("red", 10.0, None) is None  # already healthy
    monitor.note_failure("red", 100.0)
    monitor.note_failure("red", 400.0)
    entry = monitor.entry("red")
    assert entry.failures == 2
    # The transition out of degraded reports "recovered" exactly once,
    # resets the failure count, and goes back on the heartbeat schedule.
    assert monitor.note_success("red", 500.0, None) == "recovered"
    assert monitor.note_success("red", 600.0, None) is None
    assert not monitor.is_degraded("red")
    assert entry.failures == 0
    assert entry.next_probe_ms == 600.0 + health.HEARTBEAT_MS


def test_unwatched_machines_never_probe():
    monitor = health.HealthMonitor()
    monitor.note_activity(0.0)
    monitor.watch("red", 0.0)
    # Only machines in the watched set count toward the wakeup, so a
    # job removed from the session stops generating probe traffic.
    assert monitor.next_wakeup([]) is None
    assert monitor.due(1e9, []) == []
