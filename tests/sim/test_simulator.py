"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim.errors import SimulationDeadlock, SimulationError
from repro.sim.simulator import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(9.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(3.0, lambda l=label: order.append(l))
    sim.run()
    assert order == list("abcde")


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(4.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [4.0]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    sim.cancel(handle)
    sim.run()
    assert fired == []
    assert sim.pending_events() == 0


def test_run_until_time_limit_stops_clock_at_limit():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(1))
    sim.run(until_ms=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [1]


def test_run_until_predicate():
    sim = Simulator()
    counter = []

    def tick():
        counter.append(1)
        if len(counter) < 5:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run_until(lambda: len(counter) >= 3)
    assert len(counter) == 3


def test_run_until_raises_deadlock_when_queue_drains():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationDeadlock):
        sim.run_until(lambda: False)


def test_run_until_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        sim.run_until(lambda: False, max_events=100)


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [2.0]


def test_run_max_events_bound():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    sim.run(max_events=10)
    assert sim.events_run == 10


def test_idle_hook_can_extend_the_run():
    sim = Simulator()
    extended = []

    def hook():
        if not extended:
            extended.append(True)
            sim.schedule(1.0, lambda: extended.append("ran"))

    sim.add_idle_hook(hook)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert "ran" in extended


def test_rng_is_seeded_and_deterministic():
    values_a = [Simulator(seed=7).rng.random() for __ in range(3)]
    values_b = [Simulator(seed=7).rng.random() for __ in range(3)]
    assert values_a == values_b
    assert values_a != [Simulator(seed=8).rng.random() for __ in range(3)]


def test_run_until_max_events_bound_is_exact():
    """The guard fires after exactly max_events callbacks, not one more."""
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        sim.run_until(lambda: False, max_events=100)
    assert sim.events_run == 100


def test_run_until_succeeds_on_the_last_allowed_event():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(1)
        if len(fired) < 10:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run_until(lambda: len(fired) == 10, max_events=10)
    assert len(fired) == 10


def test_mass_cancellation_keeps_queue_bounded():
    """Cancelling 10k timers compacts the heap instead of leaking."""
    sim = Simulator()
    ran = []
    for i in range(100):
        sim.schedule(float(i + 1), ran.append, i)
    dead = [sim.schedule(1000.0 + i, ran.append, "dead") for i in range(10_000)]
    for handle in dead:
        sim.cancel(handle)
    assert sim.pending_events() == 100
    # The heap holds the live events plus at most a compaction
    # threshold's worth of cancelled stragglers -- not all 10k.
    assert len(sim._queue) < 100 + 300
    sim.run()
    assert sim.events_run == 100
    assert ran == list(range(100))


def test_cancel_after_execution_keeps_counts_consistent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    later = sim.schedule(2.0, lambda: None)
    sim.run()
    sim.cancel(handle)  # already ran: must not corrupt the live count
    sim.cancel(handle)  # double-cancel: idempotent
    sim.cancel(later)
    assert sim.pending_events() == 0
    assert sim._cancelled_in_queue == 0


def test_pending_events_is_live_count_through_churn():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
    for handle in handles[::2]:
        sim.cancel(handle)
    assert sim.pending_events() == 250
    sim.run(max_events=100)
    assert sim.pending_events() == 150
