"""Model-based check of the controller's per-machine health record.

A Hypothesis state machine drives one :class:`HealthMonitor` -- no
simulator -- through what the controller can do to it: user activity,
failed and successful exchanges (the reply carrying the boot epoch
already known or a new one), probes when the schedule says they are
due, and remeter debts owed and paid, all at non-decreasing times.
After every step it checks the table and the promises the controller
leans on:

- every state change is an edge of ``health._EDGES``;
- ``note_success`` says "recovered" once per degradation and
  "restarted" once per boot change of a healthy daemon, else None;
- an episode makes at most ``PROBES_PER_EPISODE`` probes;
- a dormant machine schedules nothing;
- a machine owing a drain stays watched until it is paid.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.controller import health

MACHINES = ("blue", "green", "red")
FILTERS = ("f1", "f2")

machines = st.sampled_from(MACHINES)
filters = st.sampled_from(FILTERS)
delays = st.floats(min_value=0.0, max_value=6000.0, allow_nan=False)


class HealthModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.monitor = health.HealthMonitor()
        self.now = 0.0
        self.next_boot = 1
        # The model's own belief, kept apart from the monitor's.
        self.degraded = {name: False for name in MACHINES}
        self.boot = {name: None for name in MACHINES}
        self.owed = {name: set() for name in MACHINES}
        self.states = {}
        self.probes = {name: 0 for name in MACHINES}

    def _tick(self, delay):
        self.now += delay

    def _fail(self, machine):
        became_degraded = self.monitor.note_failure(machine, self.now)
        assert became_degraded is not self.degraded[machine]
        self.degraded[machine] = True

    def _succeed(self, machine, new_boot):
        known = self.boot[machine]
        if new_boot or known is None:
            boot = self.next_boot
            self.next_boot += 1
        else:
            boot = known
        if self.degraded[machine]:
            expected = "recovered"
        elif known is not None and boot != known:
            expected = "restarted"
        else:
            expected = None
        assert self.monitor.note_success(machine, self.now, boot) == expected
        self.degraded[machine] = False
        self.boot[machine] = boot

    @rule(delay=delays)
    def activity(self, delay):
        self._tick(delay)
        self.monitor.note_activity(self.now)
        for machine in MACHINES:
            self.monitor.watch(machine, self.now)

    @rule(machine=machines, delay=delays)
    def failure(self, machine, delay):
        self._tick(delay)
        self._fail(machine)

    @rule(machine=machines, delay=delays, new_boot=st.booleans())
    def success(self, machine, delay, new_boot):
        self._tick(delay)
        self._succeed(machine, new_boot)

    @rule(answers=st.booleans(), rounds=st.integers(1, 12))
    def probe(self, answers, rounds):
        """Run the next ``rounds`` probes the schedule asks for, as the
        controller's select loop does: enough to spend an episode."""
        for __ in range(rounds):
            deadline = self.monitor.next_wakeup(MACHINES)
            if deadline is None:
                return
            self.now = max(self.now, deadline)
            for machine in self.monitor.due(self.now, MACHINES):
                if self.monitor.entry(machine).state == health.PROBING:
                    self.probes[machine] += 1
                if answers:
                    self._succeed(machine, new_boot=False)
                else:
                    self._fail(machine)
            self.transitions_are_table_edges()

    @rule(machine=machines, name=filters)
    def owe(self, machine, name):
        self.monitor.entry(machine).owed.add(name)
        self.owed[machine].add(name)

    @rule(machine=machines, name=filters)
    def pay(self, machine, name):
        self.monitor.entry(machine).owed.discard(name)
        self.owed[machine].discard(name)

    @invariant()
    def transitions_are_table_edges(self):
        for name, entry in self.monitor.machines.items():
            old = self.states.get(name, health.HEALTHY)
            if entry.state != old:
                assert (old, entry.state) in health._EDGES
                if entry.state == health.PROBING:
                    self.probes[name] = 0  # a new episode
            self.states[name] = entry.state

    @invariant()
    def degradation_matches_the_model(self):
        for name in MACHINES:
            assert self.monitor.is_degraded(name) is self.degraded[name]

    @invariant()
    def episodes_are_bounded(self):
        for name in MACHINES:
            assert self.probes[name] <= health.PROBES_PER_EPISODE

    @invariant()
    def dormant_machines_schedule_nothing(self):
        for name, entry in self.monitor.machines.items():
            if entry.state == health.DORMANT:
                assert self.monitor.next_wakeup([name]) is None
                assert self.monitor.due(self.now + 1e9, [name]) == []

    @invariant()
    def debtors_stay_watched(self):
        assert self.monitor.owing() == {
            name for name, owed in self.owed.items() if owed
        }
        for name, owed in self.owed.items():
            assert self.monitor.entry(name).owed == owed


TestHealthModel = HealthModel.TestCase
TestHealthModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


def test_an_edge_missing_from_the_table_raises():
    record = health.MachineHealth()
    with pytest.raises(ValueError):
        record._move(health.DORMANT)
