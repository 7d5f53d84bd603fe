"""Order oracle for the event queue.

Random programs of ``schedule`` / ``schedule_at`` / ``call_soon`` /
``cancel`` -- issued from the top level and from inside callbacks --
interleaved with ``run``, ``step`` and ``run_until`` are executed on
:class:`Simulator` and on a deliberately naive reference kept here (a
list, re-sorted by ``(time, seq)`` for every event).  Both must run the
same callbacks in the same order at the same times and agree on
``now``, ``events_run`` and ``pending_events()`` after every call.

Neither side's handles are ever inspected: they are only passed back
to ``cancel``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.errors import SimulationDeadlock, SimulationError
from repro.sim.simulator import _COMPACT_MIN_CANCELLED, Simulator


class ReferenceScheduler:
    """The queue as a plain list, sorted on every look."""

    def __init__(self):
        self.now = 0.0
        self.events_run = 0
        self._seq = 0
        self._entries = []  # [time, seq, callback, args], live ones only

    def schedule(self, delay_ms, callback, *args):
        if delay_ms < 0:
            raise SimulationError("cannot schedule into the past")
        entry = [self.now + delay_ms, self._seq, callback, args]
        self._seq += 1
        self._entries.append(entry)
        return entry

    def schedule_at(self, time_ms, callback, *args):
        return self.schedule(max(0.0, time_ms - self.now), callback, *args)

    def call_soon(self, callback, *args):
        return self.schedule(0.0, callback, *args)

    def cancel(self, entry):
        if any(entry is live for live in self._entries):
            self._entries.remove(entry)

    def pending_events(self):
        return len(self._entries)

    def _next(self):
        self._entries.sort(key=lambda entry: (entry[0], entry[1]))
        return self._entries[0] if self._entries else None

    def step(self):
        entry = self._next()
        if entry is None:
            return False
        self._entries.remove(entry)
        self.now = entry[0]
        self.events_run += 1
        entry[2](*entry[3])
        return True

    def run(self, until_ms=None, max_events=None):
        count = 0
        while max_events is None or count < max_events:
            entry = self._next()
            if entry is None:
                if until_ms is not None and until_ms > self.now:
                    self.now = until_ms
                return
            if until_ms is not None and entry[0] > until_ms:
                self.now = until_ms
                return
            self.step()
            count += 1

    def run_until(self, predicate, max_events=1_000_000):
        count = 0
        while not predicate():
            if self._next() is None:
                raise SimulationDeadlock(["reference"])
            if count >= max_events:
                raise SimulationError("reference exceeded max_events")
            self.step()
            count += 1


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

# Few distinct delays, so equal times (ties broken by insertion order)
# are the common case.
_delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 7.0])
_times = st.sampled_from([0.0, 1.0, 3.0, 3.0, 8.0, 20.0])
_handle_refs = st.integers(min_value=0, max_value=10_000)

_actions = st.one_of(
    st.tuples(st.just("schedule"), _delays),
    st.tuples(st.just("schedule_at"), _times),
    st.tuples(st.just("call_soon")),
    st.tuples(st.just("cancel"), _handle_refs),
    st.tuples(st.just("cancel_self")),
)

_limits = st.one_of(st.none(), st.integers(min_value=0, max_value=6))

_top_level = st.one_of(
    _actions,
    _actions,
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.one_of(st.none(), _delays), _limits),
    st.tuples(
        st.just("run_until"),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=8),
    ),
    # Enough timers and enough cancels to cross the compaction
    # threshold while other events are queued.
    st.tuples(
        st.just("churn"),
        st.integers(
            min_value=_COMPACT_MIN_CANCELLED, max_value=2 * _COMPACT_MIN_CANCELLED
        ),
        st.integers(min_value=1, max_value=3),
    ),
)

_programs = st.tuples(
    # behaviours[i]: what the i-th callback ever created does when it
    # runs (callbacks created beyond the table do nothing).
    st.lists(st.lists(_actions, max_size=4), max_size=25),
    st.lists(_top_level, min_size=1, max_size=30),
)


def execute(scheduler, program):
    """Run ``program`` on ``scheduler``; returns everything observable."""
    behaviours, operations = program
    observed = []
    handles = []
    ran = []

    def act(action, own_index=None):
        kind = action[0]
        if kind == "cancel":
            if handles:
                scheduler.cancel(handles[action[1] % len(handles)])
        elif kind == "cancel_self":
            if own_index is not None:
                scheduler.cancel(handles[own_index])
        else:
            index = len(handles)
            handles.append(None)  # the callback may run before we return
            if kind == "schedule":
                handle = scheduler.schedule(action[1], fire, index)
            elif kind == "schedule_at":
                handle = scheduler.schedule_at(action[1], fire, index)
            else:
                handle = scheduler.call_soon(fire, index)
            handles[index] = handle

    def fire(index):
        ran.append(index)
        observed.append(("ran", index, scheduler.now, scheduler.events_run))
        if index < len(behaviours):
            for action in behaviours[index]:
                act(action, own_index=index)

    for operation in operations:
        kind = operation[0]
        if kind == "step":
            observed.append(("step", scheduler.step()))
        elif kind == "run":
            __, ahead, max_events = operation
            until_ms = None if ahead is None else scheduler.now + ahead
            scheduler.run(until_ms=until_ms, max_events=max_events)
        elif kind == "run_until":
            __, more, max_events = operation
            target = len(ran) + more
            try:
                scheduler.run_until(
                    lambda: len(ran) >= target, max_events=max_events
                )
            except SimulationDeadlock:
                observed.append(("deadlock",))
            except SimulationError:
                observed.append(("max_events",))
        elif kind == "churn":
            __, count, keep_every = operation
            first = len(handles)
            for offset in range(count):
                act(("schedule", 5.0 + offset % 7))
            for index in range(first, first + count):
                if (index - first) % (keep_every + 1):
                    scheduler.cancel(handles[index])
                    scheduler.cancel(handles[index])  # double cancel: no-op
        else:
            act(operation)
        observed.append(
            ("after", kind, scheduler.now, scheduler.events_run,
             scheduler.pending_events())
        )
    scheduler.run()
    observed.append(
        ("drained", scheduler.now, scheduler.events_run, scheduler.pending_events())
    )
    return observed


@given(_programs)
@settings(max_examples=300, deadline=None)
def test_simulator_runs_the_reference_schedule(program):
    assert execute(Simulator(), program) == execute(ReferenceScheduler(), program)


def test_compaction_is_crossed_with_live_events_queued():
    """The generator's ``churn`` really drives the queue through a
    compaction (so the property above covers it)."""
    sim = Simulator()
    program = ([], [("schedule", 1.0), ("churn", 2 * _COMPACT_MIN_CANCELLED, 3)])
    compactions = []
    compact = sim._compact
    sim._compact = lambda: (compactions.append(sim.pending_events()), compact())
    assert execute(sim, program) == execute(ReferenceScheduler(), program)
    assert compactions and all(live > 0 for live in compactions)
