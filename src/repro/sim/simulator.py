"""The deterministic discrete-event loop.

Everything in the reproduction -- kernels, the network, daemons, the
controller -- advances by scheduling callbacks on a single global event
queue.  Determinism is a design requirement (DESIGN.md Section 5): given
the same seed, a run produces byte-identical traces, which makes the
paper's example session (Appendix B) reproducible as a test.
"""

import heapq
import itertools
import random

from repro.sim.errors import SimulationDeadlock, SimulationError


class _Event:
    """The cancel handle of one scheduled callback.

    The heap orders ``(time, seq, handle)`` tuples; ``(time, seq)`` is
    unique, so tuple comparison is decided in C before it could reach
    the handle, which therefore needs no ordering of its own.
    ``callback`` is ``None`` once the event has run or been cancelled.
    """

    __slots__ = ("callback", "args")

    def __init__(self, callback, args):
        self.callback = callback
        self.args = args


#: Compaction never triggers below this many cancelled events; tiny
#: queues are cheaper to drain lazily than to rebuild.
_COMPACT_MIN_CANCELLED = 64


class Simulator:
    """Global event queue and simulated clock.

    Time is a float in milliseconds.  Scheduling ties are broken by
    insertion order, so the loop is fully deterministic.
    """

    def __init__(self, seed=0):
        self.now = 0.0
        self.rng = random.Random(seed)
        #: Heap of ``(time, seq, handle)``.  Only ever mutated in place:
        #: the run loops hold it in a local across callbacks.
        self._queue = []
        self._seq = itertools.count()
        self._idle_hooks = []
        self.events_run = 0
        #: Cancelled events still sitting in the heap (lazy removal).
        self._cancelled_in_queue = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay_ms, callback, *args):
        """Run ``callback(*args)`` after ``delay_ms`` of simulated time.

        Returns a handle that can be passed to :meth:`cancel`.
        """
        if delay_ms < 0:
            raise SimulationError("cannot schedule into the past: %r" % delay_ms)
        event = _Event(callback, args)
        heapq.heappush(self._queue, (self.now + delay_ms, next(self._seq), event))
        return event

    def schedule_at(self, time_ms, callback, *args):
        """Run ``callback(*args)`` at absolute simulated time ``time_ms``."""
        return self.schedule(max(0.0, time_ms - self.now), callback, *args)

    def call_soon(self, callback, *args):
        """Run ``callback(*args)`` at the current time, after pending
        events."""
        return self.schedule(0.0, callback, *args)

    def cancel(self, event):
        """Cancel a scheduled event (lazy removal).

        The event stays in the heap until it surfaces or until
        cancelled events outnumber live ones, at which point the heap
        is compacted -- so long timer-churny runs (fault injection,
        retry storms) don't drag a garbage-filled queue.
        """
        if event.callback is None:
            return  # already ran, or already cancelled
        event.callback = None
        event.args = ()
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self):
        """Rebuild the heap without cancelled events."""
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[2].callback is not None]
        heapq.heapify(queue)
        self._cancelled_in_queue = 0

    def add_idle_hook(self, hook):
        """Register ``hook()`` to run when the queue drains.

        If any hook schedules new work the loop continues.  The kernel
        schedulers use this to detect deadlock among blocked processes.
        """
        self._idle_hooks.append(hook)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def step(self):
        """Run the next pending event.  Returns False if queue is empty."""
        queue = self._queue
        while queue:
            time, __, event = heapq.heappop(queue)
            callback = event.callback
            if callback is None:
                self._cancelled_in_queue -= 1
                continue
            if time < self.now:
                raise SimulationError("event queue went backwards")
            self.now = time
            self.events_run += 1
            event.callback = None
            callback(*event.args)
            return True
        return False

    # The two loops below repeat step()'s body rather than call it: they
    # are crossed once per simulated event by every machine, and look at
    # the heap top exactly once per event.

    def run(self, until_ms=None, max_events=None):
        """Run events until the queue drains or a limit is reached.

        ``until_ms`` stops the loop once simulated time would pass that
        point (the clock is left at ``until_ms``).  ``max_events`` bounds
        the number of callbacks, as a runaway guard for tests.
        """
        queue = self._queue
        pop = heapq.heappop
        count = 0
        while max_events is None or count < max_events:
            while queue:
                time, __, event = queue[0]
                callback = event.callback
                if callback is not None:
                    break
                pop(queue)
                self._cancelled_in_queue -= 1
            else:
                if self._run_idle_hooks():
                    continue
                if until_ms is not None and until_ms > self.now:
                    self.now = until_ms  # wall-clock wait with nothing to do
                return
            if until_ms is not None and time > until_ms:
                self.now = until_ms
                return
            pop(queue)
            if time < self.now:
                raise SimulationError("event queue went backwards")
            self.now = time
            self.events_run += 1
            event.callback = None
            callback(*event.args)
            count += 1

    def run_until(self, predicate, max_events=1_000_000):
        """Run until ``predicate()`` is true.

        Raises :class:`SimulationDeadlock` if the queue drains first --
        that means whatever the caller is waiting for can never happen.
        """
        queue = self._queue
        pop = heapq.heappop
        count = 0
        while not predicate():
            while queue:
                time, __, event = queue[0]
                callback = event.callback
                if callback is not None:
                    break
                pop(queue)
                self._cancelled_in_queue -= 1
            else:
                if self._run_idle_hooks():
                    continue
                raise SimulationDeadlock(
                    ["waiting for predicate %r" % getattr(predicate, "__name__", predicate)]
                )
            if count >= max_events:
                raise SimulationError(
                    "run_until exceeded %d events without satisfying the "
                    "predicate" % max_events
                )
            pop(queue)
            if time < self.now:
                raise SimulationError("event queue went backwards")
            self.now = time
            self.events_run += 1
            event.callback = None
            callback(*event.args)
            count += 1

    def pending_events(self):
        """Number of live (non-cancelled) events in the queue.  O(1):
        the count of lazily-cancelled entries is tracked as they are
        cancelled, popped, and compacted away."""
        return len(self._queue) - self._cancelled_in_queue

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _run_idle_hooks(self):
        """Run idle hooks; report whether any scheduled new work."""
        for hook in self._idle_hooks:
            hook()
        return self.pending_events() > 0
