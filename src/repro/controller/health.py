"""Daemon liveness: heartbeats, degradation, bounded recovery probes.

The controller holds one :class:`HealthMonitor` with one
:class:`MachineHealth` per machine: all it believes about that
machine's meterdaemon.  Every outcome that says anything about a
daemon -- a user command's RPC, a liveness ping -- flows through the
same two transitions (:meth:`~HealthMonitor.note_success`,
:meth:`~HealthMonitor.note_failure`), so a machine cannot be
half-degraded depending on who last talked to it.

Three states; a move off the ``_EDGES`` table raises (as ``states.py``
does for Figure 4.2):

- *healthy*: pinged every ``HEARTBEAT_MS`` while the user is active (a
  command or RPC within the last ``HEARTBEAT_MS * IDLE_ROUNDS``).
- *probing*: stopped answering (one warning, visible in ``jobs``);
  re-probed with exponential backoff from ``PROBE_MIN_MS`` to
  ``PROBE_CAP_MS``, at most ``PROBES_PER_EPISODE`` probes.
- *dormant*: the episode's probes are spent; nothing is scheduled
  until activity re-arms a new episode.

Dormancy is load-bearing: the controller idles in a select with no
timeout when nothing is scheduled, so a finished session quiesces and
``settle()`` terminates.  Probes are single-attempt and silent except
for state transitions.
"""

HEARTBEAT_MS = 400.0
IDLE_ROUNDS = 5
PROBE_MIN_MS = 300.0
PROBE_CAP_MS = 4000.0
PROBES_PER_EPISODE = 8

#: Per-probe connect/receive deadline.  Shorter than the RPC deadline:
#: a probe asks one cheap question and gives up fast.
PROBE_DEADLINE_MS = 800.0

HEALTHY = "healthy"
PROBING = "probing"
DORMANT = "dormant"

_EDGES = {
    (HEALTHY, PROBING),  # an exchange failed
    (PROBING, DORMANT),  # the episode's last probe failed
    (DORMANT, PROBING),  # activity re-arms a new episode
    (PROBING, HEALTHY),  # an exchange succeeded
    (DORMANT, HEALTHY),
}


class MachineHealth:
    """What the controller believes about one machine's meterdaemon."""

    __slots__ = (
        "state",
        "failures",
        "last_probe_ms",
        "next_probe_ms",
        "backoff_ms",
        "probes_left",
        "boot",
        "owed",
    )

    def __init__(self):
        self.state = HEALTHY
        self.failures = 0
        self.last_probe_ms = None
        self.next_probe_ms = None
        self.backoff_ms = PROBE_MIN_MS
        self.probes_left = 0
        #: Boot epoch of the daemon's last reply that carried one.
        self.boot = None
        #: Filters whose REMETER here failed: the kernel may hold their
        #: batches spooled under retired ports, and only this daemon can
        #: drain them, so the machine stays watched until one succeeds.
        self.owed = set()

    def _move(self, state):
        if (self.state, state) not in _EDGES:
            raise ValueError("illegal health move {0} -> {1}".format(self.state, state))
        self.state = state

    def _start_episode(self, now):
        self._move(PROBING)
        self.backoff_ms = PROBE_MIN_MS
        self.probes_left = PROBES_PER_EPISODE
        self.next_probe_ms = now + self.backoff_ms


class HealthMonitor:
    """Single transition path for daemon health, plus the probe clock."""

    def __init__(self):
        self.machines = {}  # name -> MachineHealth
        self.active_until = 0.0

    def entry(self, machine):
        return self.machines.setdefault(machine, MachineHealth())

    # -- activity and scheduling ----------------------------------------

    def note_activity(self, now):
        """A user command or RPC happened: keep heartbeats running for
        another idle window, and re-arm dormant recovery probes."""
        self.active_until = now + HEARTBEAT_MS * IDLE_ROUNDS
        for health in self.machines.values():
            if health.state == DORMANT:
                health._start_episode(now)

    def watch(self, machine, now):
        """Ensure a machine hosting session state is on the heartbeat
        schedule."""
        health = self.entry(machine)
        if health.state == HEALTHY and health.next_probe_ms is None:
            health.next_probe_ms = now + HEARTBEAT_MS

    def _armed(self, health):
        if health.state == HEALTHY:
            return (
                health.next_probe_ms is not None
                and health.next_probe_ms <= self.active_until
            )
        return health.state == PROBING

    def next_wakeup(self, watched):
        """Earliest scheduled probe among ``watched`` machines, or None
        when every machine is dormant (the select blocks indefinitely)."""
        deadline = None
        for name in watched:
            health = self.machines.get(name)
            if health is None or not self._armed(health):
                continue
            if deadline is None or health.next_probe_ms < deadline:
                deadline = health.next_probe_ms
        return deadline

    def due(self, now, watched):
        """Machines whose probe deadline has arrived, in name order."""
        ready = []
        for name in watched:
            health = self.machines.get(name)
            if health is None or not self._armed(health):
                continue
            if health.next_probe_ms <= now + 1e-9:
                ready.append(name)
        return sorted(ready)

    # -- the shared transitions -----------------------------------------

    def note_success(self, machine, now, boot):
        """Any successful exchange; ``boot`` is the epoch the reply
        carried, if any.  Returns "recovered" when this ended a
        degradation, "restarted" when the epoch changed on a machine
        believed healthy (the whole outage fit between two heartbeats),
        else None -- either string means reconcile.  The epoch is stored
        first, so the reconcile's own RPCs do not read as a restart."""
        health = self.entry(machine)
        known, change = health.boot, None
        if boot is not None:
            health.boot = boot
        if health.state != HEALTHY:
            health._move(HEALTHY)
            change = "recovered"
        elif boot is not None and known is not None and boot != known:
            change = "restarted"
        health.failures = 0
        health.last_probe_ms = now
        health.next_probe_ms = now + HEARTBEAT_MS
        return change

    def note_failure(self, machine, now):
        """Any failed exchange (retry budget already spent by the
        caller).  Returns True when this marked the machine degraded
        (emit the degradation warning)."""
        health = self.entry(machine)
        health.failures += 1
        health.last_probe_ms = now
        if health.state == HEALTHY:
            health._start_episode(now)
            return True
        if health.state == PROBING:
            health.probes_left -= 1
            if health.probes_left <= 0:
                health._move(DORMANT)
            else:
                health.backoff_ms = min(health.backoff_ms * 2.0, PROBE_CAP_MS)
                health.next_probe_ms = now + health.backoff_ms
        return False

    # -- queries ---------------------------------------------------------

    def owing(self):
        """Machines owing a drain: they stay watched until it is paid."""
        return {name for name, health in self.machines.items() if health.owed}

    def is_degraded(self, machine):
        health = self.machines.get(machine)
        return health is not None and health.state != HEALTHY
