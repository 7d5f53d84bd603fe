"""FaultPlan: a declarative, seed-reproducible schedule of faults.

A plan is an ordered list of :class:`FaultEvent` entries, each pinned
to an absolute simulated time.  Building a plan performs no action;
:class:`~repro.faults.injector.FaultInjector` arms it on a cluster.
Builder methods chain::

    plan = (FaultPlan()
            .kill_daemon(at_ms=150.0, machine="green")
            .partition(at_ms=200.0, groups=[["red", "blue", "yellow"], ["green"]])
            .heal(at_ms=400.0)
            .crash(at_ms=500.0, machine="red")
            .reboot(at_ms=800.0, machine="red"))

Every builder validates its arguments at call time -- a bad machine
name (when the plan was built with ``machines=...``), a negative time,
or a nonsense parameter (``flips <= 0``, ``loss`` outside [0, 1]) is a
``ValueError`` here, not a failure deep inside the injector mid-run.
Plans round-trip through JSON (:meth:`to_jsonable` /
:meth:`from_jsonable` / :meth:`to_json`), which is what the chaos
search engine stores in its replayable artifacts.
"""

import json
import math

# Fault kinds.
CRASH = "crash"
REBOOT = "reboot"
PARTITION = "partition"
HEAL = "heal"
LOSS_BURST = "loss_burst"
LATENCY_SPIKE = "latency_spike"
KILL_PROCESS = "kill_process"
KILL_CONTROLLER = "kill_controller"
RESTART_CONTROLLER = "restart_controller"
RESTART_DAEMON = "restart_daemon"
STORAGE_TORN_WRITE = "storage_torn_write"
STORAGE_DROP_FLUSH = "storage_drop_flush"
STORAGE_BIT_ROT = "storage_bit_rot"

#: Kinds that damage the storage medium (weakens trace-equality oracles).
STORAGE_KINDS = frozenset(
    (STORAGE_TORN_WRITE, STORAGE_DROP_FLUSH, STORAGE_BIT_ROT)
)
#: Kinds that destroy computation state the self-healing machinery does
#: not promise to recover (a crashed machine's processes are gone).
DESTRUCTIVE_KINDS = frozenset((CRASH, REBOOT))
#: Recovery kind -> the outage kind it closes (a daemon restart closes
#: a ``kill_process`` of the meterdaemon, on the same machine).
RECOVERS = {
    HEAL: PARTITION,
    REBOOT: CRASH,
    RESTART_DAEMON: KILL_PROCESS,
    RESTART_CONTROLLER: KILL_CONTROLLER,
}


class FaultEvent:
    """One scheduled fault: a kind, an absolute time, and arguments."""

    __slots__ = ("at_ms", "kind", "args")

    def __init__(self, at_ms, kind, **args):
        if not isinstance(at_ms, (int, float)) or not math.isfinite(at_ms):
            raise ValueError("fault time must be a finite number, got %r" % (at_ms,))
        if at_ms < 0:
            raise ValueError("fault time must be >= 0, got %r" % at_ms)
        self.at_ms = float(at_ms)
        self.kind = kind
        self.args = args

    def describe(self):
        details = " ".join(
            "{0}={1}".format(key, value)
            for key, value in sorted(self.args.items())
        )
        return "[{0:10.3f}] {1}{2}".format(
            self.at_ms, self.kind, " " + details if details else ""
        )

    def to_jsonable(self):
        """JSON-native form: ``{"at_ms": ..., "kind": ..., <args>}``."""
        entry = {"at_ms": self.at_ms, "kind": self.kind}
        for key, value in self.args.items():
            if key == "groups":
                value = [list(group) for group in value]
            entry[key] = value
        return entry

    def __repr__(self):
        return "FaultEvent({0!r}, at={1}, {2})".format(
            self.kind, self.at_ms, self.args
        )


class FaultPlan:
    """An ordered schedule of faults on the simulator clock.

    ``machines``, when given, is the set of valid machine names: every
    builder call naming a machine outside it raises ``ValueError``
    immediately.  Without it the check still happens, but only when the
    :class:`~repro.faults.injector.FaultInjector` arms the plan.
    """

    def __init__(self, machines=None):
        self.events = []
        self.machines = frozenset(machines) if machines is not None else None

    def _check_machine(self, machine):
        machine = str(machine)
        if not machine:
            raise ValueError("machine name must be non-empty")
        if self.machines is not None and machine not in self.machines:
            raise ValueError(
                "fault plan names unknown machine {0!r} (plan allows: "
                "{1})".format(machine, ", ".join(sorted(self.machines)))
            )
        return machine

    def _add(self, at_ms, kind, **args):
        self.events.append(FaultEvent(at_ms, kind, **args))
        return self

    # -- machines --------------------------------------------------------

    def crash(self, at_ms, machine):
        """Power the machine off: processes die unflushed, peers see
        connection resets, in-flight traffic is destroyed."""
        return self._add(at_ms, CRASH, machine=self._check_machine(machine))

    def reboot(self, at_ms, machine, restart_daemon=True):
        """Bring a crashed machine back with a cold kernel.  With
        ``restart_daemon`` (and a session armed on the injector) a fresh
        meterdaemon is spawned, as init would."""
        return self._add(
            at_ms,
            REBOOT,
            machine=self._check_machine(machine),
            restart_daemon=bool(restart_daemon),
        )

    # -- network ---------------------------------------------------------

    def partition(self, at_ms, groups):
        """Split the internetwork into ``groups`` (lists of machine
        names); traffic crosses no group boundary and in-flight reliable
        traffic across the cut is destroyed.  Hosts in no group share
        one implicit group."""
        frozen = tuple(
            tuple(self._check_machine(name) for name in group)
            for group in groups
        )
        if not frozen:
            raise ValueError("partition needs at least one group")
        if any(not group for group in frozen):
            raise ValueError("partition groups must be non-empty")
        seen = set()
        for group in frozen:
            for name in group:
                if name in seen:
                    raise ValueError(
                        "machine {0!r} appears in two partition "
                        "groups".format(name)
                    )
                seen.add(name)
        return self._add(at_ms, PARTITION, groups=frozen)

    def heal(self, at_ms):
        """End the partition.  Connections broken by it stay broken;
        new connections succeed."""
        return self._add(at_ms, HEAL)

    def loss_burst(self, at_ms, duration_ms, loss):
        """Add ``loss`` (0..1) datagram loss probability on remote links
        for ``duration_ms``."""
        duration_ms, loss = float(duration_ms), float(loss)
        if duration_ms <= 0:
            raise ValueError("loss_burst duration must be > 0, got %r" % duration_ms)
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss probability must be in [0, 1], got %r" % loss)
        return self._add(at_ms, LOSS_BURST, duration_ms=duration_ms, loss=loss)

    def latency_spike(self, at_ms, duration_ms, extra_ms):
        """Add ``extra_ms`` one-way latency on remote links for
        ``duration_ms``."""
        duration_ms, extra_ms = float(duration_ms), float(extra_ms)
        if duration_ms <= 0:
            raise ValueError(
                "latency_spike duration must be > 0, got %r" % duration_ms
            )
        if extra_ms <= 0:
            raise ValueError(
                "latency_spike extra_ms must be > 0, got %r" % extra_ms
            )
        return self._add(
            at_ms, LATENCY_SPIKE, duration_ms=duration_ms, extra_ms=extra_ms
        )

    # -- processes -------------------------------------------------------

    def kill_process(self, at_ms, machine, program):
        """SIGKILL every live process named ``program`` on ``machine``."""
        if not str(program):
            raise ValueError("kill_process needs a program name")
        return self._add(
            at_ms,
            KILL_PROCESS,
            machine=self._check_machine(machine),
            program=str(program),
        )

    def kill_daemon(self, at_ms, machine):
        """SIGKILL the machine's meterdaemon (control plane loss)."""
        return self.kill_process(at_ms, machine, "meterdaemon")

    def kill_filter(self, at_ms, machine):
        """SIGKILL every filter process on ``machine`` (its daemon is
        expected to notice and relaunch them)."""
        return self.kill_process(at_ms, machine, "filter")

    def restart_daemon(self, at_ms, machine):
        """Spawn a fresh meterdaemon on ``machine`` (init restarting a
        crashed daemon; pair with :meth:`kill_daemon`).  Requires a
        session armed on the injector."""
        return self._add(
            at_ms, RESTART_DAEMON, machine=self._check_machine(machine)
        )

    # -- storage ---------------------------------------------------------

    def storage_torn_write(self, at_ms, machine, path_prefix, drop_bytes):
        """Tear the tail off the newest file matching ``path_prefix``
        on ``machine`` (the last ``drop_bytes`` bytes never reached the
        platter).  Pair with :meth:`crash` at the same instant for a
        realistic power-fail torn write; a trace-store segment damaged
        this way reads back as a torn tail / salvageable segment."""
        drop_bytes = int(drop_bytes)
        if drop_bytes <= 0:
            raise ValueError(
                "storage_torn_write drop_bytes must be > 0, got %r" % drop_bytes
            )
        return self._add(
            at_ms,
            STORAGE_TORN_WRITE,
            machine=self._check_machine(machine),
            path_prefix=self._check_path_prefix(path_prefix),
            drop_bytes=drop_bytes,
        )

    def storage_drop_flush(self, at_ms, machine, path_prefix):
        """Arm a one-shot medium lie on ``machine``: the next guest
        write to a file matching ``path_prefix`` is acknowledged but
        silently discarded (a dropped sync).  Detected by per-frame
        CRCs / salvage accounting on read."""
        return self._add(
            at_ms,
            STORAGE_DROP_FLUSH,
            machine=self._check_machine(machine),
            path_prefix=self._check_path_prefix(path_prefix),
        )

    def storage_bit_rot(self, at_ms, machine, path_prefix, flips=1, seed=0):
        """Flip ``flips`` seed-chosen bits across the at-rest bytes of
        every file matching ``path_prefix`` on ``machine`` (bit rot /
        post-crash corruption).  Deterministic: same seed, same bits."""
        flips = int(flips)
        if flips <= 0:
            raise ValueError("storage_bit_rot flips must be > 0, got %r" % flips)
        return self._add(
            at_ms,
            STORAGE_BIT_ROT,
            machine=self._check_machine(machine),
            path_prefix=self._check_path_prefix(path_prefix),
            flips=flips,
            seed=int(seed),
        )

    @staticmethod
    def _check_path_prefix(path_prefix):
        path_prefix = str(path_prefix)
        if not path_prefix:
            raise ValueError("storage fault needs a non-empty path_prefix")
        return path_prefix

    # -- the controller ---------------------------------------------------

    def kill_controller(self, at_ms):
        """SIGKILL the session's control process (the user's tool
        crashes; the session journal survives).  Requires a session
        armed on the injector."""
        return self._add(at_ms, KILL_CONTROLLER)

    def restart_controller(self, at_ms):
        """Start a fresh control process on the session's terminal
        (killing any survivor first).  The operator then types
        ``resume``.  Requires a session armed on the injector."""
        return self._add(at_ms, RESTART_CONTROLLER)

    # --------------------------------------------------------------------

    def sorted_events(self):
        """Events in firing order (time, then declaration order)."""
        return sorted(
            enumerate(self.events), key=lambda pair: (pair[1].at_ms, pair[0])
        )

    def describe(self):
        """Human-readable schedule, one line per fault."""
        return [event.describe() for __, event in self.sorted_events()]

    def moves(self):
        """The schedule as *moves*, each a list of declaration indices.

        Walking the events in firing order, each recovery closes the
        earliest open outage it recovers (:data:`RECOVERS`; a reboot, a
        daemon restart on the same machine); every other event is a
        move of its own.  An outage no recovery closes is an *open*
        move (:meth:`open_moves`): the plan ends with that component
        down."""
        return self._paired()[0]

    def open_moves(self):
        """The outages no recovery closes (see :meth:`moves`)."""
        return self._paired()[1]

    def _paired(self):
        moves, waiting = [], {}
        for index, event in self.sorted_events():
            target = _target(event)
            if event.kind in RECOVERS and waiting.get(target):
                waiting[target].pop(0).append(index)
                continue
            moves.append([index])
            if target is not None and event.kind not in RECOVERS:
                waiting.setdefault(target, []).append(moves[-1])
        return moves, [move for queue in waiting.values() for move in queue]

    def kinds(self):
        """The set of fault kinds this plan schedules."""
        return {event.kind for event in self.events}

    def has_kind(self, kind):
        return any(event.kind == kind for event in self.events)

    # -- serialization ---------------------------------------------------

    def to_jsonable(self):
        """The schedule as a JSON-native list, in declaration order."""
        return [event.to_jsonable() for event in self.events]

    def to_json(self):
        """Canonical serialized form: byte-identical for identical
        plans (the chaos generator's determinism contract)."""
        return json.dumps(
            self.to_jsonable(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_jsonable(cls, entries, machines=None):
        """Rebuild a plan from :meth:`to_jsonable` output.  Every entry
        passes back through its builder method, so deserialization
        applies the same validation as construction."""
        plan = cls(machines=machines)
        for entry in entries:
            args = dict(entry)
            try:
                at_ms = args.pop("at_ms")
                kind = args.pop("kind")
            except KeyError as err:
                raise ValueError("fault entry missing {0}".format(err))
            builder = getattr(plan, kind, None)
            if builder is None or kind not in _BUILDER_KINDS:
                raise ValueError("unknown fault kind {0!r}".format(kind))
            builder(at_ms, **args)
        return plan

    def shifted(self, delta_ms):
        """A copy with every time moved by ``delta_ms`` (used to pin a
        relative schedule to the moment a workload starts)."""
        entries = self.to_jsonable()
        for entry in entries:
            entry["at_ms"] = entry["at_ms"] + delta_ms
        return type(self).from_jsonable(entries, machines=self.machines)

    def __len__(self):
        return len(self.events)


def _target(event):
    """``(outage kind, machine)`` an outage or recovery event is about;
    None for an event that is neither (a filter kill is not an outage:
    its daemon relaunches the filter)."""
    kind = RECOVERS.get(event.kind, event.kind)
    if kind not in RECOVERS.values() or (
        event.kind == KILL_PROCESS and event.args["program"] != "meterdaemon"
    ):
        return None
    return kind, event.args.get("machine")


#: Kinds reachable through from_jsonable (method name == kind): every
#: outage and recovery, every storage fault, and the two link faults.
_BUILDER_KINDS = (
    frozenset(RECOVERS) | frozenset(RECOVERS.values()) | STORAGE_KINDS
    | frozenset((LOSS_BURST, LATENCY_SPIKE))
)
