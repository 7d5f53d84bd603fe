"""Seed-derived FaultPlan generation.

``generate_plan(seed, profile, surface)`` turns an integer seed, a
:class:`~repro.chaos.profiles.ChaosProfile`, and a
:class:`FaultSurface` (what there is to break) into a concrete
:class:`~repro.faults.plan.FaultPlan` whose times are *relative* to the
moment the workload starts (the run harness shifts them onto the
simulator clock).

Determinism contract: every draw flows through one
``random.Random("<profile>:<seed>")`` -- string seeding hashes through
SHA-512, so the stream is identical across processes and platforms.
Same ``(seed, profile, surface)`` => a byte-identical
``plan.to_json()``.  Times are quantized to 0.1 ms so serialized plans
are stable and human-readable.

Recovery pairing: moves that take a component away always schedule the
matching recovery inside the horizon (heal after partition, init's
daemon restart after a daemon kill, reboot after crash, a fresh
controller after a controller kill), so a generated plan has no open
move (:meth:`FaultPlan.moves` pairs them back up for the shrinker).
Leaving a component down is a scenario choice, not a generator draw.
"""

import random

from repro.chaos import profiles as prof
from repro.faults.plan import FaultPlan


class FaultSurface:
    """What a scenario exposes to the fault generator.

    ``daemon_kill_machines`` excludes the filter machine by default: a
    filter with no live daemon has no supervisor, and a schedule that
    kills both in the wrong order would lose records by design rather
    than by bug.  ``crash_machines`` likewise excludes the control and
    filter machines -- crashing the machine the monitor itself lives on
    is a scenario decision, not something a weighted draw should do.
    """

    def __init__(
        self,
        machines,
        control_machine,
        filter_machine,
        store_prefix,
        daemon_kill_machines=None,
        crash_machines=None,
    ):
        self.machines = tuple(machines)
        self.control_machine = str(control_machine)
        self.filter_machine = str(filter_machine)
        self.store_prefix = str(store_prefix)
        default_targets = tuple(
            name
            for name in self.machines
            if name not in (self.control_machine, self.filter_machine)
        )
        self.daemon_kill_machines = tuple(
            daemon_kill_machines
            if daemon_kill_machines is not None
            else default_targets
        )
        self.crash_machines = tuple(
            crash_machines if crash_machines is not None else default_targets
        )
        if not self.daemon_kill_machines:
            raise ValueError("surface has no daemon-kill targets")


def generate_plan(seed, profile, surface):
    """One seed-derived schedule; times relative to workload start."""
    if isinstance(profile, str):
        profile = prof.get_profile(profile)
    rng = random.Random("{0}:{1}".format(profile.name, int(seed)))
    plan = FaultPlan(machines=surface.machines)
    moves = rng.randint(*profile.moves)
    move_names = list(profile.weights)
    move_weights = [profile.weights[name] for name in move_names]
    controller_outages = 0
    for __ in range(moves):
        move = rng.choices(move_names, weights=move_weights, k=1)[0]
        if move == prof.CONTROLLER_OUTAGE:
            if controller_outages >= profile.controller_outage_limit:
                # Redraw deterministically: burn the move on a loss
                # burst instead of skewing the stream with a retry loop.
                move = prof.LOSS_BURST
            else:
                controller_outages += 1
        _MOVES[move](rng, profile, surface, plan)
    return plan


def _quantize(value):
    return round(value, 1)


def _inject_time(rng, profile):
    """When a one-shot fault fires: anywhere in the first 80% of the
    horizon (leaving room for the system to re-settle)."""
    return _quantize(rng.uniform(0.0, profile.horizon_ms * 0.8))


def _outage_window(rng, profile):
    """(down_at, back_at) for a paired move, both inside the horizon."""
    down = _quantize(rng.uniform(0.0, profile.horizon_ms * 0.6))
    back = _quantize(
        down
        + rng.uniform(
            profile.min_gap_ms,
            max(profile.min_gap_ms + 0.1, profile.horizon_ms - down),
        )
    )
    return down, min(back, profile.horizon_ms)


def _move_kill_filter(rng, profile, surface, plan):
    plan.kill_filter(_inject_time(rng, profile), surface.filter_machine)


def _move_daemon_outage(rng, profile, surface, plan):
    machine = rng.choice(surface.daemon_kill_machines)
    down, back = _outage_window(rng, profile)
    plan.kill_daemon(down, machine)
    plan.restart_daemon(back, machine)


def _move_partition(rng, profile, surface, plan):
    machines = list(surface.machines)
    cut = rng.randint(1, len(machines) - 1)
    island = rng.sample(machines, cut)
    mainland = [name for name in machines if name not in island]
    down, back = _outage_window(rng, profile)
    plan.partition(down, [island, mainland])
    plan.heal(back)


def _move_loss_burst(rng, profile, surface, plan):
    plan.loss_burst(
        _inject_time(rng, profile),
        duration_ms=_quantize(rng.uniform(*profile.burst_duration_ms)),
        loss=round(rng.uniform(*profile.loss_range), 3),
    )


def _move_latency_spike(rng, profile, surface, plan):
    plan.latency_spike(
        _inject_time(rng, profile),
        duration_ms=_quantize(rng.uniform(*profile.burst_duration_ms)),
        extra_ms=_quantize(rng.uniform(*profile.latency_extra_ms)),
    )


def _move_controller_outage(rng, profile, surface, plan):
    down, back = _outage_window(rng, profile)
    plan.kill_controller(down)
    plan.restart_controller(back)


def _move_storage_bit_rot(rng, profile, surface, plan):
    plan.storage_bit_rot(
        _inject_time(rng, profile),
        surface.filter_machine,
        surface.store_prefix,
        flips=rng.randint(*profile.flips_range),
        seed=rng.randrange(1 << 16),
    )


def _move_storage_drop_flush(rng, profile, surface, plan):
    plan.storage_drop_flush(
        _inject_time(rng, profile),
        surface.filter_machine,
        surface.store_prefix,
    )


def _move_storage_torn_write(rng, profile, surface, plan):
    plan.storage_torn_write(
        _inject_time(rng, profile),
        surface.filter_machine,
        surface.store_prefix,
        drop_bytes=rng.randint(*profile.torn_bytes_range),
    )


def _move_machine_outage(rng, profile, surface, plan):
    if not surface.crash_machines:
        raise ValueError(
            "profile {0!r} crashes machines but the surface exposes no "
            "crash targets".format(profile.name)
        )
    machine = rng.choice(surface.crash_machines)
    down, back = _outage_window(rng, profile)
    plan.crash(down, machine)
    plan.reboot(back, machine, restart_daemon=True)


_MOVES = {
    prof.KILL_FILTER: _move_kill_filter,
    prof.DAEMON_OUTAGE: _move_daemon_outage,
    prof.PARTITION: _move_partition,
    prof.LOSS_BURST: _move_loss_burst,
    prof.LATENCY_SPIKE: _move_latency_spike,
    prof.CONTROLLER_OUTAGE: _move_controller_outage,
    prof.STORAGE_BIT_ROT: _move_storage_bit_rot,
    prof.STORAGE_DROP_FLUSH: _move_storage_drop_flush,
    prof.STORAGE_TORN_WRITE: _move_storage_torn_write,
    prof.MACHINE_OUTAGE: _move_machine_outage,
}
