"""The generator's determinism and validity contract: same
``(seed, profile)`` is byte-identical, every schedule is well-formed,
and every outage move carries its recovery inside the horizon."""

import pytest

from repro.chaos.generator import FaultSurface, generate_plan
from repro.chaos.profiles import ALL_MOVES, PROFILES, get_profile
from repro.chaos.scenario import DgramPairScenario
from repro.faults import plan as plan_mod
from repro.faults.plan import FaultPlan


def _surface():
    return DgramPairScenario().surface(log_directory=None)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_same_seed_same_profile_is_byte_identical(profile):
    surface = _surface()
    first = generate_plan(3, profile, surface)
    second = generate_plan(3, profile, surface)
    assert first.to_json() == second.to_json()


def test_byte_identical_across_fresh_surface_objects():
    first = generate_plan(11, "mixed", _surface())
    second = generate_plan(11, "mixed", _surface())
    assert first.to_json() == second.to_json()


def test_different_seeds_differ():
    surface = _surface()
    schedules = {generate_plan(seed, "mixed", surface).to_json() for seed in range(8)}
    assert len(schedules) > 1


def test_different_profiles_differ():
    surface = _surface()
    assert (
        generate_plan(0, "network", surface).to_json()
        != generate_plan(0, "storage", surface).to_json()
    )


def test_round_trips_through_json():
    surface = _surface()
    plan = generate_plan(5, "mixed", surface)
    rebuilt = FaultPlan.from_jsonable(
        plan.to_jsonable(), machines=surface.machines
    )
    assert rebuilt.to_json() == plan.to_json()


def test_string_and_object_profile_agree():
    surface = _surface()
    assert (
        generate_plan(2, "network", surface).to_json()
        == generate_plan(2, get_profile("network"), surface).to_json()
    )


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        generate_plan(0, "nonsense", _surface())


# ----------------------------------------------------------------------
# Validity invariants
# ----------------------------------------------------------------------

_PAIRED = (
    (plan_mod.PARTITION, plan_mod.HEAL),
    (plan_mod.KILL_CONTROLLER, plan_mod.RESTART_CONTROLLER),
    (plan_mod.CRASH, plan_mod.REBOOT),
)


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", range(5))
def test_every_outage_carries_its_recovery(profile, seed):
    plan = generate_plan(seed, profile, _surface())
    kinds = [event.kind for event in plan.events]
    for outage, recovery in _PAIRED:
        assert kinds.count(outage) == kinds.count(recovery)
    # Daemon kills pair with restarts per machine.
    kills = [
        event.args["machine"]
        for event in plan.events
        if event.kind == plan_mod.KILL_PROCESS
        and event.args["program"] == "meterdaemon"
    ]
    restarts = [
        event.args["machine"]
        for event in plan.events
        if event.kind == plan_mod.RESTART_DAEMON
    ]
    assert sorted(kills) == sorted(restarts)
    # ... and each recovery fires after the outage it closes.
    assert plan.open_moves() == []


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_times_are_inside_the_horizon(profile):
    horizon = get_profile(profile).horizon_ms
    for seed in range(5):
        plan = generate_plan(seed, profile, _surface())
        for event in plan.events:
            assert 0.0 <= event.at_ms <= horizon


def test_controller_outages_respect_the_limit():
    for seed in range(10):
        plan = generate_plan(seed, "controlplane", _surface())
        outages = sum(
            1
            for event in plan.events
            if event.kind == plan_mod.KILL_CONTROLLER
        )
        assert outages <= get_profile("controlplane").controller_outage_limit


def test_surface_requires_a_daemon_kill_target():
    with pytest.raises(ValueError):
        FaultSurface(
            machines=("a", "b"),
            control_machine="a",
            filter_machine="b",
            store_prefix="/usr/tmp/f1.store",
        )


def test_profiles_cover_every_move():
    covered = set()
    for profile in PROFILES.values():
        covered.update(profile.weights)
    assert covered == set(ALL_MOVES)
