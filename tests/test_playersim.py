"""Synthetic player choreography: plans, pose streams, detectability."""
from __future__ import annotations

import dataclasses
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virusboxing import playersim
from virusboxing.interaction import (
    Calibration,
    HAND_FOR_VIRUS,
    Hand,
    JabDetector,
    PoseClass,
    TargetingMode,
    TargetingPolicy,
    TargetingRange,
    classify_weave_pose,
)
from virusboxing.playersim import (
    EmpowerPolicy,
    GUARD_LEFT,
    GUARD_RIGHT,
    JabPlan,
    PlayerProfile,
    SyntheticPlayer,
    WeavePlan,
    builtin_profiles,
    load_profile,
    plan_reaction,
)
from virusboxing.protocol import PhaseKind
from virusboxing.world import (
    EntityKind,
    FLIGHT_HEIGHT,
    VIRUS_KINDS,
    WorldState,
    arrival_time,
)


DT = 0.02

LONG_RANGE = TargetingPolicy(TargetingMode.ROUGH, TargetingRange.LONG)


def _machine(**overrides) -> PlayerProfile:
    """A fully deterministic profile: no noise anywhere."""
    fields = dict(
        name="machine",
        reaction_time=0.25,
        punch_speed_mean=2.0,
        punch_speed_sd=0.0,
        aim_error_sd=0.0,
        correct_hand_prob=1.0,
        weave_reliability=1.0,
        empower_policy=EmpowerPolicy.ACTIVATE_IMMEDIATELY,
        effort=0.6,
    )
    fields.update(overrides)
    return PlayerProfile(**fields)


def _entity(kind=EntityKind.RED_VIRUS, spawn_time=0.0, lane=0.1, speed=8.0):
    world = WorldState()
    return world.spawn(kind, spawn_time=spawn_time, lane_offset=lane,
                       speed=speed)


def _as_json(profile: PlayerProfile) -> dict:
    """The JSON object of a profile file that holds ``profile``."""
    return dict(dataclasses.asdict(profile),
                empower_policy=profile.empower_policy.value)


class TestProfiles:
    def test_builtin_names(self) -> None:
        assert builtin_profiles() == ["expert", "mid_skill", "novice"]

    def test_load_builtin(self) -> None:
        profile = load_profile("mid_skill")
        assert profile.reaction_time == 0.25
        assert profile.empower_policy is EmpowerPolicy.ACTIVATE_IMMEDIATELY

    def test_round_trip(self) -> None:
        profile = load_profile("expert")
        assert PlayerProfile.from_dict(_as_json(profile)) == profile

    def test_load_from_path(self, tmp_path) -> None:
        payload = _as_json(_machine())
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(payload))
        assert load_profile(str(path)) == _machine()

    def test_unknown_name_lists_builtins(self) -> None:
        with pytest.raises(FileNotFoundError, match="mid_skill"):
            load_profile("nobody")

    @pytest.mark.parametrize("field,value", [
        ("reaction_time", None),
        ("reaction_time", "0.2"),
        ("punch_speed_mean", [2.0]),
        ("effort", True),
        ("weave_reliability", False),
        ("name", None),
        ("name", 3),
        ("empower_policy", "sometimes"),
        ("empower_policy", None),
        # A misspelt field once ran with the field spelt right.
        ("reacton_time", 0.05),
    ])
    def test_from_dict_rejects_a_field_of_the_wrong_type(
            self, field: str, value: object) -> None:
        data = dict(_as_json(_machine()), **{field: value})
        with pytest.raises(ValueError, match=repr(field)):
            PlayerProfile.from_dict(data)

    def test_from_dict_takes_json_integers(self) -> None:
        data = dict(_as_json(_machine()), effort=1, reaction_time=0)
        profile = PlayerProfile.from_dict(data)
        assert profile.effort == 1.0 and type(profile.effort) is float
        assert profile.reaction_time == 0.0

    @pytest.mark.parametrize("field", ["name", "reaction_time", "effort",
                                       "empower_policy"])
    def test_from_dict_names_a_missing_field(self, field: str) -> None:
        # It once raised a bare KeyError, whose text is only the key.
        data = _as_json(_machine())
        del data[field]
        with pytest.raises(ValueError,
                           match=f"profile field '{field}' is missing"):
            PlayerProfile.from_dict(data)

    @pytest.mark.parametrize("payload", [[1, 2], "expert", None])
    def test_a_profile_file_must_hold_an_object(self, tmp_path,
                                                payload) -> None:
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="JSON object"):
            load_profile(str(path))

    @pytest.mark.parametrize("field,value", [
        ("reaction_time", -0.1),
        ("reaction_time", math.inf),
        ("reaction_time", math.nan),
        ("punch_speed_mean", -1.0),
        ("punch_speed_mean", math.inf),
        ("punch_speed_sd", math.nan),
        ("aim_error_sd", math.inf),
        ("aim_error_sd", -0.01),
        # Past the corridor's 15 m: from 1e154 run_session once raised
        # OverflowError.
        ("aim_error_sd", math.nextafter(15.0, 16.0)),
        ("aim_error_sd", 1e154),
        # Past the float range: math.isfinite once raised OverflowError.
        pytest.param("reaction_time", 10**400, id="reaction_time-10**400"),
        ("correct_hand_prob", 1.5),
        ("weave_reliability", -0.2),
        ("effort", 0.0),
        ("effort", 1.2),
    ])
    def test_validate_rejects(self, field: str, value: float) -> None:
        profile = dataclasses.replace(_machine(), **{field: value})
        with pytest.raises(ValueError):
            profile.validate()


class TestPlanReaction:
    def test_melee_strike_waits_for_reach(self) -> None:
        # reach: (15 - 0.45) / 8 = 1.81875 s -> first grid tick at 91
        plan = plan_reaction(_machine(), _entity(), random.Random(1),
                             now_tick=0, policy=LONG_RANGE)
        assert isinstance(plan, JabPlan)
        assert plan.strike_tick == 91
        assert not plan.ranged
        assert plan.hand is Hand.RIGHT
        assert plan.speed == 2.0
        # aim tracks the predicted virus position on the strike tick
        assert plan.aim[0] == 0.1
        assert plan.aim[1] == pytest.approx(1.4)
        assert plan.aim[2] == pytest.approx(15.0 - 8.0 * 91 * DT)

    def test_reaction_time_dominates_slow_approach(self) -> None:
        # virus seen late: reach is already past, reaction gates the strike
        entity = _entity(spawn_time=0.0, speed=8.0)
        plan = plan_reaction(_machine(), entity, random.Random(1),
                             now_tick=95, policy=LONG_RANGE)
        assert plan.strike_tick == math.ceil((95 * DT + 0.25) / DT - 1e-9)

    def test_ranged_strike_fires_on_entry(self) -> None:
        plan = plan_reaction(_machine(), _entity(), random.Random(1),
                             now_tick=0, policy=LONG_RANGE,
                             empowered_until=100.0)
        assert plan.ranged
        # enter at t=0 (already inside 15 m), react 0.25 s -> tick 13
        assert plan.strike_tick == 13

    def test_ranged_waits_for_range_entry(self) -> None:
        policy = TargetingPolicy(TargetingMode.ROUGH, TargetingRange.MEDIUM)
        plan = plan_reaction(_machine(), _entity(), random.Random(1),
                             now_tick=0, policy=policy, empowered_until=100.0)
        # (15 - 10) / 8 = 0.625 s entry + 0.25 s reaction = 0.875 -> tick 44
        assert plan.ranged and plan.strike_tick == 44

    def test_expiring_empowerment_falls_back_to_melee(self) -> None:
        plan = plan_reaction(_machine(), _entity(), random.Random(1),
                             now_tick=0, policy=LONG_RANGE,
                             empowered_until=0.2)
        assert not plan.ranged and plan.strike_tick == 91

    def test_wrong_hand_when_probability_is_zero(self) -> None:
        profile = _machine(correct_hand_prob=0.0)
        plan = plan_reaction(profile, _entity(kind=EntityKind.RED_VIRUS),
                             random.Random(1), now_tick=0, policy=LONG_RANGE)
        assert plan.hand is Hand.LEFT
        plan = plan_reaction(profile, _entity(kind=EntityKind.BLUE_VIRUS),
                             random.Random(1), now_tick=0, policy=LONG_RANGE)
        assert plan.hand is Hand.RIGHT

    def test_cell_reaction_is_a_weave(self) -> None:
        cell = _entity(kind=EntityKind.FLAT_CELL, speed=5.7)
        plan = plan_reaction(_machine(), cell, random.Random(1), now_tick=0)
        assert isinstance(plan, WeavePlan)
        assert plan.pose is PoseClass.SQUAT
        # 15 / 5.7 = 2.6316 s; final in-flight tick is 131
        assert plan.cross_tick == 131

    def test_tilted_cells_request_matching_lean(self) -> None:
        for kind, pose in [
            (EntityKind.RIGHT_TILT_CELL, PoseClass.SQUAT_LEAN_RIGHT),
            (EntityKind.LEFT_TILT_CELL, PoseClass.SQUAT_LEAN_LEFT),
        ]:
            plan = plan_reaction(_machine(), _entity(kind=kind, speed=5.7),
                                 random.Random(1), now_tick=0)
            assert plan.pose is pose

    def test_unreliable_weaver_skips(self) -> None:
        profile = _machine(weave_reliability=0.0)
        cell = _entity(kind=EntityKind.FLAT_CELL, speed=5.7)
        assert plan_reaction(profile, cell, random.Random(1), now_tick=0) is None

    @pytest.mark.parametrize("kind,draws", [
        (EntityKind.RED_VIRUS, 5),
        (EntityKind.BLUE_VIRUS, 5),
        (EntityKind.FLAT_CELL, 1),
    ])
    def test_draw_count_is_fixed(self, kind: EntityKind, draws: int) -> None:
        # melee, ranged, and skipped plans must consume identical RNG
        # amounts so paired runs share their spawn streams downstream
        outcomes = []
        for empowered in (None, 500.0):
            for reliability in (0.0, 1.0):
                rng = random.Random(42)
                profile = _machine(weave_reliability=reliability)
                plan_reaction(profile, _entity(kind=kind, speed=8.0), rng,
                              now_tick=0, policy=LONG_RANGE,
                              empowered_until=empowered)
                outcomes.append(rng.random())
        assert len(set(outcomes)) == 1
        rng = random.Random(42)
        for _ in range(draws):
            rng.random() if draws == 1 else rng.normalvariate(0.0, 1.0)
        # draw count, not just determinism: an independent cursor moved
        # the same number of times lands on the same next float
        probe = random.Random(42)
        if kind is EntityKind.FLAT_CELL:
            probe.random()
        else:
            probe.random()
            for _ in range(4):
                probe.normalvariate(0.0, 1.0)
        assert probe.random() == outcomes[0]


class TestChoreography:
    def _events(self, player, ticks, phase=PhaseKind.LOW):
        detector = JabDetector()
        events = []
        for tick in range(ticks):
            sample = player.sample(tick, phase)
            events.extend((tick, e) for e in detector.update(sample))
        return events

    def test_planned_strike_is_detected_on_its_tick(self) -> None:
        profile = _machine()
        player = SyntheticPlayer(profile, Calibration(), random.Random(3),
                                 dt=DT, policy=LONG_RANGE)
        entity = _entity()
        player.observe_spawn(entity, 0, None)
        events = self._events(player, 140)
        assert len(events) == 1
        tick, event = events[0]
        assert tick == 91
        assert event.hand is Hand.RIGHT
        assert event.hand_speed >= 1.0

    def test_injected_plan_starts_at_guard_and_fires_on_its_tick(
            self) -> None:
        profile = _machine()
        plan = plan_reaction(profile, _entity(), random.Random(1),
                             now_tick=0, policy=LONG_RANGE)
        player = SyntheticPlayer(profile, Calibration(), random.Random(0),
                                 dt=DT, policy=LONG_RANGE)
        player.inject(plan, 0)
        player.inject(None, 0)
        first = player.sample(0, PhaseKind.LOW)
        assert (first.left_hand, first.right_hand) == (GUARD_LEFT, GUARD_RIGHT)
        events = self._events(player, 140)
        assert [tick for tick, _ in events] == [plan.strike_tick]

    def test_no_spurious_detections_from_repositioning(self) -> None:
        player = SyntheticPlayer(_machine(), Calibration(), random.Random(3),
                                 dt=DT, policy=LONG_RANGE)
        spawn_ticks = (0, 400, 800)
        detector = JabDetector()
        fired = []
        for tick in range(1000):
            if tick in spawn_ticks:
                entity = _entity(spawn_time=tick * DT,
                                 lane=0.3 if tick else -0.3)
                player.observe_spawn(entity, tick, None)
            sample = player.sample(tick, PhaseKind.LOW)
            fired.extend(tick for _ in detector.update(sample))
        # strikes land 91 ticks after each spawn, nothing in between
        assert fired == [91, 491, 891]

    def test_conflicting_plan_preempts_older(self) -> None:
        player = SyntheticPlayer(_machine(), Calibration(), random.Random(3),
                                 dt=DT, policy=LONG_RANGE)
        aim = (0.1, 1.4, 0.4)
        old = JabPlan(1, Hand.RIGHT, 100, 2.0, aim, False, seq=0)
        new = JabPlan(2, Hand.RIGHT, 105, 2.0, aim, False, seq=1)
        player.inject(old, 0)
        player.inject(new, 0)
        assert [p.entity_id for p in player.tracks[1].plans] == [2]

    def test_newer_plan_wins_even_when_earlier(self) -> None:
        player = SyntheticPlayer(_machine(), Calibration(), random.Random(3),
                                 dt=DT, policy=LONG_RANGE)
        aim = (0.1, 1.4, 0.4)
        old = JabPlan(1, Hand.RIGHT, 105, 2.0, aim, False, seq=0)
        new = JabPlan(2, Hand.RIGHT, 100, 2.0, aim, False, seq=1)
        player.inject(old, 0)
        player.inject(new, 0)
        assert [p.entity_id for p in player.tracks[1].plans] == [2]

    def test_spaced_plans_coexist(self) -> None:
        player = SyntheticPlayer(_machine(), Calibration(), random.Random(3),
                                 dt=DT, policy=LONG_RANGE)
        aim = (0.1, 1.4, 0.4)
        player.inject(JabPlan(1, Hand.RIGHT, 100, 2.0, aim, False, seq=0), 0)
        player.inject(JabPlan(2, Hand.RIGHT, 120, 2.0, aim, False, seq=1), 0)
        assert len(player.tracks[1].plans) == 2

    def test_hands_do_not_interfere(self) -> None:
        player = SyntheticPlayer(_machine(), Calibration(), random.Random(3),
                                 dt=DT, policy=LONG_RANGE)
        aim = (0.1, 1.4, 0.4)
        player.inject(JabPlan(1, Hand.RIGHT, 100, 2.0, aim, False, seq=0), 0)
        player.inject(JabPlan(2, Hand.LEFT, 102, 2.0, aim, False, seq=1), 0)
        assert len(player.tracks[1].plans) == 1
        assert len(player.tracks[0].plans) == 1


class TestWeaving:
    def _player(self) -> SyntheticPlayer:
        return SyntheticPlayer(_machine(), Calibration(), random.Random(3),
                               dt=DT, policy=LONG_RANGE)

    def test_pose_matches_requirement_through_window(self) -> None:
        player = self._player()
        player.inject(WeavePlan(1, PoseClass.SQUAT, 131), 0)
        calibration = Calibration()
        # standing before the window opens at 131 - 15
        assert classify_weave_pose(player.sample(100, PhaseKind.LOW),
                                   calibration) is PoseClass.STANDING
        for tick in (116, 131, 136):
            pose = classify_weave_pose(player.sample(tick, PhaseKind.LOW),
                                       calibration)
            assert pose is PoseClass.SQUAT
        assert classify_weave_pose(player.sample(137, PhaseKind.LOW),
                                   calibration) is PoseClass.STANDING

    def test_tilted_requirement_beats_flat(self) -> None:
        player = self._player()
        player.inject(WeavePlan(1, PoseClass.SQUAT, 131), 0)
        player.inject(WeavePlan(2, PoseClass.SQUAT_LEAN_RIGHT, 135), 0)
        pose = classify_weave_pose(player.sample(131, PhaseKind.LOW),
                                   Calibration())
        assert pose is PoseClass.SQUAT_LEAN_RIGHT

    def test_nearest_cross_wins_between_tilts(self) -> None:
        player = self._player()
        player.inject(WeavePlan(1, PoseClass.SQUAT_LEAN_LEFT, 131), 0)
        player.inject(WeavePlan(2, PoseClass.SQUAT_LEAN_RIGHT, 150), 0)
        calibration = Calibration()
        assert classify_weave_pose(player.sample(132, PhaseKind.LOW),
                                   calibration) is PoseClass.SQUAT_LEAN_LEFT
        assert classify_weave_pose(player.sample(145, PhaseKind.LOW),
                                   calibration) is PoseClass.SQUAT_LEAN_RIGHT

    def test_lean_margins_are_classifiable(self) -> None:
        player = self._player()
        player.inject(WeavePlan(1, PoseClass.SQUAT_LEAN_LEFT, 131), 0)
        sample = player.sample(131, PhaseKind.LOW)
        assert sample.head[0] == pytest.approx(-0.25)
        assert sample.head[1] == pytest.approx(1.19)


class TestButtons:
    def test_policy_button_hold(self) -> None:
        cases = [
            (EmpowerPolicy.ACTIVATE_IMMEDIATELY, PhaseKind.LOW, {"A"}),
            (EmpowerPolicy.ACTIVATE_IMMEDIATELY, PhaseKind.SPRINT, {"A"}),
            (EmpowerPolicy.NEVER, PhaseKind.SPRINT, set()),
            (EmpowerPolicy.DURING_SPRINT_ONLY, PhaseKind.LOW, set()),
            (EmpowerPolicy.DURING_SPRINT_ONLY, PhaseKind.SPRINT, {"A"}),
        ]
        for policy, phase, expected in cases:
            player = SyntheticPlayer(_machine(empower_policy=policy),
                                     Calibration(), random.Random(3),
                                     dt=DT, policy=LONG_RANGE)
            assert set(player.sample(0, phase).buttons) == expected



# --- Each virus's draws, through ``random.Random``'s own methods.

def _reference_plan(profile, entity, rng, *, now_tick, dt, policy,
                    empowered_until, seq):
    """``plan_reaction`` written out once and frozen: per virus one
    ``rng.random()`` and four ``rng.normalvariate`` calls, per cell one
    ``rng.random()``.  ``plan_reaction`` must match it bit for bit."""
    now_t = now_tick * dt
    if entity.kind in VIRUS_KINDS:
        u_hand = rng.random()
        speed = max(0.0, rng.normalvariate(profile.punch_speed_mean,
                                           profile.punch_speed_sd))
        err_x = rng.normalvariate(0.0, profile.aim_error_sd)
        err_y = rng.normalvariate(0.0, profile.aim_error_sd)
        err_z = rng.normalvariate(0.0, profile.aim_error_sd)
        correct = HAND_FOR_VIRUS[entity.kind]
        hand = correct if u_hand < profile.correct_hand_prob else (
            Hand.LEFT if correct is Hand.RIGHT else Hand.RIGHT)
        enter = entity.spawn_time + max(
            0.0, (entity.spawn_z - policy.range_m) / entity.speed)
        strike_t = max(enter + profile.reaction_time, now_t + dt)
        strike_tick = math.ceil(strike_t / dt - 1e-9)
        ranged = (empowered_until is not None
                  and strike_tick * dt < empowered_until)
        if not ranged:
            reach_t = entity.spawn_time + (
                (entity.spawn_z - playersim.CONTACT_REACH) / entity.speed)
            strike_t = max(reach_t, now_t + profile.reaction_time, now_t + dt)
            strike_tick = math.ceil(strike_t / dt - 1e-9)
        aim_time = strike_tick * dt
        z_pred = entity.spawn_z - entity.speed * (aim_time - entity.spawn_time)
        aim = (entity.lane_offset + err_x, FLIGHT_HEIGHT + err_y,
               z_pred + err_z)
        return JabPlan(entity.id, hand, strike_tick, speed, aim, ranged, seq)
    if rng.random() >= profile.weave_reliability:
        return None
    cross_tick = math.ceil(arrival_time(entity) / dt - 1e-9) - 1
    return WeavePlan(entity.id, playersim._AVOIDANCE_POSE[entity.kind],
                     cross_tick)


SDS = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mean=st.floats(0.0, 12.0), sd=SDS,
       aim_sd=SDS, hand_prob=st.floats(0.0, 1.0),
       reliability=st.floats(0.0, 1.0),
       kind=st.sampled_from(list(EntityKind)),
       spawn_time=st.floats(0.0, 420.0), lane=st.floats(-0.5, 0.5),
       speed=st.floats(2.85, 16.0), now_tick=st.integers(0, 21_000),
       empowered_until=st.one_of(st.none(), st.floats(0.0, 440.0)),
       range_=st.sampled_from(list(TargetingRange)), seq=st.integers(0, 999))
@example(seed=0, mean=2.0, sd=0.0, aim_sd=0.0, hand_prob=0.9,
         reliability=0.9, kind=EntityKind.RED_VIRUS, spawn_time=1.0,
         lane=0.0, speed=5.7, now_tick=50, empowered_until=None,
         range_=TargetingRange.LONG, seq=0)
def test_plan_draws_as_normalvariate_draws(seed, mean, sd, aim_sd, hand_prob,
                                           reliability, kind, spawn_time,
                                           lane, speed, now_tick,
                                           empowered_until, range_,
                                           seq) -> None:
    profile = _machine(punch_speed_mean=mean, punch_speed_sd=sd,
                       aim_error_sd=aim_sd, correct_hand_prob=hand_prob,
                       weave_reliability=reliability)
    entity = _entity(kind=kind, spawn_time=spawn_time, lane=lane, speed=speed)
    kwargs = dict(now_tick=now_tick, dt=DT,
                  policy=TargetingPolicy(TargetingMode.ROUGH, range_),
                  empowered_until=empowered_until, seq=seq)
    rng, reference = random.Random(seed), random.Random(seed)
    plan = plan_reaction(profile, entity, rng, **kwargs)
    want = _reference_plan(profile, entity, reference, **kwargs)
    assert repr(plan) == repr(want)  # -0.0 and 0.0 apart
    assert type(plan) is type(want)
    # The generator is where normalvariate leaves it.
    assert [rng.random() for _ in range(3)] == [
        reference.random() for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mean=st.floats(0.0, 1e6), sd=SDS)
@example(seed=7, mean=3.0, sd=0.0)
def test_the_speed_is_normalvariates_float(seed, mean, sd) -> None:
    # With the mean far above the spread the clamp at 0 never acts, so
    # the speed is the normal itself.
    profile = _machine(punch_speed_mean=mean + 100.0, punch_speed_sd=sd)
    rng, reference = random.Random(seed), random.Random(seed)
    plan = plan_reaction(profile, _entity(), rng, now_tick=0)
    reference.random()
    assert plan.speed == reference.normalvariate(mean + 100.0, sd)
    for _ in range(3):
        reference.normalvariate(0.0, 0.0)
    assert rng.random() == reference.random()
