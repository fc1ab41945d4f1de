"""Jab detection, targeting resolution, and weave classification."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from virusboxing.interaction import (
    Calibration,
    CellOutcome,
    Hand,
    HitKind,
    JabDetector,
    MELEE_RADIUS,
    PoseClass,
    PoseSample,
    TargetingMode,
    TargetingPolicy,
    TargetingRange,
    classify_weave_pose,
    hand_velocity,
    resolve_cell_pass,
    resolve_jab,
)
from virusboxing.world import EntityKind, WorldState

GUARD = (0.2, 1.35, 0.3)
HEAD = (0.0, 1.7, 0.0)


def _stream(right_positions: list[tuple[float, float, float]],
            dt: float = 0.02) -> list[PoseSample]:
    return [
        PoseSample(time=i * dt, head=HEAD, left_hand=(-0.2, 1.35, 0.3),
                   right_hand=pos)
        for i, pos in enumerate(right_positions)
    ]


def _ramp(total: float, hold: int = 6, move: int = 5) -> list[PoseSample]:
    """Right hand still for ``hold`` frames, then advancing ``total`` metres
    over ``move`` frames along +z."""
    positions = [GUARD] * hold
    for i in range(1, move + 1):
        positions.append((GUARD[0], GUARD[1], GUARD[2] + total * i / move))
    return _stream(positions)


class TestHandVelocity:
    def test_underfilled_window_is_zero(self) -> None:
        assert hand_velocity([(0.0, GUARD)]) == (0.0, (0.0, 0.0, 0.0))

    def test_zero_elapsed_is_zero(self) -> None:
        speed, _ = hand_velocity([(1.0, GUARD), (1.0, (9.9, 9.9, 9.9))])
        assert speed == 0.0

    def test_first_versus_last_sample(self) -> None:
        samples = [
            (0.0, (0.0, 0.0, 0.0)),
            (0.05, (123.0, 456.0, 789.0)),  # interior samples are ignored
            (0.1, (0.3, 0.0, 0.4)),
        ]
        speed, direction = hand_velocity(samples)
        assert speed == pytest.approx(5.0)
        assert direction == pytest.approx((0.6, 0.0, 0.8))


class TestJabDetection:
    def test_threshold_is_inclusive(self) -> None:
        # displacement 0.1 m over the 0.1 s window: speed exactly 1.0
        detector = JabDetector()
        events = [e for s in _ramp(total=0.1) for e in detector.update(s)]
        assert len(events) == 1
        assert events[0].hand is Hand.RIGHT
        assert events[0].hand_speed >= 1.0

    def test_below_threshold_never_fires(self) -> None:
        detector = JabDetector()
        assert [e for s in _ramp(total=0.09) for e in detector.update(s)] == []

    def test_fires_on_rising_edge_only_once(self) -> None:
        # after the ramp the hand keeps gliding fast: stays above the
        # threshold without a fresh crossing, so exactly one event
        positions = [GUARD] * 6
        for i in range(1, 15):
            positions.append((GUARD[0], GUARD[1], GUARD[2] + 0.06 * i))
        detector = JabDetector()
        events = [e for s in _stream(positions) for e in detector.update(s)]
        assert len(events) == 1

    def test_refractory_blocks_quick_second_jab(self) -> None:
        # two clean ramps separated by a pause shorter than 0.25 s
        positions = [GUARD] * 6
        for i in range(1, 6):
            positions.append((GUARD[0], GUARD[1], GUARD[2] + 0.04 * i))
        still = positions[-1]
        positions += [still] * 3  # 0.06 s pause, inside the refractory
        for i in range(1, 6):
            positions.append((still[0], still[1], still[2] + 0.04 * i))
        detector = JabDetector()
        events = [e for s in _stream(positions) for e in detector.update(s)]
        assert len(events) == 1

    def test_second_jab_after_refractory(self) -> None:
        positions = [GUARD] * 6
        for i in range(1, 6):
            positions.append((GUARD[0], GUARD[1], GUARD[2] + 0.04 * i))
        still = positions[-1]
        positions += [still] * 8  # 0.16 s pause: 0.25 s after the first fire
        for i in range(1, 6):
            positions.append((still[0], still[1], still[2] + 0.04 * i))
        detector = JabDetector()
        events = [e for s in _stream(positions) for e in detector.update(s)]
        assert len(events) == 2
        assert events[1].time - events[0].time >= 0.25 - 1e-9

    def test_left_reported_before_right_on_same_frame(self) -> None:
        left_still = (-0.2, 1.35, 0.3)
        samples = []
        for i in range(6):
            samples.append(PoseSample(i * 0.02, HEAD, left_still, GUARD))
        for i in range(1, 6):
            shift = 0.04 * i
            samples.append(PoseSample(
                (5 + i) * 0.02, HEAD,
                (left_still[0], left_still[1], left_still[2] + shift),
                (GUARD[0], GUARD[1], GUARD[2] + shift),
            ))
        detector = JabDetector()
        events = [e for s in samples for e in detector.update(s)]
        assert [e.hand for e in events] == [Hand.LEFT, Hand.RIGHT]


def _jab(hand: Hand = Hand.RIGHT, pos=(0.0, 1.4, 0.0),
         direction=(0.0, 0.0, 1.0)):
    from virusboxing.interaction import JabEvent
    return JabEvent(time=1.0, hand=hand, hand_speed=2.0, hand_pos=pos,
                    direction=direction)


class TestMeleeResolution:
    def test_destroys_virus_inside_reach(self) -> None:
        world = WorldState()
        world.sim_time = 15.0 / 8.0 - 0.05  # virus at z = 0.4
        virus = world.spawn(EntityKind.RED_VIRUS, 0.0, 0.0, 8.0)
        result = resolve_jab(_jab(pos=(0.0, 1.4, 0.0)), world, TargetingPolicy())
        assert result.kind is HitKind.DESTROYED
        assert result.target is virus

    def test_reach_boundary_inclusive(self) -> None:
        world = WorldState()
        world.spawn(EntityKind.RED_VIRUS, 0.0, 0.0, 8.0)  # at z = 15
        hit = resolve_jab(_jab(pos=(0.0, 1.4, 15.0 - MELEE_RADIUS)), world,
                          TargetingPolicy())
        assert hit.kind is HitKind.DESTROYED
        miss = resolve_jab(_jab(pos=(0.0, 1.4, 15.0 - MELEE_RADIUS - 0.001)),
                           world, TargetingPolicy())
        assert miss.kind is HitKind.NO_TARGET

    def test_wrong_hand_leaves_virus_in_flight(self) -> None:
        world = WorldState()
        virus = world.spawn(EntityKind.BLUE_VIRUS, 0.0, 0.0, 8.0)
        result = resolve_jab(_jab(Hand.RIGHT, pos=(0.0, 1.4, 14.9)), world,
                             TargetingPolicy())
        assert result.kind is HitKind.WRONG_HAND
        assert result.target is None
        assert virus in world.in_flight

    def test_right_colour_wins_over_closer_wrong_colour(self) -> None:
        world = WorldState()
        world.spawn(EntityKind.BLUE_VIRUS, 0.0, 0.0, 8.0)
        world.sim_time = 0.01
        red = world.spawn(EntityKind.RED_VIRUS, 0.0, 0.3, 8.0)
        result = resolve_jab(_jab(Hand.RIGHT, pos=(0.0, 1.4, 14.99)), world,
                             TargetingPolicy())
        assert result.kind is HitKind.DESTROYED
        assert result.target is red

    def test_nearest_then_lowest_id_tiebreak(self) -> None:
        world = WorldState()
        a = world.spawn(EntityKind.RED_VIRUS, 0.0, 0.2, 8.0)
        b = world.spawn(EntityKind.RED_VIRUS, 0.0, -0.2, 8.0)
        result = resolve_jab(_jab(Hand.RIGHT, pos=(0.0, 1.4, 14.9)), world,
                             TargetingPolicy())
        assert result.target is a
        assert b in world.in_flight


class TestEmpoweredResolution:
    def _world_with_virus(self, z: float, kind=EntityKind.RED_VIRUS,
                          lane: float = 0.0) -> WorldState:
        world = WorldState()
        speed = 8.0
        world.sim_time = (15.0 - z) / speed
        world.spawn(kind, 0.0, lane, speed)
        return world

    @pytest.mark.parametrize("rng,limit", [
        (TargetingRange.SHORT, 5.0),
        (TargetingRange.MEDIUM, 10.0),
        (TargetingRange.LONG, 15.0),
    ])
    def test_range_limits(self, rng: TargetingRange, limit: float) -> None:
        policy = TargetingPolicy(TargetingMode.ROUGH, rng)
        inside = self._world_with_virus(limit - 0.2)
        assert resolve_jab(_jab(), inside, policy,
                           empowered=True).kind is HitKind.DESTROYED
        outside = self._world_with_virus(limit + 0.2)
        assert resolve_jab(_jab(), outside, policy,
                           empowered=True).kind is HitKind.NO_TARGET

    def test_rough_ignores_aim_direction(self) -> None:
        world = self._world_with_virus(10.0)
        sideways = _jab(direction=(1.0, 0.0, 0.0))
        result = resolve_jab(sideways, world,
                             TargetingPolicy(TargetingMode.ROUGH),
                             empowered=True)
        assert result.kind is HitKind.DESTROYED

    def test_precise_requires_ray_near_centre(self) -> None:
        world = self._world_with_virus(10.0)
        policy = TargetingPolicy(TargetingMode.PRECISE, TargetingRange.LONG)
        aligned = _jab(pos=(0.0, 1.4, 0.0), direction=(0.0, 0.0, 1.0))
        assert resolve_jab(aligned, world, policy,
                           empowered=True).kind is HitKind.DESTROYED
        offset = _jab(pos=(0.3, 1.4, 0.0), direction=(0.0, 0.0, 1.0))
        assert resolve_jab(offset, world, policy,
                           empowered=True).kind is HitKind.NO_TARGET

    def test_precise_ray_tolerance_boundary(self) -> None:
        policy = TargetingPolicy(TargetingMode.PRECISE, TargetingRange.LONG)
        near = self._world_with_virus(10.0, lane=0.25)
        assert resolve_jab(_jab(), near, policy,
                           empowered=True).kind is HitKind.DESTROYED
        far = self._world_with_virus(10.0, lane=0.26)
        assert resolve_jab(_jab(), far, policy,
                           empowered=True).kind is HitKind.NO_TARGET

    def test_precise_ray_is_forward_only(self) -> None:
        world = self._world_with_virus(10.0)
        backwards = _jab(direction=(0.0, 0.0, -1.0))
        assert resolve_jab(backwards, world,
                           TargetingPolicy(TargetingMode.PRECISE),
                           empowered=True).kind is HitKind.NO_TARGET

    def test_nearest_virus_selected(self) -> None:
        world = WorldState()
        far = world.spawn(EntityKind.RED_VIRUS, 0.0, 0.0, 8.0)
        world.sim_time = 1.0
        near = world.spawn(EntityKind.RED_VIRUS, 1.0, 0.0, 8.0)
        far.position = 6.0
        near.position = 3.0
        result = resolve_jab(_jab(), world, TargetingPolicy(), empowered=True)
        assert result.target is near


def _pose(x: float, y: float) -> PoseSample:
    return PoseSample(0.0, (x, y, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))


class TestWeaveClassification:
    CAL = Calibration(standing_head_height=1.70, squat_ratio=0.75,
                      lean_threshold=0.20)

    @pytest.mark.parametrize("x,y,expected", [
        (0.0, 1.70, PoseClass.STANDING),
        (0.0, 1.30, PoseClass.STANDING),       # above 0.75 * 1.70
        (0.0, 1.20, PoseClass.SQUAT),
        (0.25, 1.20, PoseClass.SQUAT_LEAN_RIGHT),
        (-0.25, 1.20, PoseClass.SQUAT_LEAN_LEFT),
        (0.20, 1.20, PoseClass.SQUAT),          # lean threshold is strict
        (-0.20, 1.20, PoseClass.SQUAT),
        (0.35, 1.70, PoseClass.STANDING),       # lean without squat
    ])
    def test_pose_table(self, x: float, y: float, expected: PoseClass) -> None:
        assert classify_weave_pose(_pose(x, y), self.CAL) is expected

    @given(st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=1.276, max_value=2.0))
    def test_no_squat_means_standing(self, x: float, y: float) -> None:
        assert classify_weave_pose(_pose(x, y), self.CAL) is PoseClass.STANDING


class TestCellPass:
    def _cell(self, kind: EntityKind):
        world = WorldState()
        return world.spawn(kind, 0.0, 0.0, 5.7)

    @pytest.mark.parametrize("pose,expected", [
        (PoseClass.STANDING, CellOutcome.COLLIDED),
        (PoseClass.SQUAT, CellOutcome.AVOIDED),
        (PoseClass.SQUAT_LEAN_LEFT, CellOutcome.AVOIDED),
        (PoseClass.SQUAT_LEAN_RIGHT, CellOutcome.AVOIDED),
    ])
    def test_flat_cell_avoided_by_any_squat(self, pose, expected) -> None:
        assert resolve_cell_pass(self._cell(EntityKind.FLAT_CELL), pose) is expected

    @pytest.mark.parametrize("kind,good_pose", [
        (EntityKind.RIGHT_TILT_CELL, PoseClass.SQUAT_LEAN_RIGHT),
        (EntityKind.LEFT_TILT_CELL, PoseClass.SQUAT_LEAN_LEFT),
    ])
    def test_tilted_cells_need_matching_lean(self, kind, good_pose) -> None:
        for pose in PoseClass:
            outcome = resolve_cell_pass(self._cell(kind), pose)
            expected = (CellOutcome.AVOIDED if pose is good_pose
                        else CellOutcome.COLLIDED)
            assert outcome is expected, f"{kind} under {pose}"

    def test_virus_rejected(self) -> None:
        with pytest.raises(ValueError):
            resolve_cell_pass(self._cell(EntityKind.RED_VIRUS),
                              PoseClass.SQUAT)

