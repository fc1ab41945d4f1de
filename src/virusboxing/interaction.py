"""Pose-driven player input: jabs, targeting, and weave classification.

A jab is recognised from hand kinematics alone: the windowed hand speed
must cross the 1 m/s threshold from below, with a short per-hand
refractory so one punch cannot double-fire.  What the jab hits depends on
the empowerment state and the targeting policy; ducking under cells is
classified from the head position against a per-player calibration.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

from .world import Entity, EntityKind, FLIGHT_HEIGHT, VIRUS_KINDS, WorldState

__all__ = [
    "JAB_SPEED_THRESHOLD",
    "JAB_REFRACTORY",
    "VELOCITY_WINDOW",
    "MELEE_RADIUS",
    "PRECISE_RAY_TOLERANCE",
    "Hand",
    "PoseSample",
    "Calibration",
    "PoseClass",
    "TargetingMode",
    "TargetingRange",
    "TargetingPolicy",
    "JabEvent",
    "HitKind",
    "HitResult",
    "CellOutcome",
    "hand_velocity",
    "JabDetector",
    "resolve_jab",
    "classify_weave_pose",
    "resolve_cell_pass",
]

# Hand speed at or above this, reached from below, registers a jab.
JAB_SPEED_THRESHOLD = 1.0
# Per-hand dead time after a registered jab.
JAB_REFRACTORY = 0.25
# Finite-difference window for hand speed.
VELOCITY_WINDOW = 0.1
# Non-empowered punches connect only within arm's reach of the hand.
MELEE_RADIUS = 0.45
# Empowered precise targeting: the jab ray must pass this close to the centre.
PRECISE_RAY_TOLERANCE = 0.25

Vec3 = tuple[float, float, float]


class Hand(Enum):
    LEFT = "left"
    RIGHT = "right"

    __hash__ = object.__hash__  # see world.EntityKind


# Slot order of per-hand state: left first, as jabs are reported.
_HANDS = (Hand.LEFT, Hand.RIGHT)


# Red viruses answer to the right hand, blue to the left.
HAND_FOR_VIRUS = {
    EntityKind.RED_VIRUS: Hand.RIGHT,
    EntityKind.BLUE_VIRUS: Hand.LEFT,
}


class PoseSample(NamedTuple):
    """One 50 Hz tracker frame: head, both hands, and held buttons.

    A named tuple, so immutable and cheap to build.  Read fields by name,
    or unpack them in the order ``time, head, left_hand, right_hand,
    buttons``.
    """

    time: float
    head: Vec3
    left_hand: Vec3
    right_hand: Vec3
    buttons: frozenset[str] = frozenset()

    def hand(self, which: Hand) -> Vec3:
        return self.left_hand if which is Hand.LEFT else self.right_hand


@dataclass(frozen=True)
class Calibration:
    """Per-player reference captured standing upright at session start.
    Outside the interval each field's metadata declares, NaN and the
    infinities included, the poses the player holds classify as other
    poses, so the cells' outcomes mean nothing."""

    standing_head_height: float = field(default=1.70,
                                        metadata={"interval": "(0, inf)"})
    squat_ratio: float = field(default=0.75, metadata={"interval": "(0, 1)"})
    lean_threshold: float = field(default=0.20,
                                  metadata={"interval": "[0, inf)"})


class PoseClass(Enum):
    STANDING = "standing"
    SQUAT = "squat"
    SQUAT_LEAN_LEFT = "squat_lean_left"
    SQUAT_LEAN_RIGHT = "squat_lean_right"

    __hash__ = object.__hash__  # see world.EntityKind


class TargetingMode(Enum):
    PRECISE = "precise"
    ROUGH = "rough"

    __hash__ = object.__hash__  # see world.EntityKind


class TargetingRange(Enum):
    SHORT = "short"
    MEDIUM = "medium"
    LONG = "long"

    __hash__ = object.__hash__  # see world.EntityKind


RANGE_METRES = {
    TargetingRange.SHORT: 5.0,
    TargetingRange.MEDIUM: 10.0,
    TargetingRange.LONG: 15.0,
}


@dataclass(frozen=True)
class TargetingPolicy:
    mode: TargetingMode = TargetingMode.ROUGH
    range: TargetingRange = TargetingRange.LONG

    @property
    def range_m(self) -> float:
        return RANGE_METRES[self.range]


class JabEvent(NamedTuple):
    """One registered jab: when, which hand, how fast, from where and
    which way.

    A named tuple, so immutable and cheap to build.
    """

    time: float
    hand: Hand
    hand_speed: float
    hand_pos: Vec3
    direction: Vec3


class HitKind(Enum):
    DESTROYED = "destroyed"
    WRONG_HAND = "wrong_hand"
    NO_TARGET = "no_target"

    __hash__ = object.__hash__  # see world.EntityKind


class HitResult(NamedTuple):
    """What a jab hit; ``target`` is the destroyed virus, else None.

    A named tuple, so immutable and cheap to build.
    """

    kind: HitKind
    target: Entity | None = None


# The two results that name no target, built once and shared: they are
# immutable.
_WRONG_HAND = HitResult(HitKind.WRONG_HAND)
_NO_TARGET = HitResult(HitKind.NO_TARGET)
# Bound once: reading a member off its class is slow in Python 3.11.
_PRECISE = TargetingMode.PRECISE
_DESTROYED = HitKind.DESTROYED
# Builds a record as its class's own ``__new__`` does, without that call's
# Python frame: ``_new(JabEvent, fields)`` is ``JabEvent(*fields)``.
_new = tuple.__new__


class CellOutcome(Enum):
    AVOIDED = "avoided"
    COLLIDED = "collided"

    __hash__ = object.__hash__  # see world.EntityKind


def hand_velocity(samples: Sequence[tuple[float, Vec3]]) -> tuple[float, Vec3]:
    """Backward finite difference across a sample window.

    Returns (speed, unit direction); an under-filled window or zero
    displacement yields speed 0 and a null direction.
    """
    if len(samples) < 2:
        return 0.0, (0.0, 0.0, 0.0)
    t0, p0 = samples[0]
    t1, p1 = samples[-1]
    elapsed = t1 - t0
    if elapsed <= 0.0:
        return 0.0, (0.0, 0.0, 0.0)
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    dz = p1[2] - p0[2]
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0:
        return 0.0, (0.0, 0.0, 0.0)
    return dist / elapsed, (dx / dist, dy / dist, dz / dist)


class JabDetector:
    """Streaming threshold-crossing detector over both hands.

    Feed pose samples in time order (``update``); each call returns the
    jabs that fire on that frame (left hand reported before right).

    Both hands share one window of ``(time, left, right)`` samples, and
    per-hand state sits in ``[left, right]`` slots.  Speed is the
    backward difference between the oldest and newest sample in the
    window, as in :func:`hand_velocity`.  A hand whose newest position is
    the very object it held at the start of the window has not moved, so
    its speed is 0 without any arithmetic: the synthetic player hands
    back the same tuple every tick while a hand rests or holds still
    before a strike.

    ``judge`` is the fire rule for one hand on one frame, given the two
    ends of its window.  ``update`` calls it for both hands; a caller that
    can read the window's ends itself calls it directly, and only on the
    frames where the hand can reach the threshold.

    The window, the threshold and the refractory are the module's
    constants, ``VELOCITY_WINDOW``, ``JAB_SPEED_THRESHOLD`` and
    ``JAB_REFRACTORY``: the session's hot marks assume them too.
    """

    def __init__(self) -> None:
        self._history: deque[tuple[float, Vec3, Vec3]] = deque()
        # The time of the last frame fed.
        self._now: float | None = None
        # Each hand's last judged speed, and the frame it was judged on.
        self._speed = [0.0, 0.0]
        self._judged: list[float | None] = [None, None]
        self._last_fire = [-math.inf, -math.inf]

    def update(self, sample: PoseSample) -> list[JabEvent]:
        now, left, right = sample.time, sample.left_hand, sample.right_hand
        events: list[JabEvent] = []
        newest = (now, left, right)
        history = self._history
        history.append(newest)
        horizon = now - VELOCITY_WINDOW - 1e-9
        while history[0] is not newest and history[0][0] < horizon:
            history.popleft()
        oldest = history[0]
        elapsed = now - oldest[0]
        before, self._now = self._now, now
        if elapsed <= 0.0 or (oldest[1] is left and oldest[2] is right):
            # An under-filled window, or both hands at rest (the common
            # tick): speed 0, which never crosses a threshold from below.
            # Left unjudged, both count as 0 on the next frame.
            return events
        jab = self.judge(0, now, before, elapsed, oldest[1], left)
        if jab is not None:
            events.append(jab)
        jab = self.judge(1, now, before, elapsed, oldest[2], right)
        if jab is not None:
            events.append(jab)
        return events

    def judge(self, i: int, now: float, before: float | None,
              elapsed: float, start: Vec3, end: Vec3) -> JabEvent | None:
        """The jab hand ``i`` (0 left, 1 right) fires on the frame at
        ``now``, if any, when its window starts ``elapsed`` earlier at
        ``start`` and ends at ``end``.

        The speed is 0 for an empty window or a hand that has not moved,
        and otherwise the distance over ``elapsed``.  The jab fires when
        that reaches the threshold from below, outside the refractory.
        The speed below is the one judged on the frame at ``before``,
        the frame before this one; a hand not judged there counts as 0.
        """
        below = self._speed[i] if self._judged[i] == before else 0.0
        self._judged[i] = now
        self._speed[i] = 0.0
        if elapsed <= 0.0 or start is end:
            return None
        dx = end[0] - start[0]
        dy = end[1] - start[1]
        dz = end[2] - start[2]
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist == 0.0:
            return None
        speed = self._speed[i] = dist / elapsed
        if (speed >= JAB_SPEED_THRESHOLD and below < JAB_SPEED_THRESHOLD
                and now - self._last_fire[i] >= JAB_REFRACTORY - 1e-9):
            self._last_fire[i] = now
            return _new(JabEvent, (now, _HANDS[i], speed, end,
                                   (dx / dist, dy / dist, dz / dist)))
        return None


def _ray_passes(origin: Vec3, direction: Vec3, centre: Vec3,
                tolerance: float) -> bool:
    """True if the forward ray comes within ``tolerance`` of ``centre``."""
    ox = centre[0] - origin[0]
    oy = centre[1] - origin[1]
    oz = centre[2] - origin[2]
    along = ox * direction[0] + oy * direction[1] + oz * direction[2]
    if along < 0.0:
        return False
    px = ox - along * direction[0]
    py = oy - along * direction[1]
    pz = oz - along * direction[2]
    return math.sqrt(px * px + py * py + pz * pz) <= tolerance


def resolve_jab(jab: JabEvent, world: WorldState, policy: TargetingPolicy,
                empowered: bool = False) -> HitResult:
    """Decide what a registered jab hits.

    Without empowerment the punch must physically reach a virus (melee
    radius around the hand).  Empowered rough targeting takes the nearest
    colour-matched virus inside the policy range; precise targeting
    additionally requires the jab ray to pass close to the virus centre.
    Candidates of only the wrong colour report WRONG_HAND and leave the
    virus in flight.
    """
    matching: list[tuple[float, int, Entity]] = []
    off_colour: list[tuple[float, int, Entity]] = []
    range_m = policy.range_m
    precise = policy.mode is _PRECISE
    hand = jab.hand
    hx, hy, hz = jab.hand_pos
    # The height term of the melee distance, the same for every entity.
    dy2 = (hy - FLIGHT_HEIGHT) ** 2
    for entity in world.in_flight:
        if entity.kind not in VIRUS_KINDS:
            continue
        if empowered:
            distance = entity.position
            if distance > range_m:
                continue
            if precise and not _ray_passes(
                jab.hand_pos, jab.direction, entity.centre(), PRECISE_RAY_TOLERANCE
            ):
                continue
        else:
            # The distance from the hand to entity.centre(), written out.
            distance = math.sqrt((hx - entity.lane_offset) ** 2 + dy2
                                 + (hz - entity.position) ** 2)
            if distance > MELEE_RADIUS:
                continue
        bucket = matching if HAND_FOR_VIRUS[entity.kind] is hand else off_colour
        bucket.append((distance, entity.id, entity))
    if matching:
        _, _, target = min(matching, key=lambda item: (item[0], item[1]))
        return _new(HitResult, (_DESTROYED, target))
    return _WRONG_HAND if off_colour else _NO_TARGET


def classify_weave_pose(sample: PoseSample, calibration: Calibration) -> PoseClass:
    """Squat plus lean classification from the head position alone.

    Leaning without squatting still counts as standing: cells only respect
    a duck.
    """
    head_x, head_y, _ = sample.head
    if head_y > calibration.squat_ratio * calibration.standing_head_height:
        return PoseClass.STANDING
    if head_x > calibration.lean_threshold:
        return PoseClass.SQUAT_LEAN_RIGHT
    if head_x < -calibration.lean_threshold:
        return PoseClass.SQUAT_LEAN_LEFT
    return PoseClass.SQUAT


# Poses that clear each cell geometry.
AVOIDING_POSES = {
    EntityKind.FLAT_CELL: frozenset(
        {PoseClass.SQUAT, PoseClass.SQUAT_LEAN_LEFT, PoseClass.SQUAT_LEAN_RIGHT}
    ),
    EntityKind.RIGHT_TILT_CELL: frozenset({PoseClass.SQUAT_LEAN_RIGHT}),
    EntityKind.LEFT_TILT_CELL: frozenset({PoseClass.SQUAT_LEAN_LEFT}),
}


def resolve_cell_pass(cell: Entity, pose: PoseClass) -> CellOutcome:
    """Outcome when a cell reaches the player plane under ``pose``."""
    try:
        avoiding = AVOIDING_POSES[cell.kind]
    except KeyError:
        raise ValueError(f"entity {cell.id} is not a cell: {cell.kind}") from None
    return CellOutcome.AVOIDED if pose in avoiding else CellOutcome.COLLIDED

