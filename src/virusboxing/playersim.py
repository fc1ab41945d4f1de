"""Synthetic players: skill profiles and 50 Hz pose-stream generation.

A profile reacts to each spawn with a scripted plan.  Viruses get a jab
plan: the hand (sometimes the wrong one), a punch speed drawn from a
truncated normal, and an aim point blurred by per-axis error.  Cells get
a weave plan held around the predicted crossing step, or nothing when the
reliability draw fails.

Jab choreography is built so the detector fires on the intended tick: the
hand repositions below the jab threshold, holds still for one full
velocity window, then strikes at the drawn speed.  With a clean window the
crossing lands ``ceil(window / (dt * speed))`` ticks into the strike, so
the strike is scheduled backwards from the desired detection tick.
"""
from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .interaction import (
    Calibration,
    HAND_FOR_VIRUS,
    Hand,
    JAB_REFRACTORY,
    JAB_SPEED_THRESHOLD,
    PoseClass,
    PoseSample,
    TargetingPolicy,
    VELOCITY_WINDOW,
)
from .protocol import PhaseKind
from .world import Entity, EntityKind, FLIGHT_HEIGHT, arrival_time

__all__ = [
    "EmpowerPolicy",
    "PlayerProfile",
    "JabPlan",
    "WeavePlan",
    "SyntheticPlayer",
    "plan_reaction",
    "load_profile",
    "builtin_profiles",
]

Vec3 = tuple[float, float, float]

# Resting hand positions either side of the chest.
GUARD_LEFT: Vec3 = (-0.18, 1.35, 0.30)
GUARD_RIGHT: Vec3 = (0.18, 1.35, 0.30)

# Sub-threshold motion caps: repositioning and retracting must never fire
# the jab detector on their own.
REPOSITION_SPEED = 0.9
RETRACT_SPEED = 0.7

# Melee punches are timed for the instant the virus reaches arm's length.
CONTACT_REACH = 0.45

# A weave pose is held from well before the predicted crossing step until
# just after it, absorbing one-step prediction error either way.
WEAVE_LEAD_TICKS = 15
WEAVE_LAG_TICKS = 5

# Head drop/lean margins past the calibration thresholds.
SQUAT_DEPTH_MARGIN = 0.05
LEAN_MARGIN = 0.05

# Slowest strike worth scripting: cap the detection lead at this many
# seconds (25 ticks at 50 Hz), so the cap means the same at every dt.
_MAX_STRIKE_SECONDS = 0.5

# A knot segment at least this fast makes the ticks whose velocity window
# overlaps it hot.  The margin below the jab threshold absorbs rounding;
# repositioning and retracting stay well below it.
_HOT_SPEED = JAB_SPEED_THRESHOLD - 0.05

# The bit each hand's track marks in SyntheticPlayer.hot.
LEFT_MARK = 1
RIGHT_MARK = 2
# For each mark, the table that adds it to a byte through bytes.translate.
_WITH_MARK = {mark: bytes(byte | mark for byte in range(256))
              for mark in (LEFT_MARK, RIGHT_MARK)}


def _mark(hot: bytearray, start: int, stop: int, mark: int) -> None:
    """Add ``mark`` to the ticks ``start`` to ``stop - 1`` of ``hot``,
    growing ``hot`` to ``stop`` ticks first if it is shorter."""
    if stop > len(hot):
        hot.extend(bytes(stop - len(hot)))
    hot[start:stop] = hot[start:stop].translate(_WITH_MARK[mark])


class EmpowerPolicy(Enum):
    ACTIVATE_IMMEDIATELY = "activate_immediately"
    NEVER = "never"
    DURING_SPRINT_ONLY = "during_sprint_only"


# The fields of a profile that hold a number.
_NUMBER_FIELDS = ("reaction_time", "punch_speed_mean", "punch_speed_sd",
                  "aim_error_sd", "correct_hand_prob", "weave_reliability",
                  "effort")


@dataclass(frozen=True)
class PlayerProfile:
    name: str
    reaction_time: float
    punch_speed_mean: float
    punch_speed_sd: float
    aim_error_sd: float
    correct_hand_prob: float
    weave_reliability: float
    empower_policy: EmpowerPolicy
    effort: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "reaction_time": self.reaction_time,
            "punch_speed_mean": self.punch_speed_mean,
            "punch_speed_sd": self.punch_speed_sd,
            "aim_error_sd": self.aim_error_sd,
            "correct_hand_prob": self.correct_hand_prob,
            "weave_reliability": self.weave_reliability,
            "empower_policy": self.empower_policy.value,
            "effort": self.effort,
        }

    @classmethod
    def from_dict(cls, data: object) -> "PlayerProfile":
        """The profile a JSON object holds.

        Raises ``KeyError`` for a missing field, and ``ValueError`` naming
        the field for a ``name`` that is not a string or a numeric field
        that is not a JSON number (a bool is not one); or for ``data``
        that is not an object at all.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"a profile must be a JSON object, got {type(data).__name__}")
        name = data["name"]
        if not isinstance(name, str):
            raise ValueError(f"profile field 'name' must be a string, got {name!r}")
        numbers = {}
        for key in _NUMBER_FIELDS:
            value = data[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"profile field {key!r} must be a number, got {value!r}")
            numbers[key] = float(value)
        return cls(name=name,
                   empower_policy=EmpowerPolicy(data["empower_policy"]),
                   **numbers)

    def validate(self) -> None:
        for label, value in (("reaction_time", self.reaction_time),
                             ("punch_speed_mean", self.punch_speed_mean),
                             ("punch_speed_sd", self.punch_speed_sd),
                             ("aim_error_sd", self.aim_error_sd)):
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value}")
        if self.reaction_time < 0:
            raise ValueError(f"reaction_time must be >= 0, got {self.reaction_time}")
        if self.punch_speed_mean < 0 or self.punch_speed_sd < 0:
            raise ValueError("punch speed mean and sd must be >= 0")
        if self.aim_error_sd < 0:
            raise ValueError(f"aim_error_sd must be >= 0, got {self.aim_error_sd}")
        for label, p in (
            ("correct_hand_prob", self.correct_hand_prob),
            ("weave_reliability", self.weave_reliability),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must lie in [0, 1], got {p}")
        if not 0.0 < self.effort <= 1.0:
            raise ValueError(f"effort must lie in (0, 1], got {self.effort}")


def builtin_profiles() -> list[str]:
    """Names of the profiles shipped with the package."""
    pkg = resources.files(__package__) / "profiles"
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir()
                  if p.name.endswith(".json"))


def load_profile(name_or_path: str) -> PlayerProfile:
    """Load a shipped profile by name, or any profile from a JSON path."""
    candidate = resources.files(__package__) / "profiles" / f"{name_or_path}.json"
    if candidate.is_file():
        data = json.loads(candidate.read_text())
    else:
        path = Path(name_or_path)
        if not path.is_file():
            raise FileNotFoundError(
                f"no such profile: {name_or_path!r} "
                f"(built-ins: {', '.join(builtin_profiles())})"
            )
        data = json.loads(path.read_text())
    profile = PlayerProfile.from_dict(data)
    profile.validate()
    return profile


class JabPlan(NamedTuple):
    """A scripted punch at a virus: which hand strikes, on which tick, how
    fast and at what point, and whether empowered targeting aims it.

    A named tuple, so immutable and cheap to build.  ``seq`` orders plans
    drawn for the same hand: the later plan wins a conflict.
    """

    entity_id: int
    hand: Hand
    strike_tick: int
    speed: float
    aim: Vec3
    ranged: bool
    seq: int = 0


class WeavePlan(NamedTuple):
    """A scripted duck under a cell: the pose to hold around the tick the
    cell is predicted to cross on.

    A named tuple, so immutable and cheap to build.
    """

    entity_id: int
    pose: PoseClass
    cross_tick: int


_AVOIDANCE_POSE = {
    EntityKind.FLAT_CELL: PoseClass.SQUAT,
    EntityKind.RIGHT_TILT_CELL: PoseClass.SQUAT_LEAN_RIGHT,
    EntityKind.LEFT_TILT_CELL: PoseClass.SQUAT_LEAN_LEFT,
}


# Bound once: reading an enum member off its class is slow in Python 3.11.
_LEFT = Hand.LEFT
_RIGHT = Hand.RIGHT
_SQUAT = PoseClass.SQUAT


def _other_hand(hand: Hand) -> Hand:
    return _LEFT if hand is _RIGHT else _RIGHT


def plan_reaction(profile: PlayerProfile, entity: Entity, rng: random.Random, *,
                  now_tick: int, dt: float = 0.02,
                  policy: TargetingPolicy = TargetingPolicy(),
                  empowered_until: float | None = None,
                  seq: int = 0) -> JabPlan | WeavePlan | None:
    """Scripted reaction to one spawn.

    Draw order per virus is fixed (hand, speed, three aim axes) and per
    cell is one reliability draw, so replay streams stay aligned whatever
    the plan turns into.
    """
    now_t = now_tick * dt
    if entity.is_virus:
        u_hand = rng.random()
        speed = max(0.0, rng.normalvariate(profile.punch_speed_mean,
                                           profile.punch_speed_sd))
        err_x = rng.normalvariate(0.0, profile.aim_error_sd)
        err_y = rng.normalvariate(0.0, profile.aim_error_sd)
        err_z = rng.normalvariate(0.0, profile.aim_error_sd)
        correct = HAND_FOR_VIRUS[entity.kind]
        hand = correct if u_hand < profile.correct_hand_prob else _other_hand(correct)

        # Empowered play punches as soon as the virus is inside the policy
        # range; otherwise wait for melee reach, anticipating the arrival.
        enter = entity.spawn_time + max(
            0.0, (entity.spawn_z - policy.range_m) / entity.speed
        )
        strike_t = max(enter + profile.reaction_time, now_t + dt)
        strike_tick = math.ceil(strike_t / dt - 1e-9)
        ranged = empowered_until is not None and strike_tick * dt < empowered_until
        if not ranged:
            reach_t = entity.spawn_time + (
                (entity.spawn_z - CONTACT_REACH) / entity.speed
            )
            strike_t = max(reach_t, now_t + profile.reaction_time, now_t + dt)
            strike_tick = math.ceil(strike_t / dt - 1e-9)
        aim_time = strike_tick * dt
        z_pred = entity.spawn_z - entity.speed * (aim_time - entity.spawn_time)
        aim = (
            entity.lane_offset + err_x,
            FLIGHT_HEIGHT + err_y,
            z_pred + err_z,
        )
        return JabPlan(entity.id, hand, strike_tick, speed, aim, ranged, seq)

    if rng.random() >= profile.weave_reliability:
        return None
    cross_tick = math.ceil(arrival_time(entity) / dt - 1e-9) - 1
    return WeavePlan(entity.id, _AVOIDANCE_POSE[entity.kind], cross_tick)


def _lerp(a: Vec3, b: Vec3, f: float) -> Vec3:
    return (
        a[0] + f * (b[0] - a[0]),
        a[1] + f * (b[1] - a[1]),
        a[2] + f * (b[2] - a[2]),
    )


def _dist(a: Vec3, b: Vec3) -> float:
    return math.sqrt(
        (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
    )


def _strike_ticks(speed: float, dt: float) -> int:
    """Ticks from strike start until the windowed speed reaches the strike
    speed's detection point, assuming a still hand beforehand."""
    if speed <= 0.0:
        return 1
    return min(math.ceil(_MAX_STRIKE_SECONDS / dt - 1e-9),
               math.ceil(VELOCITY_WINDOW / (dt * speed) - 1e-9))


def _point(knots: list[tuple[float, Vec3]], times: list[float],
           t: float) -> Vec3:
    """The point at time ``t`` on a knot chain whose knot times are
    ``times``, lerped between the knots either side.

    Before the first knot, exactly on a knot, on a hold (two knots on one
    point, as before a strike) and from the last knot on, this is that
    knot's own tuple, so the jab detector sees a still hand as one object.
    """
    i = bisect_right(times, t)
    if i == len(times):
        return knots[-1][1]
    if i == 0:
        return knots[0][1]
    t0, p0 = knots[i - 1]
    t1, p1 = knots[i]
    if t <= t0 or p1 is p0:
        return p0
    # _lerp(p0, p1, f), term for term, without the call.
    f = (t - t0) / (t1 - t0)
    return (
        p0[0] + f * (p1[0] - p0[0]),
        p0[1] + f * (p1[1] - p0[1]),
        p0[2] + f * (p1[2] - p0[2]),
    )


class _HandTrack:
    """Piecewise-linear future trajectory for one hand.

    Pending jab plans are kept sorted by strike tick and the knot chain is
    rebuilt on every insertion; a new plan whose choreography cannot
    coexist with a pending one preempts it (highest seq wins).  A new
    plan is put in its place among the pending ones, and conflicts are
    settled from there on.

    Each rebuild also marks, under the track's own bit ``mark`` of the
    shared ``hot`` array, the ticks on which its hand's jab can fire.  It
    looks only at the strikes the chain before did not lay, and at the
    chain's first segment (see :meth:`_rebuild`, :meth:`_mark_hot` and
    :class:`SyntheticPlayer`); the marks of the others are there
    already.  The track keeps the chain a rebuild replaced, with the tick
    it was replaced on, so that :meth:`ends` can read a window that
    starts before the rebuild.  Every read is a bisection of a chain's
    knot times (``_point``), so reads may come in any order.  ``lead``
    is the velocity window in ticks.
    """

    def __init__(self, guard: Vec3, dt: float, hot: bytearray,
                 mark: int) -> None:
        self.guard = guard
        self.dt = dt
        self.lead = math.ceil(VELOCITY_WINDOW / dt)
        self.hot = hot
        self.mark = mark
        self.knots: list[tuple[float, Vec3]] = [(0.0, guard)]
        self.times = [0.0]
        self.plans: list[JabPlan] = []
        # The tick the chain took over on, set a window back for the first
        # so that a rebuild on any tick is far enough from it, and the
        # chain it replaced.
        self._since = -self.lead
        self._old, self._old_times = self.knots, self.times

    def position_at(self, t: float) -> Vec3:
        return _point(self.knots, self.times, t)

    def ends(self, start: int, tick: int) -> tuple[Vec3, Vec3]:
        """The hand on tick ``start`` and on tick ``tick``: the very values,
        and on a hold or at rest the very tuples, that ``position_at``
        gives when read on every tick.

        A rebuild replaces the chain after the ticks before it were run,
        so ``start`` is read off the chain it replaced before ``_since``,
        and off the current one from there on; ``tick`` is read off the
        current one.  ``add`` keeps rebuilds a window apart, so a
        ``start`` at most ``lead`` ticks before ``tick`` never reaches an
        older chain.
        """
        dt = self.dt
        if start < self._since:
            first = _point(self._old, self._old_times, start * dt)
        else:
            first = _point(self.knots, self.times, start * dt)
        return first, _point(self.knots, self.times, tick * dt)

    def add(self, plan: JabPlan, now_tick: int) -> None:
        """Schedule ``plan`` and rebuild the chain from ``now_tick`` on.

        Raises RuntimeError if the chain was last rebuilt fewer than
        ``lead`` ticks before, on another tick: a window could then span
        three chains.  A second rebuild on one tick replaces a chain that
        held on no tick, so the older one stays the previous chain.
        """
        if now_tick != self._since:
            if now_tick - self._since < self.lead:
                raise RuntimeError(
                    f"a hand chain rebuilt on tick {self._since} is rebuilt "
                    f"again on tick {now_tick}, within the {self.lead}-tick "
                    f"velocity window")
            self._old, self._old_times = self.knots, self.times
            self._since = now_tick
        plans = self.plans
        # Plans are kept in (strike tick, seq) order, so those whose strike
        # tick has passed come first, and the new plan goes after every
        # plan that sorts at or before it.
        passed = 0
        while passed < len(plans) and plans[passed].strike_tick <= now_tick:
            passed += 1
        at = len(plans)
        while at > passed and (plans[at - 1].strike_tick,
                               plans[at - 1].seq) > (plan.strike_tick,
                                                     plan.seq):
            at -= 1
        # The plans before it follow one another without conflict, as they
        # did after the last add, so conflicts are settled from it on.
        # ``same`` counts the leading plans the old chain laid too: those
        # before it, fewer if it preempts one of them.
        survivors = plans[passed:at]
        same = len(survivors)
        for p in [plan, *plans[at:]]:
            keep = True
            while survivors and self._conflicts(survivors[-1], p):
                if p.seq > survivors[-1].seq:
                    survivors.pop()
                    same = min(same, len(survivors))
                else:
                    keep = False
                    break
            if keep:
                survivors.append(p)
        self.plans = survivors
        self._rebuild(now_tick, same)

    def _conflicts(self, first: JabPlan, second: JabPlan) -> bool:
        spacing = (second.strike_tick - first.strike_tick) * self.dt
        if spacing < JAB_REFRACTORY - 1e-9:
            return True
        # The later strike's hold window must start after the earlier
        # strike has finished.
        prep = _strike_ticks(second.speed, self.dt) * self.dt + VELOCITY_WINDOW
        return spacing < prep - 1e-9

    def _append(self, knots: list[tuple[float, Vec3]], t: float,
                pos: Vec3) -> None:
        if t > knots[-1][0] + 1e-12:
            knots.append((t, pos))

    def _rebuild(self, now_tick: int, same: int) -> None:
        """Lay the chain from ``now_tick`` on through the pending plans,
        the first ``same`` of which the chain it replaces laid too, and
        mark the ticks its new strikes make hot.

        Repositioning and retracting stay below ``_HOT_SPEED``, so only a
        strike can make a tick hot.  The strikes of the first ``same``
        plans end on the knot times they had in the chain before, and
        start there too, or later if they start on the rebuild tick, so
        their ticks are marked already.  Such a strike cut short on the
        rebuild tick, the chain's first segment, is still marked: it can
        round to ``_HOT_SPEED`` where the whole strike did not.
        """
        now_t = now_tick * self.dt
        pos_now = self.position_at(now_t)
        knots: list[tuple[float, Vec3]] = [(now_t, pos_now)]
        t_free, p_free = now_t, pos_now
        for n, plan in enumerate(self.plans):
            k = _strike_ticks(plan.speed, self.dt)
            strike_end_t = plan.strike_tick * self.dt
            strike_start = max(t_free, strike_end_t - k * self.dt)
            hold_start = max(t_free, strike_start - VELOCITY_WINDOW)

            if plan.ranged:
                launch = p_free
            else:
                d_strike = plan.speed * (strike_end_t - strike_start)
                gap = _dist(p_free, plan.aim)
                if gap > d_strike:
                    launch = _lerp(p_free, plan.aim, (gap - d_strike) / gap)
                else:
                    launch = p_free
            avail = hold_start - t_free
            need = _dist(p_free, launch)
            if need > 1e-12 and avail > 0.0:
                duration = need / REPOSITION_SPEED
                if duration <= avail:
                    self._append(knots, t_free + duration, launch)
                else:
                    launch = _lerp(p_free, launch,
                                   avail * REPOSITION_SPEED / need)
                    self._append(knots, hold_start, launch)
            else:
                launch = p_free
            self._append(knots, strike_start, launch)

            if plan.speed > 0.0 and strike_end_t > strike_start:
                gap = _dist(launch, plan.aim)
                if gap > 1e-12:
                    direction = _lerp((0.0, 0.0, 0.0),
                                      (plan.aim[0] - launch[0],
                                       plan.aim[1] - launch[1],
                                       plan.aim[2] - launch[2]), 1.0 / gap)
                else:
                    direction = (0.0, 0.0, 1.0)
                travel = plan.speed * (strike_end_t - strike_start)
                end_pos = (
                    launch[0] + travel * direction[0],
                    launch[1] + travel * direction[1],
                    launch[2] + travel * direction[2],
                )
                self._append(knots, strike_end_t, end_pos)
                if n >= same or len(knots) == 2:
                    self._mark_hot(knots[-2], knots[-1])
                t_free, p_free = strike_end_t, end_pos
            else:
                t_free, p_free = strike_start, launch
        back = _dist(p_free, self.guard)
        if back > 1e-12:
            self._append(knots, t_free + back / RETRACT_SPEED, self.guard)
        self.knots = knots
        self.times = [knot[0] for knot in knots]

    def _mark_hot(self, start: tuple[float, Vec3],
                  end: tuple[float, Vec3]) -> None:
        """Mark the ticks whose velocity window overlaps the segment from
        knot ``start`` to knot ``end``, if it is at ``_HOT_SPEED`` or
        faster: from the first tick after the segment starts to ``lead``
        ticks after the last one before it ends.

        The first marked tick comes after the chain's first knot, which
        lies on the rebuild tick, so no mark lands on a tick already run.
        Marks are only ever added, so those of a chain a rebuild replaced
        stay: a tick whose window reaches back before the rebuild may need
        them.  On a tick no chain has marked, every segment in the window
        is slower than ``_HOT_SPEED``, so the hand's windowed speed is
        below the jab threshold there.
        """
        (t0, p0), (t1, p1) = start, end
        dx = p1[0] - p0[0]
        dy = p1[1] - p0[1]
        dz = p1[2] - p0[2]
        limit = _HOT_SPEED * (t1 - t0)
        if dx * dx + dy * dy + dz * dz < limit * limit:
            return
        # The first tick past t0, and the last tick before t1, both on the
        # player's own k * dt clock.
        dt = self.dt
        first = math.floor(t0 / dt) + 1
        while first > 0 and (first - 1) * dt > t0:
            first -= 1
        while first * dt <= t0:
            first += 1
        last = math.ceil(t1 / dt) - 1
        while (last + 1) * dt < t1:
            last += 1
        while last >= 0 and last * dt >= t1:
            last -= 1
        _mark(self.hot, first, last + self.lead + 1, self.mark)


@dataclass(slots=True)
class _WeaveWindow:
    start: int
    end: int
    cross_tick: int
    pose: PoseClass
    head: Vec3
    entity_id: int
    tilted: bool


_BUTTON_A = frozenset({"A"})
_NO_BUTTONS: frozenset[str] = frozenset()
# Bound once: reading an enum member off its class is slow in Python 3.11,
# and sample() tests for a sprint every tick.
_SPRINT = PhaseKind.SPRINT


class SyntheticPlayer:
    """Streaming pose generator driven by per-spawn plans.

    ``hot`` marks the ticks on which a jab can fire: one byte per tick,
    one bit per hand (``LEFT_MARK``, ``RIGHT_MARK``).  Each knot chain of
    a hand marks under its bit the ticks whose velocity window overlaps
    a segment at ``_HOT_SPEED`` or faster (``_HandTrack._mark_hot``; a
    rebuild marks only what the chain before did not lay).  A virus's
    plan rebuilds its hand's chain from its spawn tick on, and
    the new marks start after that tick; marks are only ever added.  On
    a tick its bit leaves unmarked, a hand's windowed speed is below the
    jab threshold.  ``horizon`` sizes ``hot`` up front; it grows past
    that when a mark reaches further.

    Ticks may be sampled sparsely, in ascending order, for the weave
    windows' sake: the head comes out as if every tick had been sampled.
    The hands are read off their knot chains on any tick in any order,
    and a held hand is one tuple from tick to tick.  ``tracks`` holds the
    left and the right hand's track, in the order of their bits.  On a
    tick its bit marks, a track's ``ends`` gives the hand's position
    there and at the start of its velocity window, the very tuples
    ``sample`` would have given on those ticks, for a jab detector that
    reads nothing else.
    """

    def __init__(self, profile: PlayerProfile, calibration: Calibration,
                 rng: random.Random, *, dt: float = 0.02,
                 policy: TargetingPolicy = TargetingPolicy(),
                 horizon: int = 0) -> None:
        profile.validate()
        self.profile = profile
        self.calibration = calibration
        self.rng = rng
        self.dt = dt
        self.policy = policy
        self._seq = 0
        self.hot = bytearray(horizon)
        self.tracks = (_HandTrack(GUARD_LEFT, dt, self.hot, LEFT_MARK),
                       _HandTrack(GUARD_RIGHT, dt, self.hot, RIGHT_MARK))
        self.lead = self.tracks[0].lead
        height = calibration.standing_head_height
        squat_y = (calibration.squat_ratio - SQUAT_DEPTH_MARGIN) * height
        lean_x = calibration.lean_threshold + LEAN_MARGIN
        self._head_for = {
            PoseClass.STANDING: (0.0, height, 0.0),
            PoseClass.SQUAT: (0.0, squat_y, 0.0),
            PoseClass.SQUAT_LEAN_LEFT: (-lean_x, squat_y, 0.0),
            PoseClass.SQUAT_LEAN_RIGHT: (lean_x, squat_y, 0.0),
        }
        self._standing = self._head_for[PoseClass.STANDING]
        # The buttons held in a sprint and in any other phase, which the
        # empowerment policy fixes.
        policy = profile.empower_policy
        self._sprint_buttons = (_NO_BUTTONS if policy is EmpowerPolicy.NEVER
                                else _BUTTON_A)
        self._other_buttons = (
            _BUTTON_A if policy is EmpowerPolicy.ACTIVATE_IMMEDIATELY
            else _NO_BUTTONS
        )
        self._weaves: list[_WeaveWindow] = []
        self._active: list[_WeaveWindow] = []
        self._wptr = 0

    def buttons(self, phase_kind: PhaseKind) -> frozenset[str]:
        """The buttons held in a phase of this kind, on every tick of it."""
        return (self._sprint_buttons if phase_kind is _SPRINT
                else self._other_buttons)

    def observe_spawn(self, entity: Entity, now_tick: int,
                      empowered_until: float | None) -> None:
        """React to a spawn: draw the plan and schedule its motion."""
        plan = plan_reaction(
            self.profile, entity, self.rng,
            now_tick=now_tick, dt=self.dt, policy=self.policy,
            empowered_until=empowered_until, seq=self._seq,
        )
        self._seq += 1
        self.inject(plan, now_tick)

    def inject(self, plan: JabPlan | WeavePlan | None, now_tick: int) -> None:
        if plan is None:
            return
        if isinstance(plan, JabPlan):
            self.tracks[plan.hand is _RIGHT].add(plan, now_tick)
            return
        window = _WeaveWindow(
            start=plan.cross_tick - WEAVE_LEAD_TICKS,
            end=plan.cross_tick + WEAVE_LAG_TICKS,
            cross_tick=plan.cross_tick,
            pose=plan.pose,
            head=self._head_for[plan.pose],
            entity_id=plan.entity_id,
            tilted=plan.pose is not _SQUAT,
        )
        # Consume the windows due by the last tick first, as sampling
        # every tick up to now would have: where the new window lands
        # against the activation pointer must not depend on which ticks
        # were sampled.
        weaves = self._weaves
        while self._wptr < len(weaves) and weaves[self._wptr].start < now_tick:
            self._active.append(weaves[self._wptr])
            self._wptr += 1
        # A window starts after every consumed one unless its cell crosses
        # within WEAVE_LEAD_TICKS of now; then it lands among them.
        weaves.append(window)
        i = len(weaves) - 1
        while i > 0 and weaves[i - 1].start > window.start:
            weaves[i] = weaves[i - 1]
            i -= 1
        weaves[i] = window

    def _weave_head(self, tick: int) -> Vec3:
        """The head position the weave windows active at ``tick`` ask for."""
        weaves = self._weaves
        active = self._active
        while self._wptr < len(weaves) and weaves[self._wptr].start <= tick:
            active.append(weaves[self._wptr])
            self._wptr += 1
        best: _WeaveWindow | None = None
        best_key = None
        kept = 0
        for w in active:
            if w.end < tick:
                continue
            active[kept] = w
            kept += 1
            key = (not w.tilted, abs(tick - w.cross_tick), w.entity_id)
            if best_key is None or key < best_key:
                best, best_key = w, key
        del active[kept:]
        # A tilted duck also clears flat cells, so it can stand in for a
        # plain squat, never the other way round.
        return self._standing if best is None else best.head

    def sample(self, tick: int, phase_kind: PhaseKind) -> PoseSample:
        t = tick * self.dt
        weaves = self._weaves
        if not self._active and (self._wptr == len(weaves)
                                 or weaves[self._wptr].start > tick):
            # No weave window is active or due: the common tick.
            head = self._standing
        else:
            head = self._weave_head(tick)
        left, right = self.tracks
        return PoseSample(t, head, left.position_at(t), right.position_at(t),
                          self.buttons(phase_kind))
