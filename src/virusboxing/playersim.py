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

import functools
import json
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import NamedTuple, get_args, get_origin, get_type_hints

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
from .protocol import PhaseKind, first_tick
from .world import (CREATOR_DISTANCE, Entity, EntityKind, FLIGHT_HEIGHT,
                    IdentityEnum, VIRUS_KINDS, arrival_time, _new)

__all__ = [
    "EmpowerPolicy",
    "PlayerProfile",
    "JabPlan",
    "WeavePlan",
    "SyntheticPlayer",
    "plan_reaction",
    "load_profile",
    "builtin_profiles",
    "read_field",
    "read_json_object",
    "read_number",
    "declared_intervals",
    "check_bounds",
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


class EmpowerPolicy(IdentityEnum):
    ACTIVATE_IMMEDIATELY = "activate_immediately"
    NEVER = "never"
    DURING_SPRINT_ONLY = "during_sprint_only"


# Each dataclass's field types, its string annotations evaluated once.
_field_types = functools.cache(get_type_hints)


def read_number(value: object, name: str) -> float:
    """``value`` as a float: it must be a number, not a bool, within the
    float range.  Raises ``ValueError`` naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


def read_field(cls: type, name: str, value: object, what: str):
    """``value`` read by the declared type of field ``name`` of the ``cls``
    dataclass: the one rule for what a field's type accepts, and how its
    numbers are written.  A ``float`` field takes a number that
    ``read_number`` reads, as a float, so that ``60`` and ``60.0`` make
    one config and one digest; a tuple-of-floats field a tuple of as many
    such numbers, as a tuple of floats; and any other field a value of
    exactly its type, as it stands.

    Raises ``ValueError`` naming ``what`` for any other value.
    """
    kind = _field_types(cls)[name]
    if type(value) is kind:
        return value
    if kind is float:
        return read_number(value, what)
    items = get_args(kind)
    if get_origin(kind) is tuple and set(items) == {float}:
        if type(value) is tuple and len(value) == len(items):
            return tuple([read_number(item, what) for item in value])
        raise ValueError(
            f"{what} must be a tuple of {len(items)} numbers, got {value!r}")
    raise ValueError(
        f"{what} must be of type {kind.__name__}, got {value!r}")


def read_json_object(cls: type, data: object, what: str):
    """The ``cls`` dataclass a JSON object holds: an enum field's value
    names its member, and every field is read by ``read_field``.  A field
    with a default may be left out.

    Raises ``ValueError`` naming the key for an unknown key, a missing
    field with no default or a value ``read_field`` does not take, and
    for ``data`` that is not an object at all; ``what`` names the object.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"a {what} must be a JSON object, got {type(data).__name__}")
    types = _field_types(cls)
    for key in data:
        if key not in types:
            raise ValueError(f"unknown {what} field {key!r}")
    values = {}
    for spec in fields(cls):
        name, kind = spec.name, types[spec.name]
        if name not in data:
            if spec.default is MISSING:
                raise ValueError(f"{what} field {name!r} is missing")
            continue
        value = data[name]
        if issubclass(kind, Enum):
            value = next((m for m in kind if m.value == value), value)
        values[name] = read_field(cls, name, value, f"{what} field {name!r}")
    return cls(**values)


@functools.cache
def declared_intervals(cls: type) -> dict[str, tuple[str, float, float]]:
    """Each field of the ``cls`` dataclass that declares an interval in
    its ``"interval"`` metadata, by name: the interval as declared, such
    as ``"(0, 1]"``, and its low and high ends."""
    return {spec.name: (text, *map(float, text[1:-1].split(",")))
            for spec in fields(cls)
            if (text := spec.metadata.get("interval")) is not None}


def check_bounds(obj, what: str = "") -> dict:
    """Check the declared fields of the ``obj`` dataclass and return them
    as the payload the config digest hashes: one walk does both.

    A field that holds a dataclass must hold an instance of its class,
    whose fields are walked in turn, the field's name as a prefix
    (``heart hr_rest``), and returned as a dict.  Any other field is read
    by ``read_field``, held to the interval it declares
    (``declared_intervals``), each item of a tuple included, and returned
    as read.  An ``int`` field is compared as it stands, so an integer
    past the float range may lie in its interval.  NaN lies in no
    interval, and every end at ``inf`` is open.

    Raises ``ValueError`` naming the first field that does not hold,
    after ``what``.
    """
    cls = type(obj)
    intervals = declared_intervals(cls)
    types = _field_types(cls)
    payload = {}
    for spec in fields(obj):
        name, kind = what + spec.name, types[spec.name]
        value = getattr(obj, spec.name)
        if hasattr(kind, "__dataclass_fields__"):
            if not isinstance(value, kind):
                raise ValueError(
                    f"{name} must be of type {kind.__name__}, got {value!r}")
            payload[spec.name] = check_bounds(value, name + " ")
            continue
        value = payload[spec.name] = read_field(cls, spec.name, value, name)
        if spec.name in intervals:
            interval, low, high = intervals[spec.name]
            for number in value if type(value) is tuple else (value,):
                if not ((low <= number if interval[0] == "[" else low < number)
                        and (number <= high if interval[-1] == "]"
                             else number < high)):
                    raise ValueError(f"{name} must lie in {interval}, "
                                     f"got {number}")
    return payload


@dataclass(frozen=True)
class PlayerProfile:
    """A player's skill.  Each number's ``"interval"`` metadata bounds it,
    checked by ``validate``."""

    name: str
    reaction_time: float = field(metadata={"interval": "[0, inf)"})
    punch_speed_mean: float = field(metadata={"interval": "[0, inf)"})
    punch_speed_sd: float = field(metadata={"interval": "[0, inf)"})
    # An aim error past the corridor's length models no player aiming
    # down it (the shipped profiles use 0.03-0.25), and from about 1e154
    # a jab plan's squared distances overflow.
    aim_error_sd: float = field(
        metadata={"interval": f"[0, {CREATOR_DISTANCE:g}]"})
    correct_hand_prob: float = field(metadata={"interval": "[0, 1]"})
    weave_reliability: float = field(metadata={"interval": "[0, 1]"})
    empower_policy: EmpowerPolicy
    effort: float = field(metadata={"interval": "(0, 1]"})

    @classmethod
    def from_dict(cls, data: object) -> "PlayerProfile":
        """The profile a JSON object holds, read by ``read_json_object``."""
        return read_json_object(cls, data, "profile")

    def validate(self) -> None:
        check_bounds(self)


def builtin_profiles() -> list[str]:
    """Names of the profiles shipped with the package."""
    pkg = resources.files(__package__) / "profiles"
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir()
                  if p.name.endswith(".json"))


def load_profile(name_or_path: str) -> PlayerProfile:
    """Load a shipped profile by name, or any profile from a JSON path."""
    candidate = resources.files(__package__) / "profiles" / f"{name_or_path}.json"
    if candidate.is_file():
        data = json.loads(candidate.read_text(encoding="utf-8"))
    else:
        path = Path(name_or_path)
        if not path.is_file():
            raise FileNotFoundError(
                f"no such profile: {name_or_path!r} "
                f"(built-ins: {', '.join(builtin_profiles())})"
            )
        data = json.loads(path.read_text(encoding="utf-8"))
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
    the plan turns into.  A virus draws its hand with ``rng.random()``,
    then its speed and its x, y and z aim errors with four
    ``rng.normalvariate`` calls in that order.
    """
    now_t = now_tick * dt
    if entity.kind in VIRUS_KINDS:
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
        return _new(JabPlan, (entity.id, hand, strike_tick, speed, aim, ranged,
                              seq))

    if rng.random() >= profile.weave_reliability:
        return None
    cross_tick = math.ceil(arrival_time(entity) / dt - 1e-9) - 1
    return _new(WeavePlan, (entity.id, _AVOIDANCE_POSE[entity.kind], cross_tick))


def _strike_ticks(speed: float, dt: float) -> int:
    """Ticks from strike start until the windowed speed reaches the strike
    speed's detection point, assuming a still hand beforehand."""
    if speed <= 0.0:
        return 1
    cap = math.ceil(_MAX_STRIKE_SECONDS / dt - 1e-9)
    # A speed so slow that a tick's step underflows to 0, or the ticks
    # overflow, strikes at the cap too.
    step = dt * speed
    ticks = VELOCITY_WINDOW / step - 1e-9 if step else math.inf
    return cap if ticks >= cap else math.ceil(ticks)


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
    # _lerp(p0, p1, f) of tests/per_tick_primitives.py, term for term,
    # without the call.
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

    A session runs ``add`` on every virus spawn, so it and ``_rebuild``
    do their float arithmetic in place: each settles or lays in one body,
    term for term as the plain distance, lerp and append helpers would,
    with no call per knot.  ``tests/hand_track_reference.py`` keeps the
    helper calls, and ``tests/test_hand_track_kernel.py`` holds the track
    to them bit for bit.
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
        dt = self.dt
        for p in (plan, *plans[at:]):
            keep = True
            limit = None
            while survivors:
                last = survivors[-1]
                # Two strikes conflict within the refractory, or when the
                # later one's hold window starts before the earlier strike
                # has finished.  That preparation is p's own, so it is
                # worked out once, when first needed.
                spacing = (p.strike_tick - last.strike_tick) * dt
                if spacing >= JAB_REFRACTORY - 1e-9:
                    if limit is None:
                        limit = (_strike_ticks(p.speed, dt) * dt
                                 + VELOCITY_WINDOW - 1e-9)
                    if spacing >= limit:
                        break
                if p.seq > last.seq:
                    survivors.pop()
                    same = min(same, len(survivors))
                else:
                    keep = False
                    break
            if keep:
                survivors.append(p)
        self.plans = survivors
        self._rebuild(now_tick, same)

    def _rebuild(self, now_tick: int, same: int) -> None:
        """Lay the chain from ``now_tick`` on through the pending plans,
        the first ``same`` of which the chain it replaces laid too, and
        mark the ticks its new strikes make hot.

        The chain is laid in this one body: each distance, lerp and knot
        append is written out on locals, in the floats and the order of
        the plain expressions (``max(a, b)`` as ``b if b > a else a``),
        and the knot times are kept beside the knots as they are laid.
        A knot goes on only if it is more than 1e-12 s after the last, and
        a point the hand holds is the one tuple on every knot it holds on.

        Repositioning and retracting stay below ``_HOT_SPEED``, so only a
        strike can make a tick hot.  The strikes of the first ``same``
        plans end on the knot times they had in the chain before, and
        start there too, or later if they start on the rebuild tick, so
        their ticks are marked already.  Such a strike cut short on the
        rebuild tick, the chain's first segment, is still marked: it can
        round to ``_HOT_SPEED`` where the whole strike did not.
        """
        sqrt = math.sqrt
        dt = self.dt
        now_t = now_tick * dt
        pos_now = _point(self.knots, self.times, now_t)
        knots: list[tuple[float, Vec3]] = [(now_t, pos_now)]
        times = [now_t]
        last_t = t_free = now_t
        p_free = pos_now
        for n, plan in enumerate(self.plans):
            speed = plan.speed
            ax, ay, az = plan.aim
            fx, fy, fz = p_free
            strike_end_t = plan.strike_tick * dt
            start = strike_end_t - _strike_ticks(speed, dt) * dt
            strike_start = start if start > t_free else t_free
            start = strike_start - VELOCITY_WINDOW
            hold_start = start if start > t_free else t_free

            # The launch point lies on the way to the aim, a strike's
            # length short of it; a ranged strike launches where it is.
            # A hand already there, or with no time to move, stays put.
            launch = p_free
            if not plan.ranged:
                d_strike = speed * (strike_end_t - strike_start)
                gap = sqrt((fx - ax) ** 2 + (fy - ay) ** 2 + (fz - az) ** 2)
                if gap > d_strike:
                    f = (gap - d_strike) / gap
                    lx = fx + f * (ax - fx)
                    ly = fy + f * (ay - fy)
                    lz = fz + f * (az - fz)
                    avail = hold_start - t_free
                    need = sqrt((fx - lx) ** 2 + (fy - ly) ** 2
                                + (fz - lz) ** 2)
                    if need > 1e-12 and avail > 0.0:
                        duration = need / REPOSITION_SPEED
                        if duration <= avail:
                            t = t_free + duration
                            launch = (lx, ly, lz)
                        else:
                            # Cut short where the hold must start.
                            t = hold_start
                            f = avail * REPOSITION_SPEED / need
                            launch = (fx + f * (lx - fx),
                                      fy + f * (ly - fy),
                                      fz + f * (lz - fz))
                        if t > last_t + 1e-12:
                            knots.append((t, launch))
                            times.append(t)
                            last_t = t
            if strike_start > last_t + 1e-12:
                knots.append((strike_start, launch))
                times.append(strike_start)
                last_t = strike_start

            if speed > 0.0 and strike_end_t > strike_start:
                lx, ly, lz = launch
                gap = sqrt((lx - ax) ** 2 + (ly - ay) ** 2 + (lz - az) ** 2)
                if gap > 1e-12:
                    # _lerp((0, 0, 0), aim - launch, 1 / gap) of
                    # tests/per_tick_primitives.py: the zero terms keep
                    # the sign of a zero component as it was.
                    f = 1.0 / gap
                    ux = 0.0 + f * ((ax - lx) - 0.0)
                    uy = 0.0 + f * ((ay - ly) - 0.0)
                    uz = 0.0 + f * ((az - lz) - 0.0)
                else:
                    ux, uy, uz = 0.0, 0.0, 1.0
                travel = speed * (strike_end_t - strike_start)
                p_free = (lx + travel * ux, ly + travel * uy, lz + travel * uz)
                if strike_end_t > last_t + 1e-12:
                    knots.append((strike_end_t, p_free))
                    times.append(strike_end_t)
                    last_t = strike_end_t
                if n >= same or len(knots) == 2:
                    self._mark_hot(knots[-2], knots[-1])
                t_free = strike_end_t
            else:
                t_free, p_free = strike_start, launch
        guard = self.guard
        fx, fy, fz = p_free
        back = sqrt((fx - guard[0]) ** 2 + (fy - guard[1]) ** 2
                    + (fz - guard[2]) ** 2)
        if back > 1e-12:
            t = t_free + back / RETRACT_SPEED
            if t > last_t + 1e-12:
                knots.append((t, guard))
                times.append(t)
        self.knots = knots
        self.times = times

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
        # player's own k * dt clock: k * dt > t0 is k * dt >= the next
        # float above t0.
        dt = self.dt
        first = first_tick(math.nextafter(t0, math.inf), dt)
        last = first_tick(t1, dt) - 1
        _mark(self.hot, first, last + self.lead + 1, self.mark)


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

    Ticks may be sampled sparsely.  The head is read off the weave plans
    held, found by their cross ticks, so it may be sampled in any order.
    The hands are read off their current knot chains: a rebuild starts a
    chain at the hand's place on the rebuild tick, so a tick before it,
    sampled afterwards, reads that place, not where the hand was then.
    A held head or hand is one tuple from tick to tick.
    ``tracks`` holds the left and the right hand's track, in the order of
    their bits.  On a tick its bit marks, a track's ``ends`` gives the
    hand's position there and at the start of its velocity window, the
    very tuples ``sample`` would have given on those ticks, for a jab
    detector that reads nothing else.
    """

    def __init__(self, profile: PlayerProfile, calibration: Calibration,
                 rng: random.Random, *, dt: float = 0.02,
                 policy: TargetingPolicy = TargetingPolicy(),
                 horizon: int = 0) -> None:
        profile.validate()
        self.profile = profile
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
        # Every weave plan injected, in cross-tick order with ties in the
        # order they came, and beside them their cross ticks.  A plan that
        # log v1 never shows is held as None (see inject).
        self._weaves: list[WeavePlan | None] = []
        self._crosses: list[int] = []

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
        """Schedule a plan drawn on tick ``now_tick``: a jab plan on its
        hand's track, a weave plan among the weave plans held.  Neither
        depends on which ticks were sampled before, and ticks may be
        sampled in any order after.
        """
        if plan is None:
            return
        if isinstance(plan, JabPlan):
            self.tracks[plan.hand is _RIGHT].add(plan, now_tick)
            return
        crosses = self._crosses
        i = bisect_right(crosses, plan.cross_tick)
        crosses.insert(i, plan.cross_tick)
        # Log v1 fault (ROADMAP item 4): a window starting before now_tick
        # and before another held window that starts before now_tick is
        # never shown.  It is held as None all the same, for this same
        # test on the windows drawn after it.
        hidden = i + 1 < bisect_left(crosses, now_tick + WEAVE_LEAD_TICKS)
        self._weaves.insert(i, None if hidden else plan)

    def sample(self, tick: int, phase_kind: PhaseKind) -> PoseSample:
        t = tick * self.dt
        # The weave plans whose window, from WEAVE_LEAD_TICKS before the
        # cross tick to WEAVE_LAG_TICKS after it, holds this tick.  A
        # tilted duck also clears flat cells, so it wins over a plain
        # squat, never the other way round; then the nearest crossing.
        crosses = self._crosses
        head = self._standing
        best = None
        for plan in self._weaves[bisect_left(crosses, tick - WEAVE_LAG_TICKS):
                                 bisect_right(crosses, tick + WEAVE_LEAD_TICKS)]:
            if plan is not None:
                key = (plan.pose is _SQUAT, abs(tick - plan.cross_tick),
                       plan.entity_id)
                if best is None or key < best:
                    best, head = key, self._head_for[plan.pose]
        left, right = self.tracks
        return _new(PoseSample, (t, head, left.position_at(t),
                                 right.position_at(t), self.buttons(phase_kind)))
