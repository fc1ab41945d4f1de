"""Interval-training timeline and spawn scheduling.

The seven-minute session alternates 30 s low-intensity and 90 s sprint
blocks three times, then closes with a 60 s cooldown that reuses the
low-intensity spawn parameters.  Phase windows are left-closed and
right-open, so a boundary instant already belongs to the next phase.

Difficulty scaling is one factor in [MODULATION_MIN, MODULATION_MAX]
that speeds up spawn cadence and entity speed alike.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .world import EntityKind, IdentityEnum, _new

__all__ = [
    "SESSION_DURATION",
    "PhaseKind",
    "ProtocolPhase",
    "SpawnParams",
    "LOW_INTENSITY_SPAWN",
    "SPRINT_SPAWN",
    "KIND_MIX",
    "LANE_HALF_WIDTH",
    "SpawnEvent",
    "phase_at",
    "first_tick",
    "phase_boundary_ticks",
    "sprint_windows",
    "spawn_params",
    "sample_kind",
    "next_spawn",
]

SESSION_DURATION = 420.0

# Bounds of the difficulty scale (see physiology.apply_modulation).
MODULATION_MIN = 0.5
MODULATION_MAX = 2.0

# Entities spawn laterally offset up to half a metre either side of centre.
LANE_HALF_WIDTH = 0.5


class PhaseKind(IdentityEnum):
    LOW = "low"
    SPRINT = "sprint"
    COOLDOWN = "cooldown"
    ENDED = "ended"


@dataclass(frozen=True, slots=True)
class ProtocolPhase:
    kind: PhaseKind
    index: int


# (start, end, kind, index) with [start, end) windows.
_TIMELINE: tuple[tuple[float, float, PhaseKind, int], ...] = (
    (0.0, 30.0, PhaseKind.LOW, 0),
    (30.0, 120.0, PhaseKind.SPRINT, 0),
    (120.0, 150.0, PhaseKind.LOW, 1),
    (150.0, 240.0, PhaseKind.SPRINT, 1),
    (240.0, 270.0, PhaseKind.LOW, 2),
    (270.0, 360.0, PhaseKind.SPRINT, 2),
    (360.0, 420.0, PhaseKind.COOLDOWN, 0),
)


def sprint_windows() -> tuple[tuple[float, float], ...]:
    """The three sprint [start, end) windows, in order."""
    return tuple(
        (start, end) for start, end, kind, _ in _TIMELINE if kind is PhaseKind.SPRINT
    )


def phase_at(t: float) -> ProtocolPhase:
    """Map a session time to its phase; total for every t >= 0."""
    if t < 0.0:
        raise ValueError(f"session time must be non-negative, got {t}")
    for start, end, kind, index in _TIMELINE:
        if start <= t < end:
            return ProtocolPhase(kind, index)
    return ProtocolPhase(PhaseKind.ENDED, 0)


def first_tick(x: float, dt: float, slack: float = 0.0) -> int:
    """The first tick ``k >= 0`` with ``k * dt + slack >= x``, in floats
    as written: the v1 clock's one search from a time to a tick.

    ``k * dt`` never decreases as ``k`` grows, so neither does the test's
    left side.  The seed ``ceil((x - slack) / dt)`` lies within rounding
    of the answer, and the two loops step it there.
    """
    k = math.ceil((x - slack) / dt)
    if k < 0:  # cheaper than max(0, k) on the per-strike path
        k = 0
    while k > 0 and (k - 1) * dt + slack >= x:
        k -= 1
    while k * dt + slack < x:
        k += 1
    return k


def phase_boundary_ticks(dt: float) -> tuple[int, ...]:
    """Ticks ``k`` at which ``phase_at(k * dt)`` can differ from tick ``k - 1``.

    For every phase start, and for the end of the session, this is
    ``first_tick(start, dt)``: the comparison ``phase_at`` makes, so a
    boundary that falls between ticks resolves exactly as a per-tick
    lookup would.  Between two listed ticks the phase is constant.
    Ascending, without repeats, and starting with 0.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    starts = [row[0] for row in _TIMELINE] + [SESSION_DURATION]
    return tuple(sorted({first_tick(start, dt) for start in starts}))


@dataclass(frozen=True, slots=True)
class SpawnParams:
    interval: float
    speed: float


LOW_INTENSITY_SPAWN = SpawnParams(interval=0.8, speed=5.7)
SPRINT_SPAWN = SpawnParams(interval=0.5, speed=8.0)


def spawn_params(phase: ProtocolPhase, scale: float = 1.0) -> SpawnParams | None:
    """Spawn cadence and speed in force during ``phase``.

    A higher ``scale`` spawns more often (the base interval is divided by
    it) and moves entities faster (the base speed is multiplied by it).
    Returns None once the session has ended: the no-spawn signal.
    """
    if phase.kind is PhaseKind.ENDED:
        return None
    base = SPRINT_SPAWN if phase.kind is PhaseKind.SPRINT else LOW_INTENSITY_SPAWN
    return SpawnParams(interval=base.interval / scale, speed=base.speed * scale)


# Cumulative kind mix; sampled with a single uniform draw walked in this order.
KIND_MIX: tuple[tuple[EntityKind, float], ...] = (
    (EntityKind.RED_VIRUS, 0.35),
    (EntityKind.BLUE_VIRUS, 0.35),
    (EntityKind.FLAT_CELL, 0.20),
    (EntityKind.RIGHT_TILT_CELL, 0.05),
    (EntityKind.LEFT_TILT_CELL, 0.05),
)


# The mix's running sums, added up weight by weight in its order, and its
# kinds with the last one repeated: a uniform draw ``u`` picks the kind of
# the first sum above it, ``_KIND_AT[bisect_right(_CUMULATIVE, u)]``, or
# the last kind if no sum is above it.
_CUMULATIVE = tuple(accumulate(weight for _, weight in KIND_MIX))
_KIND_AT = tuple(kind for kind, _ in KIND_MIX) + (KIND_MIX[-1][0],)


def sample_kind(rng: random.Random) -> EntityKind:
    """Draw an entity kind from the fixed mix using one uniform."""
    return _KIND_AT[bisect_right(_CUMULATIVE, rng.random())]


class SpawnEvent(NamedTuple):
    """The next spawn: when, what, how fast and where across the lane.

    A named tuple, so immutable and cheap to build.
    """

    time: float
    kind: EntityKind
    speed: float
    lane_offset: float


def next_spawn(rng: random.Random, now: float, params: SpawnParams) -> SpawnEvent:
    """Schedule the spawn that follows ``now`` under ``params``.

    Consumes exactly two draws, kind then lane, so the stream layout is
    stable for replay: ``sample_kind(rng)``, then
    ``rng.uniform(-LANE_HALF_WIDTH, LANE_HALF_WIDTH)``.
    The first spawn of a session comes from calling this with now = 0.0:
    nothing spawns at t = 0 itself.
    """
    kind = sample_kind(rng)
    return _new(SpawnEvent, (now + params.interval, kind, params.speed,
                             rng.uniform(-LANE_HALF_WIDTH, LANE_HALF_WIDTH)))
