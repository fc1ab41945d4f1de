"""Phase timeline and spawn scheduling."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from virusboxing.interaction import VELOCITY_WINDOW
from virusboxing.physiology import apply_modulation
from virusboxing.protocol import (
    KIND_MIX,
    LANE_HALF_WIDTH,
    LOW_INTENSITY_SPAWN,
    MODULATION_MAX,
    MODULATION_MIN,
    PhaseKind,
    SESSION_DURATION,
    SPRINT_SPAWN,
    first_tick,
    next_spawn,
    phase_at,
    sample_kind,
    spawn_params,
    sprint_windows,
)
from virusboxing.world import EntityKind

DT = 0.02

# (time, expected kind, expected segment index) at every boundary +/- one step.
BOUNDARY_TABLE = [
    (0.0, PhaseKind.LOW, 0),
    (0.02, PhaseKind.LOW, 0),
    (29.98, PhaseKind.LOW, 0),
    (30.0, PhaseKind.SPRINT, 0),
    (30.02, PhaseKind.SPRINT, 0),
    (119.98, PhaseKind.SPRINT, 0),
    (120.0, PhaseKind.LOW, 1),
    (120.02, PhaseKind.LOW, 1),
    (149.98, PhaseKind.LOW, 1),
    (150.0, PhaseKind.SPRINT, 1),
    (239.98, PhaseKind.SPRINT, 1),
    (240.0, PhaseKind.LOW, 2),
    (269.98, PhaseKind.LOW, 2),
    (270.0, PhaseKind.SPRINT, 2),
    (359.98, PhaseKind.SPRINT, 2),
    (360.0, PhaseKind.COOLDOWN, 0),
    (360.02, PhaseKind.COOLDOWN, 0),
    (419.98, PhaseKind.COOLDOWN, 0),
    (420.0, PhaseKind.ENDED, 0),
    (420.02, PhaseKind.ENDED, 0),
]


@pytest.mark.parametrize("t,kind,index", BOUNDARY_TABLE)
def test_phase_boundaries(t: float, kind: PhaseKind, index: int) -> None:
    phase = phase_at(t)
    assert phase.kind is kind, f"at t={t}: {phase.kind} != {kind}"
    assert phase.index == index


def test_negative_time_rejected() -> None:
    with pytest.raises(ValueError):
        phase_at(-0.02)


def test_sprint_windows_cover_270_seconds() -> None:
    windows = sprint_windows()
    assert windows == ((30.0, 120.0), (150.0, 240.0), (270.0, 360.0))
    assert sum(b - a for a, b in windows) == pytest.approx(270.0)


@given(st.floats(min_value=0.0, max_value=SESSION_DURATION - 1e-9))
def test_phase_at_is_total_before_the_end(t: float) -> None:
    assert phase_at(t).kind is not PhaseKind.ENDED


class TestSpawnParams:
    def test_base_parameters(self) -> None:
        low = spawn_params(phase_at(10.0))
        assert (low.interval, low.speed) == (0.8, 5.7)
        sprint = spawn_params(phase_at(40.0))
        assert (sprint.interval, sprint.speed) == (0.5, 8.0)
        cooldown = spawn_params(phase_at(400.0))
        assert (cooldown.interval, cooldown.speed) == (0.8, 5.7)
        assert spawn_params(phase_at(420.0)) is None

    def test_modulation_scales_interval_down_and_speed_up(self) -> None:
        params = spawn_params(phase_at(40.0), 1.25)
        assert params.interval == pytest.approx(0.5 / 1.25)
        assert params.speed == pytest.approx(8.0 * 1.25)

    def test_identity_modulation_is_neutral(self) -> None:
        base = spawn_params(phase_at(40.0))
        modded = spawn_params(phase_at(40.0), 1.0)
        assert (base.interval, base.speed) == (modded.interval, modded.speed)


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_modulation_always_clamped(u: float) -> None:
    scale = apply_modulation(u)
    assert MODULATION_MIN <= scale <= MODULATION_MAX
    params = spawn_params(phase_at(40.0), scale)
    assert SPRINT_SPAWN.interval / 2 <= params.interval <= SPRINT_SPAWN.interval * 2
    assert SPRINT_SPAWN.speed / 2 <= params.speed <= SPRINT_SPAWN.speed * 2


class _FixedRng:
    """random.Random stand-in returning queued values."""

    def __init__(self, *values: float) -> None:
        self._values = list(values)

    def random(self) -> float:
        return self._values.pop(0)

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()


def test_kind_mix_cumulative_order() -> None:
    kinds = [kind for kind, _ in KIND_MIX]
    assert kinds == [
        EntityKind.RED_VIRUS, EntityKind.BLUE_VIRUS, EntityKind.FLAT_CELL,
        EntityKind.RIGHT_TILT_CELL, EntityKind.LEFT_TILT_CELL,
    ]
    assert sum(w for _, w in KIND_MIX) == pytest.approx(1.0)


@pytest.mark.parametrize("u,kind", [
    (0.0, EntityKind.RED_VIRUS),
    (0.349999, EntityKind.RED_VIRUS),
    (0.35, EntityKind.BLUE_VIRUS),
    (0.699999, EntityKind.BLUE_VIRUS),
    (0.70, EntityKind.FLAT_CELL),
    (0.899999, EntityKind.FLAT_CELL),
    (0.90, EntityKind.RIGHT_TILT_CELL),
    (0.949999, EntityKind.RIGHT_TILT_CELL),
    (0.95, EntityKind.LEFT_TILT_CELL),
    (0.999999, EntityKind.LEFT_TILT_CELL),
])
def test_sample_kind_bucket_edges(u: float, kind: EntityKind) -> None:
    assert sample_kind(_FixedRng(u)) is kind


def _reference_kind(u: float) -> EntityKind:
    """``sample_kind`` as it walked the mix, adding weight by weight."""
    cumulative = 0.0
    for kind, weight in KIND_MIX:
        cumulative += weight
        if u < cumulative:
            return kind
    return KIND_MIX[-1][0]


def _cuts() -> list[float]:
    """Each running sum of the mix, as the reference's walk sums it."""
    cuts, cumulative = [], 0.0
    for _, weight in KIND_MIX:
        cumulative += weight
        cuts.append(cumulative)
    return cuts


def test_the_cuts_are_the_walks_running_sums() -> None:
    assert _cuts() == [0.35, 0.7, 0.8999999999999999, 0.95, 1.0]


@pytest.mark.parametrize("u", sorted(
    {0.0, 0.5, math.nextafter(1.0, 0.0)}
    | {math.nextafter(cut, side) for cut in _cuts() for side in (0.0, 2.0)}
    | set(_cuts())))
def test_sample_kind_bisects_as_the_walk_picks(u: float) -> None:
    # At each cut and one float either side of it; 1.0 and past it
    # cannot come from random(), and take the last kind both ways.
    assert sample_kind(_FixedRng(u)) is _reference_kind(u)
    assert next_spawn(_FixedRng(u, 0.5), 0.0,
                      LOW_INTENSITY_SPAWN).kind is _reference_kind(u)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_next_spawn_draws_as_sample_kind_and_uniform(seed: int) -> None:
    rng, reference = random.Random(seed), random.Random(seed)
    event = next_spawn(rng, 1.0, SPRINT_SPAWN)
    assert event.kind is _reference_kind(reference.random())
    assert event.lane_offset == reference.uniform(-LANE_HALF_WIDTH,
                                                  LANE_HALF_WIDTH)
    assert rng.random() == reference.random()


def test_next_spawn_consumes_kind_then_lane() -> None:
    # Frozen from random.Random(0): first two draws are
    # 0.8444218515250481 (flat cell bucket) and 0.7579544029403025.
    event = next_spawn(random.Random(0), 10.0, LOW_INTENSITY_SPAWN)
    assert event.kind is EntityKind.FLAT_CELL
    assert event.lane_offset == 0.2579544029403025
    assert event.time == pytest.approx(10.8)
    assert event.speed == 5.7


def test_next_spawn_chain_uses_event_time() -> None:
    rng = random.Random(3)
    first = next_spawn(rng, 0.0, SPRINT_SPAWN)
    second = next_spawn(rng, first.time, SPRINT_SPAWN)
    assert first.time == pytest.approx(0.5)
    assert second.time == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lane_offset_within_corridor(seed: int) -> None:
    event = next_spawn(random.Random(seed), 0.0, LOW_INTENSITY_SPAWN)
    assert -0.5 <= event.lane_offset <= 0.5


def test_session_grid_hits_boundaries_exactly() -> None:
    # 0.02 steps land on every protocol boundary without drift.
    for boundary in (30.0, 120.0, 150.0, 240.0, 270.0, 360.0, 420.0):
        k = round(boundary / DT)
        assert k * DT == boundary


# The steps a config may take, down to the shortest the config
# properties draw, and up to validate's bound.
STEP_RANGE = st.floats(min_value=0.001, max_value=0.1)
# Tick counts and times of up to a million ticks at the longest step:
# far past a session, and still exact in a float.
TICKS = st.integers(min_value=0, max_value=10**6)
TIMES = st.floats(min_value=-1e5, max_value=1e5)


def _near(value: float) -> st.SearchStrategy[float]:
    """``value`` and the floats either side of it."""
    return st.sampled_from((math.nextafter(value, -math.inf), value,
                            math.nextafter(value, math.inf)))


@st.composite
def tick_searches(draw) -> tuple[float, float, float]:
    """A time, a step and a slack for ``first_tick``: the slack one its
    callers pass, and the time on a tick's ``k * dt + slack``, a float
    either side of it, or anywhere."""
    dt = draw(STEP_RANGE)
    slack = draw(st.one_of(st.just(0.0), st.just(1e-9),
                           TICKS.map(lambda j: -(j * dt))))
    k = draw(TICKS)
    x = draw(st.one_of(_near(k * dt + slack), TIMES))
    return x, dt, slack


@given(search=tick_searches())
def test_first_tick_is_the_first_tick_at_or_past_the_time(search) -> None:
    x, dt, slack = search
    k = first_tick(x, dt, slack)
    assert k >= 0
    assert k * dt + slack >= x
    assert k == 0 or (k - 1) * dt + slack < x


@given(dt=STEP_RANGE, k=TICKS, data=st.data())
def test_first_tick_past_the_next_float_is_the_first_tick_past(
        dt, k, data) -> None:
    # _HandTrack._mark_hot's strict start: a float is above t0 exactly
    # when it is at or above the next float up.
    t0 = data.draw(st.one_of(_near(k * dt), TIMES))
    first = first_tick(math.nextafter(t0, math.inf), dt)
    assert first * dt > t0
    assert first == 0 or (first - 1) * dt <= t0


# A step that divides the window, where the start is the tick ``lead``
# back, and one that does not, where it is the tick after.
@example(dt=0.02, k=1000)
@example(dt=0.035, k=1000)
@given(dt=STEP_RANGE, k=TICKS)
def test_window_start_is_lead_back_or_one_after(dt, k) -> None:
    # The bound run_session's hot-tick stage rests on, when it steps the
    # start of tick k's velocity window at most once from ``lead`` back.
    lead = math.ceil(VELOCITY_WINDOW / dt)
    base = k - lead if k > lead else 0
    start = first_tick(k * dt - VELOCITY_WINDOW - 1e-9, dt)
    assert start in (base, base + 1)
