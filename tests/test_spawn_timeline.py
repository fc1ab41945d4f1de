"""The spawn timeline: each flight's crossing worked out once per config.

``run_session`` does not step the world on every tick.  Per config,
``_plan`` finds the tick each entity crosses on from the closed form of
its ``position -= speed * dt`` sequence, or by replaying the sequence
when a step lands within rounding of the plane, and the loop steps the
in-flight positions through the same sequence only when a jab reads
them.  These tests hold the crossing tick and the stepped positions to
``world.advance`` with ``==``, the precomputed empowerment expiry to
``tick_empowerment``, and a few sessions whose empowerment ends on or
after the end of the protocol to the per-tick loop.
``tests/test_session.py`` tests the plan's cache.
"""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_tick_oracle import run_session_per_tick
from virusboxing import session
from virusboxing.playersim import load_profile
from virusboxing.progression import (
    EMPOWERMENT_DURATION,
    ProgressionState,
    tick_empowerment,
)
from virusboxing.protocol import (
    LOW_INTENSITY_SPAWN,
    MODULATION_MAX,
    MODULATION_MIN,
    SPRINT_SPAWN,
)
from virusboxing.session import (
    SessionConfig,
    _crossing_tick,
    _expiry_tick,
    _stepped,
    run_session,
)
from virusboxing.world import EntityKind, WorldState, advance

# Not a seed the golden logs pin (they use 0, 1 and 2).
SEED = 5
STEPS = (0.001, 0.02, 0.035, 0.07, 0.1)


class TestCrossingReplay:
    """The replayed flight against the world stepped tick by tick."""

    @settings(max_examples=60, deadline=None)
    @given(dt=st.sampled_from(STEPS),
           speed=st.floats(
               min_value=LOW_INTENSITY_SPAWN.speed * MODULATION_MIN,
               max_value=SPRINT_SPAWN.speed * MODULATION_MAX),
           spawn_tick=st.integers(min_value=0, max_value=3000),
           late=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           end=st.one_of(st.integers(min_value=1, max_value=200),
                         st.just(10**9)),
           data=st.data())
    def test_crossing_and_positions_match_advance(
            self, dt, speed, spawn_tick, late, end, data) -> None:
        # The world's clock as advance leaves it on the spawn tick, and a
        # spawn due up to one step before it.
        world = WorldState()
        for _ in range(spawn_tick):
            world.sim_time += dt
        entity = world.spawn(EntityKind.RED_VIRUS,
                             (spawn_tick - late) * dt if spawn_tick else 0.0,
                             0.0, speed)
        position = entity.position
        # ``end`` ticks after the spawn, often inside the flight: the end
        # of the protocol, whose tick G the world skips.
        gameplay_ticks = min(spawn_tick + end, 10**9)
        positions = {}  # tick -> position a jab on it reads
        steps = 0
        k = spawn_tick
        while True:
            if k == gameplay_ticks:
                k += 1
                continue
            positions[k] = (entity.position, steps)
            if advance(world, dt):
                break
            steps += 1
            k += 1
        assert _crossing_tick(position, speed, dt, spawn_tick,
                              gameplay_ticks) == k
        for tick in data.draw(st.lists(st.sampled_from(sorted(positions)),
                                       min_size=1, max_size=5)):
            want, steps = positions[tick]
            assert _stepped(position, speed, dt, steps) == want

    @pytest.mark.parametrize("dt", STEPS)
    def test_a_flight_across_tick_g_crosses_one_tick_later(self, dt) -> None:
        speed = SPRINT_SPAWN.speed
        free = _crossing_tick(15.0, speed, dt, 10, 10**9)
        for end in (11, (10 + free) // 2, free):
            assert _crossing_tick(15.0, speed, dt, 10, end) == free + 1
        assert _crossing_tick(15.0, speed, dt, 10, free + 1) == free

    def test_a_step_onto_the_plane_is_replayed(self, monkeypatch) -> None:
        # 0.5 m steps from 15 m: step 30 lands on 0.0 exactly, inside any
        # rounding margin, so the closed form cannot vouch for the count.
        replays = []

        def recording(*args):
            replays.append(args)
            return _stepped(*args)

        monkeypatch.setattr(session, "_stepped", recording)
        assert _crossing_tick(15.0, 8.0, 0.0625, 0, 10**9) == 29
        assert replays

    def test_a_crossing_clear_of_the_plane_takes_the_closed_form(
            self, monkeypatch) -> None:
        position, steps = 14.93, 0
        while position > 0.0:
            position -= 8.0 * 0.02
            steps += 1

        def refused(*args):
            raise AssertionError("stepped a flight the closed form resolves")

        monkeypatch.setattr(session, "_stepped", refused)
        assert _crossing_tick(14.93, 8.0, 0.02, 40, 10**9) == 40 + steps - 1

    def test_lazy_steps_continue_the_sequence(self) -> None:
        position = 14.93
        for n in (0, 1, 7, 50):
            assert _stepped(_stepped(position, 8.0, 0.02, n), 8.0, 0.02,
                            13) == _stepped(position, 8.0, 0.02, n + 13)


class TestExpiryTick:
    @pytest.mark.parametrize("dt", [0.02, 0.035, 0.07, 0.1])
    def test_the_expiry_tick_is_tick_empowerments(self, dt) -> None:
        # Activations on a spread of ticks, with the end of the protocol
        # far off, on the expiry tick itself, and just before it.
        for start in range(0, 6000, 7):
            until = start * dt + EMPOWERMENT_DURATION
            free = _expiry_tick(until, dt, 10**9)
            for gameplay_ticks in (10**9, free, free - 1):
                state = ProgressionState(empowered_until=until)
                k = start + 1
                while True:
                    if k != gameplay_ticks and tick_empowerment(state, k * dt):
                        break
                    k += 1
                assert _expiry_tick(until, dt, gameplay_ticks) == k, (
                    start, gameplay_ticks)


def _empowerment_window(profile: str, dt: float) -> tuple[float, int]:
    """An empowerment of a PID-off session that ends while a cell is in
    flight: its start time and the first tick at or after its end.

    A cell spawned before tick ``expiry - 3`` that crosses after tick
    ``expiry + 1`` is still in flight when a session that ends up to
    three ticks before the expiry drains."""
    config = SessionConfig(seed=SEED, profile=load_profile(profile),
                           pid_enabled=False, dt=dt,
                           duration=round(round(120.0 / dt) * dt, 9))
    rows = [json.loads(line) for line in run_session(config).lines]
    spawned = {row["id"]: row["t"] for row in rows if row["type"] == "spawn"}
    cells = [(spawned[row["id"]], row["t"]) for row in rows
             if row["type"] == "cross" and "pose" in row]
    for row in rows:
        if row["type"] == "empower" and row["action"] == "start":
            expiry = _expiry_tick(row["until"], dt, 10**9)
            if any(spawn < (expiry - 3) * dt and cross > (expiry + 1) * dt
                   for spawn, cross in cells):
                return row["t"], expiry
    raise AssertionError("no empowerment ends while a cell is in flight")


class TestExpiryAtTheEnd:
    """An empowerment that ends on tick G, or in the drain, ends on the
    tick the per-tick loop ends it on."""

    @pytest.mark.parametrize("dt", [0.02, 0.035])
    @pytest.mark.parametrize("profile", ["expert", "mid_skill"])
    @pytest.mark.parametrize("after_g", [0, 3])
    def test_expiry_equals_the_per_tick_log(self, profile, dt,
                                            after_g) -> None:
        start, expiry = _empowerment_window(profile, dt)
        # The session before G is the same whatever the duration, so the
        # empowerment starts as it did and would end on tick G + after_g.
        gameplay_ticks = expiry - after_g
        config = SessionConfig(seed=SEED, profile=load_profile(profile),
                               pid_enabled=False, dt=dt,
                               duration=round(gameplay_ticks * dt, 9))
        lines = run_session(config).lines
        assert lines == run_session_per_tick(config).lines
        rows = [json.loads(line) for line in lines]
        empower = [(row["t"], row["action"]) for row in rows
                   if row["type"] == "empower"]
        # v1 skips tick G, so an expiry due on it lands on G + 1.
        end_tick = expiry + 1 if after_g == 0 else expiry
        assert empower[-2:] == [(start, "start"),
                                (round(end_tick * dt, 6), "end")]
        assert end_tick > gameplay_ticks
