"""Entity lifecycle and corridor kinematics."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virusboxing.world import (
    CREATOR_DISTANCE,
    Entity,
    EntityKind,
    EntityStatus,
    FLIGHT_HEIGHT,
    WorldState,
    advance,
    arrival_time,
    position_of,
)

DT = 0.02


def _spawn_one(world: WorldState, kind: EntityKind = EntityKind.RED_VIRUS,
               speed: float = 8.0, lane: float = 0.1) -> Entity:
    return world.spawn(kind, world.sim_time, lane, speed)


def test_spawn_assigns_ascending_ids_and_tracks_flight() -> None:
    world = WorldState()
    a = _spawn_one(world)
    b = _spawn_one(world, EntityKind.FLAT_CELL)
    assert (a.id, b.id) == (0, 1)
    assert world.in_flight == [a, b]
    assert a.is_virus and not a.is_cell
    assert b.is_cell and not b.is_virus


def test_centre_uses_lane_and_flight_height() -> None:
    world = WorldState()
    entity = world.spawn(EntityKind.BLUE_VIRUS, 0.0, -0.25, 8.0)
    assert entity.centre() == (-0.25, FLIGHT_HEIGHT, 15.0)


def test_position_of_closed_form() -> None:
    entity = Entity(id=0, kind=EntityKind.RED_VIRUS, spawn_time=3.0,
                    lane_offset=0.0, speed=8.0)
    # 15 - 8 * 1.5, all dyadic: exact.
    assert position_of(entity, 4.5) == 3.0
    assert position_of(entity, 3.0) == CREATOR_DISTANCE


def test_position_before_spawn_rejected() -> None:
    entity = Entity(id=0, kind=EntityKind.RED_VIRUS, spawn_time=3.0,
                    lane_offset=0.0, speed=8.0)
    with pytest.raises(ValueError):
        position_of(entity, 2.99)


def test_arrival_time_is_distance_over_speed() -> None:
    entity = Entity(id=0, kind=EntityKind.RED_VIRUS, spawn_time=2.0,
                    lane_offset=0.0, speed=8.0)
    assert arrival_time(entity) == 2.0 + 15.0 / 8.0
    slow = Entity(id=1, kind=EntityKind.FLAT_CELL, spawn_time=0.0,
                  lane_offset=0.0, speed=5.7)
    assert arrival_time(slow) == 15.0 / 5.7


def test_advance_moves_entities_and_reports_crossings_in_id_order() -> None:
    world = WorldState()
    fast = world.spawn(EntityKind.RED_VIRUS, 0.0, 0.0, 15.0 / DT)  # crosses in 1 step
    slow = world.spawn(EntityKind.BLUE_VIRUS, 0.0, 0.0, 1.0)
    crossings = advance(world, DT)
    assert crossings == [fast]
    assert world.sim_time == pytest.approx(DT)
    assert slow.position == pytest.approx(15.0 - DT)


def test_crossing_step_count_matches_travel_time() -> None:
    # 15 / 5.7 = 2.6316 s: the 132nd step carries it past the player plane.
    world = WorldState()
    entity = world.spawn(EntityKind.RED_VIRUS, 0.0, 0.0, 5.7)
    steps = 0
    while not advance(world, DT):
        steps += 1
        assert steps < 1000
    crossing_step = steps + 1
    assert crossing_step == math.ceil(arrival_time(entity) / DT - 1e-9)


def test_retire_removes_from_flight_and_validates() -> None:
    world = WorldState()
    entity = _spawn_one(world)
    world.retire(entity, EntityStatus.DESTROYED)
    assert world.in_flight == []
    assert entity.status is EntityStatus.DESTROYED
    with pytest.raises(ValueError):
        world.retire(entity, EntityStatus.MISSED)


def test_retire_removes_that_very_entity() -> None:
    # Entities compare by identity: a twin with every field equal, id
    # included, is another entity, and retiring it leaves the first.
    world = WorldState()
    first = _spawn_one(world)
    twin = Entity(first.id, first.kind, first.spawn_time, first.lane_offset,
                  first.speed, first.spawn_z, first.position)
    world.in_flight.append(twin)
    assert twin != first
    world.retire(twin, EntityStatus.MISSED)
    assert len(world.in_flight) == 1 and world.in_flight[0] is first
    assert first.status is EntityStatus.IN_FLIGHT


def test_retire_refuses_non_terminal_status() -> None:
    world = WorldState()
    entity = _spawn_one(world)
    with pytest.raises(ValueError):
        world.retire(entity, EntityStatus.IN_FLIGHT)


@settings(max_examples=200)
@given(
    speed=st.floats(min_value=2.85, max_value=16.0),
    spawn_tick=st.integers(min_value=0, max_value=500),
    steps=st.integers(min_value=1, max_value=400),
)
def test_stepped_position_matches_closed_form(speed: float, spawn_tick: int,
                                              steps: int) -> None:
    """Incremental motion stays within 1e-9 of the analytic position."""
    world = WorldState()
    world.sim_time = spawn_tick * DT
    entity = world.spawn(EntityKind.RED_VIRUS, world.sim_time, 0.0, speed)
    for _ in range(steps):
        advance(world, DT)
        analytic = position_of(entity, world.sim_time)
        assert abs(entity.position - analytic) <= 1e-9
