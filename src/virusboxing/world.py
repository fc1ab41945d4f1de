"""Entities and their straight-line flight toward the player plane.

Every spawned object travels from the creator plane (z = 15 m) straight at
the player plane (z = 0) at a constant speed.  Positions are advanced
incrementally each step, while :func:`position_of` gives the closed-form
position so the two routes can be checked against each other.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "CREATOR_DISTANCE",
    "FLIGHT_HEIGHT",
    "EntityKind",
    "EntityStatus",
    "VIRUS_KINDS",
    "CELL_KINDS",
    "Entity",
    "WorldState",
    "position_of",
    "arrival_time",
    "advance",
]

# Spawn plane distance from the player, metres.
CREATOR_DISTANCE = 15.0

# Height at which entity centres travel; jab aiming happens around it.
FLIGHT_HEIGHT = 1.4


class EntityKind(Enum):
    RED_VIRUS = "red_virus"
    BLUE_VIRUS = "blue_virus"
    FLAT_CELL = "flat_cell"
    RIGHT_TILT_CELL = "right_tilt_cell"
    LEFT_TILT_CELL = "left_tilt_cell"

    # Members are singletons and compare by identity, so hashing by
    # identity gives every dict and set lookup the same answer as Enum's
    # hash of the name, in a C slot instead of a Python call.
    __hash__ = object.__hash__


VIRUS_KINDS = frozenset({EntityKind.RED_VIRUS, EntityKind.BLUE_VIRUS})
CELL_KINDS = frozenset(
    {EntityKind.FLAT_CELL, EntityKind.RIGHT_TILT_CELL, EntityKind.LEFT_TILT_CELL}
)


class EntityStatus(Enum):
    IN_FLIGHT = "in_flight"
    DESTROYED = "destroyed"
    MISSED = "missed"
    PASSED = "passed"
    COLLIDED = "collided"

    __hash__ = object.__hash__  # as EntityKind's


@dataclass(slots=True, eq=False)
class Entity:
    """One flying object.  ``position`` is the incrementally stepped z.

    Ids are unique, so two entities are equal only when they are the same
    object: ``WorldState.retire``'s ``list.remove`` compares identities.
    """

    id: int
    kind: EntityKind
    spawn_time: float
    lane_offset: float
    speed: float
    spawn_z: float = CREATOR_DISTANCE
    position: float = CREATOR_DISTANCE
    status: EntityStatus = EntityStatus.IN_FLIGHT

    @property
    def is_virus(self) -> bool:
        return self.kind in VIRUS_KINDS

    @property
    def is_cell(self) -> bool:
        return self.kind in CELL_KINDS

    def centre(self) -> tuple[float, float, float]:
        """3-D centre (lateral, height, distance-from-player)."""
        return (self.lane_offset, FLIGHT_HEIGHT, self.position)


def position_of(entity: Entity, t: float) -> float:
    """Closed-form distance from the player plane at time ``t``.

    Step-size independent by construction; raises for times before spawn.
    """
    if t < entity.spawn_time:
        raise ValueError(
            f"time {t} precedes spawn of entity {entity.id} at {entity.spawn_time}"
        )
    return entity.spawn_z - entity.speed * (t - entity.spawn_time)


def arrival_time(entity: Entity) -> float:
    """Time at which the entity reaches the player plane (z = 0)."""
    return entity.spawn_time + entity.spawn_z / entity.speed


# Bound once: reading a member off its class is slow in Python 3.11.
_IN_FLIGHT = EntityStatus.IN_FLIGHT


@dataclass
class WorldState:
    sim_time: float = 0.0
    in_flight: list[Entity] = field(default_factory=list)
    _next_id: int = 0

    def spawn(self, kind: EntityKind, spawn_time: float, lane_offset: float,
              speed: float) -> Entity:
        """Materialise an entity; ids are assigned in ascending spawn order."""
        entity = Entity(
            id=self._next_id,
            kind=kind,
            spawn_time=spawn_time,
            lane_offset=lane_offset,
            speed=speed,
        )
        # The event time may fall between steps; seed the stepped position
        # from the closed form so both routes agree at materialisation.
        entity.position = entity.spawn_z - speed * (self.sim_time - spawn_time)
        self._next_id += 1
        self.in_flight.append(entity)
        return entity

    def retire(self, entity: Entity, status: EntityStatus) -> None:
        if entity.status is not _IN_FLIGHT:
            raise ValueError(f"entity {entity.id} already terminal: {entity.status}")
        if status is _IN_FLIGHT:
            raise ValueError("cannot retire an entity to IN_FLIGHT")
        entity.status = status
        self.in_flight.remove(entity)


def advance(world: WorldState, dt: float) -> list[Entity]:
    """Step every in-flight entity forward by ``dt``.

    Returns the entities whose position crossed the player plane (<= 0)
    during this step, in ascending id order, still IN_FLIGHT: the caller
    owns terminal resolution (virus -> missed unless destroyed, cell ->
    pass evaluation against the current pose).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    world.sim_time += dt
    crossings: list[Entity] = []
    for entity in world.in_flight:
        entity.position -= entity.speed * dt
        if entity.position <= 0.0:
            crossings.append(entity)
    return crossings
