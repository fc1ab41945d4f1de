"""The per-event records and the package's enums.

The records built once per spawn, jab, plan or ``hr`` row are named
tuples: fields by name and in a fixed order, immutable and hashable.
Every enum the package defines derives from ``world.IdentityEnum`` and
so hashes by identity, which gives every dict and set lookup the answer
``Enum``'s own hash gives.
"""
from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil
from enum import Enum

import pytest

import virusboxing
from virusboxing import playersim, session, world
from virusboxing.interaction import (
    Hand,
    HitKind,
    HitResult,
    JabDetector,
    JabEvent,
    PoseClass,
    PoseSample,
    TargetingPolicy,
    resolve_jab,
)
from virusboxing.playersim import (
    JabPlan,
    SyntheticPlayer,
    WeavePlan,
    builtin_profiles,
    load_profile,
)
from virusboxing.protocol import SpawnEvent
from virusboxing.session import SessionConfig, TraceRow, run_session
from virusboxing.world import EntityKind, WorldState

# Each record with its fields in order, its defaults and one instance.
RECORDS = [
    (SpawnEvent, ("time", "kind", "speed", "lane_offset"), {},
     SpawnEvent(0.8, EntityKind.RED_VIRUS, 5.7, 0.1)),
    (JabPlan, ("entity_id", "hand", "strike_tick", "speed", "aim", "ranged",
               "seq"), {"seq": 0},
     JabPlan(0, Hand.RIGHT, 60, 2.5, (0.1, 1.4, 0.45), False)),
    (WeavePlan, ("entity_id", "pose", "cross_tick"), {},
     WeavePlan(1, PoseClass.SQUAT, 40)),
    (JabEvent, ("time", "hand", "hand_speed", "hand_pos", "direction"), {},
     JabEvent(1.0, Hand.LEFT, 2.0, (-0.1, 1.4, 0.5), (0.0, 0.0, 1.0))),
    (HitResult, ("kind", "target"), {"target": None},
     HitResult(HitKind.NO_TARGET)),
    (TraceRow, ("t", "hr", "kcal", "phase", "energy", "empowered"), {},
     TraceRow(0.0, 60.0, 0.0, "low", 0, False)),
]
IDS = [record.__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, fields, defaults, instance", RECORDS, ids=IDS)
def test_a_record_keeps_its_fields_in_order(record, fields, defaults,
                                            instance) -> None:
    assert record._fields == fields
    assert record._field_defaults == defaults
    assert tuple(getattr(instance, name) for name in fields) == instance
    assert record(**dict(zip(fields, instance))) == instance


@pytest.mark.parametrize("record, fields, defaults, instance", RECORDS, ids=IDS)
def test_a_record_is_immutable_and_hashable(record, fields, defaults,
                                            instance) -> None:
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)
    with pytest.raises(AttributeError):
        instance.extra = None
    assert hash(instance) == hash(record(*instance))


def test_the_results_without_a_target_are_shared() -> None:
    world = WorldState()
    world.spawn(EntityKind.BLUE_VIRUS, 0.0, 0.0, 8.0)
    right = JabEvent(1.0, Hand.RIGHT, 2.0, (0.0, 1.4, 14.9), (0.0, 0.0, 1.0))
    far = right._replace(hand_pos=(0.0, 1.4, 0.0))
    policy = TargetingPolicy()
    wrong = resolve_jab(right, world, policy)
    assert wrong == HitResult(HitKind.WRONG_HAND)
    assert resolve_jab(right, world, policy) is wrong
    none = resolve_jab(far, world, policy)
    assert none == HitResult(HitKind.NO_TARGET)
    assert resolve_jab(far, world, policy) is none


@pytest.mark.parametrize("name", builtin_profiles())
def test_the_session_builds_each_record_as_its_class_does(monkeypatch,
                                                          name) -> None:
    # Every site on the session path that builds a record through
    # ``tuple.__new__``, recorded through a wrapper over one short session.
    built = []

    def recorded(function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            built.append(result)
            return result
        return wrapper

    monkeypatch.setattr(session, "next_spawn", recorded(session.next_spawn))
    monkeypatch.setattr(session, "resolve_jab", recorded(session.resolve_jab))
    monkeypatch.setattr(playersim, "plan_reaction",
                        recorded(playersim.plan_reaction))
    monkeypatch.setattr(SyntheticPlayer, "sample",
                        recorded(SyntheticPlayer.sample))
    monkeypatch.setattr(JabDetector, "judge", recorded(JabDetector.judge))
    result = run_session(SessionConfig(seed=2, profile=load_profile(name),
                                       duration=60.0))
    built += result.trace
    records = [record for record in built if record is not None]
    seen = {type(record) for record in records}
    assert seen == {SpawnEvent, JabPlan, WeavePlan, PoseSample, JabEvent,
                    HitResult, TraceRow}
    destroyed = [r for r in records if type(r) is HitResult
                 and r.kind is HitKind.DESTROYED]
    assert destroyed
    for record in records:
        cls = type(record)
        assert len(record) == len(cls._fields)
        assert record == cls(**dict(zip(cls._fields, record)))


# Every enum with members that a module of the package defines, found by
# walking the package, so an enum added to any module is checked without
# being listed here.
ENUMS = [cls
         for info in pkgutil.iter_modules(virusboxing.__path__)
         for module in [importlib.import_module(f"virusboxing.{info.name}")]
         for _, cls in inspect.getmembers(module, inspect.isclass)
         if issubclass(cls, Enum) and cls.__module__ == module.__name__
         and len(cls)]


def test_the_walk_finds_every_enum() -> None:
    assert {"EntityKind", "EntityStatus", "PhaseKind", "Hand", "PoseClass",
            "TargetingMode", "TargetingRange", "HitKind", "CellOutcome",
            "EmpowerPolicy", "RefusalReason"} <= {e.__name__ for e in ENUMS}


@pytest.mark.parametrize("enum", ENUMS, ids=lambda enum: enum.__name__)
def test_every_enum_hashes_by_identity(enum) -> None:
    for member in enum:
        assert hash(member) == object.__hash__(member)
        assert member._value_ == member.value
        assert enum(member.value) is member
        assert pickle.loads(pickle.dumps(member)) is member
        assert {member: True}[enum[member.name]]
        assert enum[member.name] in frozenset(enum)
    assert issubclass(enum, world.IdentityEnum)
