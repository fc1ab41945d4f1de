"""Session invariants across the valid config space, not only the defaults.

The space is the one the config's fields declare: each bounded number
is drawn from the interval its ``"interval"`` metadata declares
(``playersim.declared_intervals``), which ``SessionConfig.validate``
holds it to, so no bound is restated here.  Frozen references hold the
rest: ``run_session`` to the per-tick loop, the digest to its
hand-written payload, and ``validate`` to its hand-written checks
(``tests/validate_reference.py``).
"""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from digest_reference import reference_digest
from per_tick_oracle import run_session_per_tick
from test_control_schedule import assert_same_plan
from validate_reference import (
    reference_config_validate,
    reference_profile_validate,
)
from virusboxing.interaction import (
    Calibration,
    TargetingMode,
    TargetingPolicy,
    TargetingRange,
)
from virusboxing.physiology import HEART_PRESETS, HeartRateParams
from virusboxing.playersim import (
    EmpowerPolicy,
    PlayerProfile,
    builtin_profiles,
    declared_intervals,
    load_profile,
)
from virusboxing.session import (
    _MAX_FLIGHT_SECONDS,
    SessionConfig,
    _drain_tick_cap,
    _schedule_key,
    config_digest,
    metrics_from_log,
    replay_verify,
    run_session,
)

README = Path(__file__).resolve().parent.parent / "README.md"

STEPS = (0.004, 0.01, 0.02, 0.025, 0.05)
# Long enough to reach 6 s into the first sprint (it starts at 30 s), so
# the controller's setpoint and gains take part.
MAX_DURATION = 36.0

# The config's fields that hold a dataclass with bounded fields, by the
# prefix ``validate`` names their fields with.
PARTS = {"profile": PlayerProfile, "heart": HeartRateParams,
         "calibration": Calibration}

# An integer past the float range, as a JSON file may hold.
HUGE = 10**400


def bounded(cls: type, name: str) -> st.SearchStrategy[float]:
    """Any float in the interval the field declares."""
    interval, low, high = declared_intervals(cls)[name]
    return st.floats(min_value=low, max_value=high,
                     exclude_min=interval[0] == "(",
                     exclude_max=interval[-1] == ")",
                     allow_nan=False, allow_infinity=False)


def declared(cls: type, **fixed: st.SearchStrategy) -> st.SearchStrategy:
    """The ``cls`` dataclass with each bounded field drawn from its
    interval, but for the strategies ``fixed`` gives."""
    return st.builds(cls, **{**{name: bounded(cls, name)
                                for name in declared_intervals(cls)},
                             **fixed})


# The shortest step a drawn config has.  validate takes any positive
# step, but the drain after the last spawn lasts up to the longest
# flight, about 5.3 s, whatever the step, so a much shorter one makes
# the drain longer than a property can wait for.
MIN_STEP = 0.001
# Each session's gameplay ticks, capped so that the property stays
# within seconds: MAX_DURATION at the shortest of STEPS.
MAX_TICKS = round(MAX_DURATION / min(STEPS))


def steps_and_ticks(draw) -> tuple[float, int]:
    """A step, one of ``STEPS`` or any float in [MIN_STEP, 0.1], and a
    whole number of gameplay ticks, at least one and at most MAX_TICKS.
    About half the sessions end inside the first sprint."""
    dt = draw(st.one_of(st.sampled_from(STEPS),
                        st.floats(min_value=MIN_STEP, max_value=0.1)))
    seconds = draw(st.one_of(st.floats(min_value=0.0, max_value=30.0),
                             st.floats(min_value=30.0, max_value=MAX_DURATION)))
    return dt, max(1, min(round(seconds / dt), MAX_TICKS))


@st.composite
def session_configs(draw) -> SessionConfig:
    dt, ticks = steps_and_ticks(draw)
    heart = HEART_PRESETS[draw(st.sampled_from(sorted(HEART_PRESETS)))]
    gain = st.floats(min_value=0.0, max_value=0.5)
    # A built-in profile's effort and policy, with the rest drawn: punch
    # speeds around the 1 m/s jab threshold, and reactions from instant
    # to slower than any built-in.
    profile = dataclasses.replace(
        load_profile(draw(st.sampled_from(builtin_profiles()))),
        reaction_time=draw(st.floats(min_value=0.0, max_value=0.5)),
        punch_speed_mean=draw(st.floats(min_value=0.5, max_value=6.0)),
        punch_speed_sd=draw(st.floats(min_value=0.0, max_value=1.0)),
        aim_error_sd=draw(st.floats(min_value=0.0, max_value=0.2)),
        correct_hand_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        weave_reliability=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    return SessionConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        profile=profile,
        targeting=TargetingPolicy(draw(st.sampled_from(TargetingMode)),
                                  draw(st.sampled_from(TargetingRange))),
        heart=heart,
        pid_enabled=draw(st.booleans()),
        pid_gains=(draw(gain), draw(gain), draw(gain)),
        hr_setpoint=draw(st.floats(min_value=heart.hr_rest,
                                   max_value=heart.hr_max)),
        calibration=draw(declared(Calibration)),
        dt=dt,
        duration=ticks * dt,
    )


@st.composite
def declared_configs(draw) -> SessionConfig:
    """Any config the declared intervals and ``validate``'s rules that
    relate a field to another, or to a constant, accept."""
    dt, ticks = steps_and_ticks(draw)
    hr_rest, hr_max = sorted(draw(st.lists(
        bounded(HeartRateParams, "hr_rest"), min_size=2, max_size=2,
        unique=True)))
    heart = draw(declared(HeartRateParams, hr_rest=st.just(hr_rest),
                          hr_max=st.just(hr_max)))
    gain = st.floats(min_value=-0.5, max_value=0.5)
    config = SessionConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        profile=draw(declared(
            PlayerProfile, name=st.just("drawn"),
            empower_policy=st.sampled_from(EmpowerPolicy),
            reaction_time=st.floats(min_value=0.0,
                                    max_value=_MAX_FLIGHT_SECONDS,
                                    exclude_max=True))),
        targeting=TargetingPolicy(draw(st.sampled_from(TargetingMode)),
                                  draw(st.sampled_from(TargetingRange))),
        heart=heart,
        pid_enabled=draw(st.booleans()),
        pid_gains=(draw(gain), draw(gain), draw(gain)),
        hr_setpoint=draw(st.floats(min_value=0.0, max_value=hr_max,
                                   exclude_min=True)),
        calibration=draw(declared(Calibration)),
        dt=dt,
        duration=ticks * dt,
    )
    try:
        config.validate()
    except ValueError:
        reject()  # gains that overflow the controller at this hr_max and dt
    return config


def assert_sound(config: SessionConfig) -> None:
    """Run ``config``: every spawn ends, the drain finishes, and the log
    reads back to the runner's metrics and replays."""
    result = run_session(config)  # raises if the drain runs out of ticks
    m = result.metrics
    assert m.viruses_destroyed + m.viruses_missed == m.viruses_spawned
    assert m.cells_avoided + m.cells_collided == m.cells_spawned
    end = json.loads(result.lines[-1])
    assert end["type"] == "end"
    ticks = round(config.duration / config.dt) + _drain_tick_cap(config.dt)
    assert end["t"] <= ticks * config.dt + 1e-6
    assert metrics_from_log(result.lines) == m
    assert replay_verify(result.lines, config).ok


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=session_configs())
def test_session_invariants_hold(config: SessionConfig) -> None:
    assert_sound(config)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=declared_configs())
def test_every_declared_config_runs(config: SessionConfig) -> None:
    assert_sound(config)


@settings(deadline=None)
@given(config=session_configs())
def test_run_session_matches_the_per_tick_oracle(config: SessionConfig) -> None:
    # Every fast path of the live loop against the plain per-tick loop,
    # line for line.
    assert run_session(config).lines == run_session_per_tick(config).lines


@settings(max_examples=50, deadline=None)
@given(config=session_configs())
def test_plan_matches_the_per_tick_reference(config: SessionConfig) -> None:
    # Rows, spawn params, due ticks and world clocks, byte for byte.
    assert_same_plan(_schedule_key(config))


@settings(max_examples=200, deadline=None)
@given(config=session_configs())
def test_digest_matches_the_frozen_reference(config: SessionConfig) -> None:
    # The payload built from the config's fields is the hand-written one,
    # byte for byte.
    assert config_digest(config) == reference_digest(config)


BASE = SessionConfig(seed=0, profile=load_profile("mid_skill"))
# Each bounded field: the part of the config that holds it ("" for the
# config's own), its class and its name.
BOUNDED = [(part, cls, name)
           for part, cls in (("", SessionConfig), *PARTS.items())
           for name in declared_intervals(cls)]


def edges(cls: type, name: str) -> list:
    """The values beside an interior one that the field is set to: each
    end of its interval and the floats either side of it, both zeros,
    NaN, the infinities and an integer past the float range."""
    _, low, high = declared_intervals(cls)[name]
    return [value for end in (low, high)
            for value in (math.nextafter(end, -math.inf), end,
                          math.nextafter(end, math.inf))] + [
        0.0, -0.0, math.nan, math.inf, -math.inf, HUGE]


@st.composite
def edge_configs(draw) -> SessionConfig:
    """The default mid_skill config with up to three bounded fields set
    to an edge of their interval, or to any value inside it."""
    parts = {part: getattr(BASE, part) for part in PARTS}
    config = BASE
    for part, cls, name in draw(st.lists(st.sampled_from(BOUNDED),
                                         max_size=3, unique=True)):
        value = draw(st.one_of(bounded(cls, name),
                               st.sampled_from(edges(cls, name))))
        if part:
            parts[part] = dataclasses.replace(parts[part], **{name: value})
        else:
            config = dataclasses.replace(config, **{name: value})
    return dataclasses.replace(config, **parts)


def _rejects(check, errors) -> bool:
    """Whether ``check()`` raises one of ``errors``; any other exception
    fails the test."""
    try:
        check()
    except errors:
        return True
    return False


# The caps on the aim error and the heart rates: the reference took any
# finite ones.
AIM_CAP = declared_intervals(PlayerProfile)["aim_error_sd"][2]
HEART_CAP = declared_intervals(HeartRateParams)["hr_max"][2]


@settings(deadline=None)
@given(config=edge_configs())
def test_validate_rejects_what_the_frozen_reference_rejects(
        config: SessionConfig) -> None:
    # The reference's OverflowError, from an integer past the float
    # range, is a rejection too; the live checks raise ValueError alone.
    # Beside the aim error's cap and the heart rates' cap, the live
    # checks reject one more value the reference took: a calibration
    # integer past the float range, with which run_session raised
    # OverflowError.
    profile = config.profile
    reference = (ValueError, OverflowError)
    assert _rejects(profile.validate, ValueError) == (
        _rejects(lambda: reference_profile_validate(profile), reference)
        or profile.aim_error_sd > AIM_CAP)
    calibration = config.calibration
    assert _rejects(config.validate, ValueError) == (
        _rejects(lambda: reference_config_validate(config), reference)
        or profile.aim_error_sd > AIM_CAP
        or max(config.heart.hr_rest, config.heart.hr_max) > HEART_CAP
        or HUGE in (calibration.standing_head_height,
                    calibration.lean_threshold))


def declared_table() -> str:
    """The README's table of each bounded field and its interval, in the
    order ``SessionConfig.validate`` checks them."""
    rows = ["| field | accepted interval |", "| --- | --- |"]
    own = declared_intervals(SessionConfig)
    for field in dataclasses.fields(SessionConfig):
        if field.name in PARTS:
            rows += [f"| `{field.name}.{name}` | `{interval}` |"
                     for name, (interval, _, _)
                     in declared_intervals(PARTS[field.name]).items()]
        elif field.name in own:
            rows.append(f"| `{field.name}` | `{own[field.name][0]}` |")
    return "\n".join(rows) + "\n"


def test_readme_lists_every_declared_interval() -> None:
    assert declared_table() in README.read_text(encoding="utf-8")
