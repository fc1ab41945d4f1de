"""Session invariants across the valid config space, not only the defaults."""
from __future__ import annotations

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from digest_reference import reference_digest
from test_control_schedule import assert_same_plan
from virusboxing.interaction import (
    Calibration,
    TargetingMode,
    TargetingPolicy,
    TargetingRange,
)
from virusboxing.physiology import HEART_PRESETS
from virusboxing.playersim import builtin_profiles, load_profile
from virusboxing.session import (
    SessionConfig,
    _drain_tick_cap,
    _schedule_key,
    config_digest,
    metrics_from_log,
    replay_verify,
    run_session,
)

STEPS = (0.004, 0.01, 0.02, 0.025, 0.05)
# Long enough to reach 6 s into the first sprint (it starts at 30 s), so
# the controller's setpoint and gains take part.
MAX_DURATION = 36.0


@st.composite
def session_configs(draw) -> SessionConfig:
    dt = draw(st.sampled_from(STEPS))
    # About half the sessions end inside the first sprint.  Snapped to
    # the step grid: a whole number of steps, at least one.
    seconds = draw(st.one_of(st.floats(min_value=0.0, max_value=30.0),
                             st.floats(min_value=30.0, max_value=MAX_DURATION)))
    ticks = max(1, min(round(seconds / dt), round(MAX_DURATION / dt)))
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
    # Anywhere inside the bounds SessionConfig.validate sets: a positive
    # standing height, a squat ratio in (0, 1) and a lean threshold of 0
    # or more.
    calibration = Calibration(
        standing_head_height=draw(st.floats(min_value=0.0, max_value=2.5,
                                            exclude_min=True)),
        squat_ratio=draw(st.floats(min_value=0.0, max_value=1.0,
                                   exclude_min=True, exclude_max=True)),
        lean_threshold=draw(st.floats(min_value=0.0, max_value=0.5)),
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
        calibration=calibration,
        dt=dt,
        duration=round(ticks * dt, 9),
    )


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=session_configs())
def test_session_invariants_hold(config: SessionConfig) -> None:
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
