"""The control schedule on local floats against the per-call reference.

``_control_schedule`` writes ``PidController.step``, ``apply_modulation``,
``kcal_step`` and ``hr_step`` out on local floats.
``per_tick_oracle.control_schedule_per_tick`` calls them on every tick.
These tests require the same controls, heart rate and kcal down to the
byte, and the same shifts, across step sizes, durations and gains.  The
live schedule takes ``_plan``'s boundary tuple in place of the tick
count the reference takes.
"""
from __future__ import annotations

import math

import pytest

from per_tick_oracle import control_schedule_per_tick
from virusboxing.physiology import DEFAULT_PID_GAINS, HEART_PRESETS
from virusboxing.playersim import load_profile
from virusboxing.protocol import phase_boundary_ticks
from virusboxing.session import DEFAULT_SETPOINT, SessionConfig, _control_schedule

REGULAR = HEART_PRESETS["regular"]
EFFORT = 0.6  # mid_skill's
# Ends 0.36 s into a second, 10 s into the second sprint, so the
# controller's state carries across a low-intensity phase.
MID_SECOND = 160.36


def _key(dt=0.02, duration=420.0, gains=DEFAULT_PID_GAINS,
         setpoint=DEFAULT_SETPOINT, heart=REGULAR, effort=EFFORT) -> tuple:
    return (effort, heart, gains, setpoint, dt, round(duration / dt))


def _assert_same(key: tuple) -> tuple:
    *head, dt, gameplay_ticks = key
    # As _plan builds it: the phase boundaries before tick G, then G.
    boundaries = tuple(b for b in phase_boundary_ticks(dt)
                       if b < gameplay_ticks) + (gameplay_ticks,)
    controls, shifts, hr, kcal = _control_schedule(*head, dt, boundaries)
    ref_controls, ref_shifts, ref_hr, ref_kcal = control_schedule_per_tick(*key)
    assert controls.tobytes() == ref_controls.tobytes()
    assert shifts == ref_shifts
    assert hr.tobytes() == ref_hr.tobytes()
    assert kcal.tobytes() == ref_kcal.tobytes()
    return controls, shifts, hr, kcal


@pytest.mark.parametrize("pid", [True, False], ids=["pid_on", "pid_off"])
@pytest.mark.parametrize("dt", [0.01, 0.02, 0.035, 0.0625, 0.1])
def test_whole_protocol_at_each_step(dt, pid) -> None:
    controls, shifts, hr, _ = _assert_same(
        _key(dt=dt, gains=DEFAULT_PID_GAINS if pid else None))
    assert len(hr) == math.ceil(round(420.0 / dt) / max(1, round(1.0 / dt))) + 1
    # Three sprints with the controller on, none with it off.
    assert len(shifts) == (3 if pid else 0)
    assert bool(controls) is pid


@pytest.mark.parametrize("gains", [
    None,
    DEFAULT_PID_GAINS,
    (0.06, 0.0, 0.0),
    (0.3, 0.0, 0.4),
    (-0.06, -0.005, -0.02),
    (0.0, -0.2, 0.0),
    (1e300, 1e300, 1e300),
    (-1e300, 1e-300, -1e300),
], ids=["off", "default", "ki_zero", "pd", "negative", "negative_ki",
        "huge", "huge_negative"])
def test_gains_on_a_duration_ending_mid_second(gains) -> None:
    _assert_same(_key(duration=MID_SECOND, gains=gains))


@pytest.mark.parametrize("gains, outputs", [
    ((1e300, 1e300, 1e300), {-1.0, 1.0}),
    # Inverted feedback: the heart rate never gets above the setpoint.
    ((-1e300, 1e-300, -1e300), {-1.0}),
])
def test_huge_valid_gains_saturate(gains, outputs) -> None:
    SessionConfig(seed=0, profile=load_profile("mid_skill"),
                  pid_gains=gains).validate()
    controls = _assert_same(_key(duration=MID_SECOND, gains=gains))[0]
    assert set(controls) == outputs


@pytest.mark.parametrize("dt", [0.02, 0.035])
def test_setpoint_at_hr_max(dt) -> None:
    _assert_same(_key(dt=dt, duration=MID_SECOND, setpoint=REGULAR.hr_max))


@pytest.mark.parametrize("effort", [0.0, 1.0])
def test_effort_at_its_bounds(effort) -> None:
    _assert_same(_key(duration=MID_SECOND, effort=effort,
                      heart=HEART_PRESETS["sedentary"]))


def test_a_nan_output_still_clamps_to_full_slow_down() -> None:
    # SessionConfig.validate rejects these gains; the first output is
    # inf - inf.  A direct call must still clamp it as max(-1.0, nan) does.
    controls = _assert_same(_key(duration=MID_SECOND,
                                 gains=(1e308, 0.0, -1e308)))[0]
    assert controls[0] == -1.0
