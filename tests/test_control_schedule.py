"""The one-pass plan against a per-tick reference.

``_plan`` walks a config's ticks once: it writes ``PidController.step``,
``apply_modulation``, ``kcal_step`` and ``hr_step`` out on local floats,
and draws each spawn from the controller output on the tick the one
before lands.  ``plan_per_tick`` builds the same rows and spawn timeline
the plain way: ``per_tick_oracle.control_schedule_per_tick``'s controls
and shifts, read through ``run_session_per_tick``'s spawn rule.  These
tests require the same heart rate and kcal rows, spawn parameters, due
ticks and world clocks down to the byte, across step sizes, durations
and gains, and on the ticks where a span of the pass starts: a phase
boundary, a 1 Hz row and the last gameplay tick.
"""
from __future__ import annotations

import math
from array import array

import pytest

from per_tick_oracle import control_schedule_per_tick
from virusboxing.physiology import DEFAULT_PID_GAINS, HEART_PRESETS, apply_modulation
from virusboxing.playersim import load_profile
from virusboxing.protocol import PhaseKind, phase_at, phase_boundary_ticks, spawn_params
from virusboxing.session import DEFAULT_SETPOINT, SessionConfig, _plan

REGULAR = HEART_PRESETS["regular"]
EFFORT = 0.6  # mid_skill's
# Ends 0.36 s into a second, 10 s into the second sprint, so the
# controller's state carries across a low-intensity phase.
MID_SECOND = 160.36


def _key(dt=0.02, duration=420.0, gains=DEFAULT_PID_GAINS,
         setpoint=DEFAULT_SETPOINT, heart=REGULAR, effort=EFFORT) -> tuple:
    return (effort, heart, gains, setpoint, dt, round(duration / dt))


def _doubles(params) -> bytes:
    return array("d", [x for p in params for x in (p.interval, p.speed)]).tobytes()


def plan_per_tick(key: tuple) -> tuple:
    """``(controls, shifts, hr, kcal, params, dues, clocks)`` of one
    config, built tick by tick.

    The first four are ``control_schedule_per_tick``'s.  The spawn
    timeline follows ``run_session_per_tick``: on tick ``k`` every spawn
    with ``time <= k * dt + 1e-9`` lands, at the world clock of ``k``
    ``+= dt`` steps, and draws the next from the phase and the control
    ``controls[k + shift]``, or 1.0 on a free tick.  The last spawn's due
    tick is the first at or past the end that rule would land it on.
    """
    dt, gameplay_ticks = key[-2:]
    controls, shifts, hr, kcal = control_schedule_per_tick.__wrapped__(*key)
    boundaries = iter(phase_boundary_ticks(dt))
    next_boundary = next(boundaries)
    spawn = spawn_params(phase_at(0.0))
    time = spawn.interval
    params, dues, clocks = [spawn], array("l"), array("d")
    clock = 0.0
    for k in range(gameplay_ticks):
        t = k * dt
        if k == next_boundary:
            phase = phase_at(t)
            shift = shifts.get(k)
            next_boundary = next(boundaries, -1)
        if time <= t + 1e-9:
            scale = 1.0
            if shift is not None:
                scale = apply_modulation(controls[k + shift])
            while time <= t + 1e-9:
                dues.append(k)
                clocks.append(clock)
                spawn = spawn_params(phase, scale)
                time = time + spawn.interval
                params.append(spawn)
        clock += dt  # advance's ``world.sim_time += dt``
    k = gameplay_ticks
    while time > k * dt + 1e-9:
        k += 1
    dues.append(k)
    return controls, shifts, hr, kcal, params, dues, clocks


def assert_same_plan(key: tuple) -> tuple:
    """Hold ``_plan(*key)`` to ``plan_per_tick(key)`` byte for byte, and
    return both."""
    plan = _plan.__wrapped__(*key)
    reference = plan_per_tick(key)
    _, _, hr, kcal, params, dues, clocks = reference
    assert plan.hr.tobytes() == hr.tobytes()
    assert plan.kcal.tobytes() == kcal.tobytes()
    assert _doubles(plan.params) == _doubles(params)
    assert plan.dues.tobytes() == dues.tobytes()
    assert plan.clocks.tobytes() == clocks.tobytes()
    return plan, reference


def _assert_same(key: tuple) -> tuple:
    """The reference's ``(controls, shifts, hr, kcal)``, once the plan
    matches it."""
    return assert_same_plan(key)[1][:4]


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


@pytest.mark.parametrize("key, sprint_start", [
    # Free: spawns land on the first ticks of the second sprint (150 s)
    # and of the third low phase (240 s).
    (_key(gains=None), False),
    # Controlled: a spawn lands on the first tick of the second sprint
    # and reads the controller's first output there.
    (_key(dt=0.1, effort=1.0), True),
], ids=["pid_off", "pid_on_sprint_start"])
def test_a_spawn_on_a_phase_boundary(key, sprint_start) -> None:
    plan, _ = assert_same_plan(key)
    dt = key[-2]
    hits = set(plan.dues[:-1]) & set(plan.boundaries[:-1])
    assert hits
    if sprint_start:
        assert any(phase_at(b * dt).kind is PhaseKind.SPRINT for b in hits)


def test_a_spawn_on_a_1hz_row_in_a_controlled_sprint() -> None:
    plan, _ = assert_same_plan(_key())
    ticks_per_second = round(1.0 / 0.02)
    assert any(d % ticks_per_second == 0
               and phase_at(d * 0.02).kind is PhaseKind.SPRINT
               for d in plan.dues[:-1])


def test_a_spawn_on_the_last_gameplay_tick() -> None:
    # 30.92 s is 1546 ticks, and a spawn lands on tick 1545, in the
    # first sprint: the last spawn is drawn from tick G - 1's output.
    key = _key(duration=30.92)
    plan, _ = assert_same_plan(key)
    gameplay_ticks = key[-1]
    assert plan.dues[-2] == gameplay_ticks - 1
    assert phase_at((gameplay_ticks - 1) * 0.02).kind is PhaseKind.SPRINT


def test_a_duration_ending_before_the_first_spawn() -> None:
    key = _key(duration=0.5)
    plan, _ = assert_same_plan(key)
    assert len(plan.params) == len(plan.dues) == 1
    assert plan.dues[0] >= key[-1]
    assert not plan.clocks
    assert list(plan.crossings) == [-1]
