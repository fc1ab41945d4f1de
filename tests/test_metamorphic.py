"""Metamorphic relations: what two runs of the simulator must share when
their configs differ in one known way.

The golden logs and the per-tick oracle judge the v1 bytes; these
relations judge behaviour, on parsed rows, so they hold across log
versions.  Each is a property over ``session_configs()``, and none
compares the header, which carries the config's digest:

- **Duration prefix.**  A session of duration d writes every row with
  t < d that a longer session of the same config writes, the ``end``
  row left out: no later spawn or plan leaks backwards.  Log v1 breaks
  it in one place, which the property leaves out: the closing tick, d,
  spawns nothing, so a spawn dated inside the last step, after the last
  gameplay tick, is written only by the longer session, whose tick d is
  a gameplay tick.
- **The heart without the PID.**  With the PID off, the ``regular`` and
  ``sedentary`` hearts write the same rows apart from the ``hr`` rows:
  the heart only drives the controller.
- **Targeting before the first empowerment.**  Two targeting policies,
  mode and range, write the same rows before the first ``empower`` row:
  a jab plan is ranged only once an empowerment is open, and a jab
  outside one resolves by melee whatever the policy.
- **Seeds share the timeline.**  Two seeds of one config write the same
  time and speed on every ``spawn`` row; the seed draws only the kinds
  and the lanes (``session._plan`` builds one plan per config).
- **The PID's setpoint and gains without the PID.**  With the PID off,
  any valid setpoint and gains write the same rows: the controller never
  runs (``session._schedule_key`` leaves both out of the plan's key).
"""
from __future__ import annotations

import dataclasses
import json
from itertools import takewhile

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from test_config_properties import session_configs
from virusboxing.interaction import (TargetingMode, TargetingPolicy,
                                     TargetingRange)
from virusboxing.physiology import HEART_PRESETS
from virusboxing.playersim import load_profile
from virusboxing.protocol import SESSION_DURATION
from virusboxing.session import SessionConfig, run_session

# The longest session the prefix relation runs, in ticks: the whole
# 420 s protocol at 50 Hz.  A shorter step runs this many ticks only,
# still past every drawn duration, which is at most 9,000 ticks.
LONG_TICKS = 21_000


def _rows(config: SessionConfig, *left_out: str) -> list[dict]:
    """The rows ``config``'s session writes, parsed, without the header
    and the rows of each type ``left_out``."""
    return [row for row in map(json.loads, run_session(config).lines)
            if row["type"] not in ("header", *left_out)]


def _longer(config: SessionConfig) -> SessionConfig:
    """``config`` run for 420 s, or for ``LONG_TICKS`` steps if that ends
    sooner: a whole number of steps either way."""
    ticks = min(round(SESSION_DURATION / config.dt), LONG_TICKS)
    while ticks * config.dt > SESSION_DURATION:
        ticks -= 1
    return dataclasses.replace(config, duration=ticks * config.dt)


# Every property here runs two sessions per example, and an explicit
# example runs whole 420 s ones, so each sets deadline=None: on a busy
# host an example can outlast Hypothesis's 200 ms default, which is
# timing, not a wrong row.


# Each example draws a session of up to 420 s, so a tenth of the
# profile's examples, and a failure is reported as found: each shrink
# step would run such a session again, and shrinking took minutes.
@settings(max_examples=settings.default.max_examples // 10, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(config=session_configs())
# Past the first sprint, which the drawn sessions never leave.
@example(config=SessionConfig(seed=1, profile=load_profile("novice"),
                              duration=137.0))
def test_a_shorter_session_writes_the_longer_ones_rows(
        config: SessionConfig) -> None:
    longer = _longer(config)
    assert longer.duration > config.duration
    # Times as the rows write them, at six decimals: d, the closing
    # tick's, and the last gameplay tick's.
    d = round(config.duration, 6)
    last = round(config.duration - config.dt, 6)

    def kept(row: dict) -> bool:
        # The v1 fault: the closing tick spawns nothing, so a spawn dated
        # after the last gameplay tick is the longer session's alone.
        return row["t"] < d and not (row["type"] == "spawn"
                                     and row["t"] >= last)

    want = [row for row in _rows(longer, "end") if kept(row)]
    assert [row for row in _rows(config, "end") if kept(row)] == want


@settings(deadline=None)
@given(config=session_configs())
def test_without_the_pid_the_heart_moves_only_the_hr_rows(
        config: SessionConfig) -> None:
    regular, sedentary = HEART_PRESETS["regular"], HEART_PRESETS["sedentary"]
    # One setpoint that both hearts reach; with the PID off it is unused.
    config = dataclasses.replace(
        config, pid_enabled=False,
        hr_setpoint=min(config.hr_setpoint, regular.hr_max,
                        sedentary.hr_max))
    assert (_rows(dataclasses.replace(config, heart=regular), "hr")
            == _rows(dataclasses.replace(config, heart=sedentary), "hr"))


def _before_empowerment(config: SessionConfig) -> list[dict]:
    """The rows ``config``'s session writes before its first ``empower``
    row, all of them if it writes none."""
    return list(takewhile(lambda row: row["type"] != "empower",
                          _rows(config)))


@settings(deadline=None)
@given(config=session_configs(),
       targeting=st.builds(TargetingPolicy, st.sampled_from(TargetingMode),
                           st.sampled_from(TargetingRange)))
# A whole session that empowers from its 14th second on, rough and long
# against precise and short.
@example(config=SessionConfig(seed=0, profile=load_profile("mid_skill")),
         targeting=TargetingPolicy(TargetingMode.PRECISE,
                                   TargetingRange.SHORT))
def test_targeting_moves_no_row_before_the_first_empowerment(
        config: SessionConfig, targeting: TargetingPolicy) -> None:
    assert (_before_empowerment(config) == _before_empowerment(
        dataclasses.replace(config, targeting=targeting)))


@settings(deadline=None)
@given(config=session_configs(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_the_seeds_of_a_config_share_its_spawn_timeline(
        config: SessionConfig, seed: int) -> None:
    def timeline(seed: int) -> list[tuple[float, float]]:
        return [(row["t"], row["speed"])
                for row in _rows(dataclasses.replace(config, seed=seed))
                if row["type"] == "spawn"]

    assert timeline(config.seed) == timeline(seed)


@settings(deadline=None)
@given(config=session_configs(), data=st.data())
def test_without_the_pid_its_setpoint_and_gains_move_nothing(
        config: SessionConfig, data: st.DataObject) -> None:
    config = dataclasses.replace(config, pid_enabled=False)
    gain = st.floats(min_value=-0.5, max_value=0.5)
    other = dataclasses.replace(
        config, pid_gains=data.draw(st.tuples(gain, gain, gain)),
        hr_setpoint=data.draw(st.floats(min_value=1.0,
                                        max_value=config.heart.hr_max)))
    assert _rows(config) == _rows(other)
