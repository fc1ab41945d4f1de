"""Metamorphic relations: what two runs of the simulator must share when
their configs differ in one known way.

The golden logs and the per-tick oracle judge the v1 bytes; these
relations judge behaviour, on parsed rows, so they hold across log
versions.  Each is a property over ``session_configs()``:

- **Duration prefix.**  A session of duration d writes every row with
  t < d that a longer session of the same config writes, the header and
  the ``end`` row left out: no later spawn or plan leaks backwards.
  Log v1 breaks it in one place, which the property leaves out: the
  closing tick, d, spawns nothing, so a spawn dated inside the last
  step, after the last gameplay tick, is written only by the longer
  session, whose tick d is a gameplay tick.
- **The heart without the PID.**  With the PID off, the ``regular`` and
  ``sedentary`` hearts write the same rows apart from the header and
  the ``hr`` rows: the heart only drives the controller.
"""
from __future__ import annotations

import dataclasses
import json

from hypothesis import example, given, settings

from test_config_properties import session_configs
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


# Each draws a session of up to 420 s, so a tenth of the profile's
# examples.
@settings(max_examples=settings.default.max_examples // 10, deadline=None)
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
