"""Deterministic session loop, replay logs, and batch execution.

One session is 420 s at 50 Hz.  Every tick runs the same stage order:
phase lookup, spawning, jab detection and resolution, crossing
resolution, then empowerment bookkeeping.  All randomness flows through
one seeded generator shared by the spawner and the synthetic player, so
a seed plus a config fully determines the log, byte for byte.

Heart rate, kcal, the controller output and the spawn cadence they
drive read nothing from gameplay: they follow from the effort, the
heart, the PID settings, dt and the duration alone.  ``_plan`` works
them out once per such config, in one pass over its ticks, and keeps
them in one small cache, so the seeds of a sweep share one plan.  The
pass integrates the controller and the physiology on local floats:
each tick is the arithmetic of the ``physiology`` step functions
written out term for term, with ``min`` and ``max`` as the conditional
expressions they evaluate to, so NaN clamps as before, and the 1 Hz
rows are taken once per one-second span.  ``tests/per_tick_oracle.py``
keeps the loop that calls those functions, as the reference the plan
must match byte for byte.  The plan keeps the rounded heart rate and
kcal of each ``hr`` row; the controller output is read only on the
ticks spawns land, and kept nowhere.

Each spawn's interval and speed follow from the phase and the
controller output on the tick the previous one lands, so the same pass
draws, in the same floats, every spawn's parameters and tick, and the
tick each flight crosses the player plane on.  That tick comes from the
closed form of its ``position -= speed * dt`` steps when the positions
around it lie clear of the plane by more than their rounding can move
them, and from replaying the steps otherwise.  The loop still draws each
spawn's kind and lane from the seed, but never steps the world: it
resolves the crossings the plan puts on each tick, and steps the
in-flight positions through the same sequence only on a tick a jab
reads them.

The phase changes only at the ticks ``phase_boundary_ticks`` lists,
which the plan keeps, so the loop looks the phase up on those ticks
alone and keeps the sprint flag until the next one.  Its boundary stage
writes a ``phase`` row on every boundary tick, 0 and G included: each
boundary between them changes the phase.  Its 1 Hz stage writes every
``hr`` row, taking the plan's rows in order, so the closing row at G is
the plan's last.

Most ticks are quiet: no spawn, no jab, no crossing and no empowerment
change.  So the loop makes a progression call only when it could act:
the expiry check on the one tick an empowerment ends, worked out when it
starts, and the activation attempt once the energy bar is full.  The
buttons held are fixed per phase kind by the profile, so the loop reads
them from the player once per phase and makes no activation attempt in
a phase that holds no button.  Each log row is written from one fixed
``%``-format template per kind of row, and ``metrics_from_log`` reads
a row back off one pattern built from those templates, so that only a
row they would not write, such as a hand-edited one, goes through
``json.loads``.

A jab fires only when a hand's windowed speed reaches 1 m/s.  So the
loop judges a hand only on the ticks the player marks hot for it
(``SyntheticPlayer.hot``, one bit per hand): elsewhere no segment of its
chains at that speed lies in the window, so its speed is below the
threshold.  The speed on a marked tick needs two reads of the hand's
track (``_HandTrack.ends``): its position on the tick, and on the
window's first tick, which is the jab detector's own choice when fed
every tick but G, worked out in the same floats.  Each read bisects the
knot times of the chain that held on its tick, so it depends on no
earlier read.  The detector's ``judge`` applies the fire rule, with the
hand's speed on the tick before as judged there, or 0 if that tick was
not marked for it.  A hand that has just fired cannot fire again within
the detector's refractory, and what it judges there feeds only the next
judged tick's speed below.  So after a fire the loop neither reads nor
judges the hand until its wake tick (``_wake_tick``): the tick run just
before the first tick out of the refractory, whose speed that tick reads
as below.  A hot tick whose marked hands all lie in such a quiet span
costs no window arithmetic.  So jabs fire exactly as a detector fed
every tick would fire them, and no tick is read only to fill a window.
A plan's rebuild marks only ticks after its own, so no mark lands on a
tick already run.  Marks are only ever added: when a plan replaces
another, the old chain's marks stay, for the ticks whose window still
reaches into it.  A tick on which a cell crosses is sampled whole
(``SyntheticPlayer.sample``) for its head pose.  On a tick a jab fires,
only the viruses' positions are stepped: a jab reads no cell, and the
crossings come from the plan.

One loop runs the whole session.  The end of the protocol, tick G, is
its last phase boundary and its last ``hr`` row: after those closing
rows it turns off spawning, the 1 Hz rows and activation.  The ticks
after it drain the world through the same tick body until nothing is in
flight, so every spawned entity reaches a terminal state and the
summary's conservation checks hold.  Log v1 skips tick G: the drain's
first step is labelled ``(G + 1) * dt``, so a flight or an empowerment
due to end on tick G ends on G + 1.

A batch runs through ``iter_sessions``, which yields each result in
config order as it finishes, in this process or from a worker pool, so
a caller can write a session out and drop it before the next one runs.
``run_many`` is the same batch as a list.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import re
from array import array
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import playersim, protocol
from .interaction import (
    Calibration,
    CellOutcome,
    HitKind,
    JAB_REFRACTORY,
    JabDetector,
    TargetingPolicy,
    VELOCITY_WINDOW,
    classify_weave_pose,
    resolve_cell_pass,
    resolve_jab,
)
# ``_plan`` inlines ``hr_step`` and ``kcal_step``, so nothing here calls
# them; they stay bound because the benchmark's tracer wraps them by
# name, as it does ``advance`` below.
from .physiology import (
    DEFAULT_PID_GAINS,
    HEART_PRESETS,
    KCAL_PER_BPM_SECOND,
    HeartRateParams,
    apply_modulation,
    hr_step,
    kcal_step,
    modulated_intensity,
)
from .playersim import LEFT_MARK, RIGHT_MARK, PlayerProfile, SyntheticPlayer
from .progression import (
    ENERGY_CAPACITY,
    ProgressionState,
    SummaryMetrics,
    activate_empowerment,
    is_empowered,
    on_cell_avoided,
    on_cell_collided,
    on_virus_destroyed,
    on_virus_missed,
    on_wrong_hand,
    summary,
    tick_empowerment,
)
from .protocol import (
    LOW_INTENSITY_SPAWN,
    MODULATION_MIN,
    PhaseKind,
    SESSION_DURATION,
    SpawnParams,
    next_spawn,
    phase_at,
    spawn_params,
)
# ``_plan`` works out each flight's crossing, so nothing here calls
# ``advance``; it stays bound because the benchmark's tracer wraps every
# stage function in this namespace, ``world.advance`` included.
from .world import (
    CREATOR_DISTANCE,
    VIRUS_KINDS,
    EntityStatus,
    WorldState,
    _new,
    advance,
)

__all__ = [
    "LOG_VERSION",
    "SessionConfig",
    "SessionResult",
    "TraceRow",
    "HeaderMismatchError",
    "ReplayReport",
    "config_digest",
    "run_session",
    "iter_sessions",
    "run_many",
    "metrics_from_log",
    "replay_verify",
    "read_header",
]

LOG_VERSION = "1"

DEFAULT_SETPOINT = 150.0

# Longest flight of any entity: the slowest base speed (5.7 m/s) halved
# by the strongest slow-down modulation, over the full corridor.
_MAX_FLIGHT_SECONDS = CREATOR_DISTANCE / (
    LOW_INTENSITY_SPAWN.speed * MODULATION_MIN
)
# Ticks past the longest flight that absorb rounding in the stepped
# positions.
_DRAIN_MARGIN_TICKS = 2


def _drain_tick_cap(dt: float) -> int:
    """Upper bound on post-protocol ticks needed to flush the world."""
    return math.ceil(_MAX_FLIGHT_SECONDS / dt) + _DRAIN_MARGIN_TICKS


def _stepped(position: float, speed: float, dt: float, steps: int) -> float:
    """``position`` after ``steps`` world steps: ``advance``'s own
    ``position -= speed * dt``, in the same floats."""
    step = speed * dt
    for _ in range(steps):
        position -= step
    return position


def _crossing_tick(position: float, speed: float, dt: float, spawn_tick: int,
                   gameplay_ticks: int) -> int:
    """The tick on which an entity spawned on ``spawn_tick`` at
    ``position`` crosses the player plane: the tick of the first world
    step that leaves its stepped position at or below 0.

    World step ``n`` (from 0) runs on tick ``n`` up to the end of the
    protocol and on tick ``n + 1`` after it, since v1 skips tick G.

    The count of steps comes from the closed form ``ceil(position /
    step)`` when the positions before and after that step, worked out
    in one product and one difference each, lie clear of the plane by
    more than ``margin``.  Each stepped subtraction rounds by at most
    ``2**-53 * max(position, step)``, so ``margin`` covers that many of
    them and the rounding of the two tests themselves, eight times over
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    ch. 4), and the stepped positions lie on the same sides of the
    plane.  Otherwise a step lands within rounding of the plane, and the
    steps are replayed in the world's own floats.
    """
    step = speed * dt
    steps = math.ceil(position / step)
    margin = (steps + 4) * max(position, step) * 2.0 ** -50
    if not (position - (steps - 1) * step > margin
            and position - steps * step < -margin):
        # Well short of the plane: the rounding of a whole flight's
        # steps is far below one step, so no step skipped here can
        # reach it.
        steps = max(0, math.floor(position / step) - 2)
        position = _stepped(position, speed, dt, steps)
        while True:
            position -= step
            steps += 1
            if position <= 0.0:
                break
    last = spawn_tick + steps - 1
    return last + 1 if last >= gameplay_ticks else last


def _expiry_tick(until: float, dt: float, gameplay_ticks: int) -> int:
    """The tick whose ``tick_empowerment`` ends a window open until
    ``until``: the first ``k`` with ``k * dt >= until``, or G + 1 if that
    is G, which v1 skips."""
    k = protocol.first_tick(until, dt)
    return k + 1 if k == gameplay_ticks else k


def _wake_tick(fired: int, dt: float, gameplay_ticks: int) -> int:
    """The first tick to judge a hand on again after it fires on tick
    ``fired``: the tick run just before the first tick ``e`` that passes
    the detector's refractory test, ``e * dt - fired * dt >=
    JAB_REFRACTORY - 1e-9`` in its own floats.  That is ``e - 1``, or
    G - 1 if ``e - 1`` is G, which v1 skips; its speed is the one ``e``
    reads as below."""
    e = protocol.first_tick(JAB_REFRACTORY - 1e-9, dt, -(fired * dt))
    return e - 2 if e - 1 == gameplay_ticks else e - 1


def _schedule_key(config: SessionConfig) -> tuple:
    """The arguments ``_plan`` takes for ``config``: what shapes its
    controller and physiology, and so its spawn timeline.  With the PID
    off the controller never runs, so neither its gains nor its setpoint
    take part."""
    controller = ((config.pid_gains, config.hr_setpoint)
                  if config.pid_enabled else (None, None))
    return (config.profile.effort, config.heart, *controller, config.dt,
            round(config.duration / config.dt))


# What one config fixes for every seed: see ``_plan``.
_Plan = namedtuple("_Plan", "boundaries hr kcal params dues clocks "
                            "crossings order")


# Enough for every config of a 24-cell profile x targeting x PID x heart
# grid, which has 8.
@functools.lru_cache(maxsize=16)
def _plan(effort: float, heart: HeartRateParams,
          pid_gains: tuple[float, float, float] | None,
          setpoint: float | None, dt: float, gameplay_ticks: int) -> _Plan:
    """The phase boundaries, physiology and spawn timeline of one config,
    for every seed, worked out in one pass over its ticks.

    Each tick records the 1 Hz row's values if one is due, steps the
    controller on the heart rate at the tick's start, then integrates
    kcal and heart rate at the intensity the controller's difficulty
    scale sets.  A spawn's time and speed follow from the previous
    spawn's tick: its phase and, in a controlled sprint (a sprint with
    the PID on), the controller output just computed for that tick.  The
    seed draws only the kind and the lane.  So the spawn ticks, the
    position ``WorldState.spawn`` gives each entity and the tick its
    stepped flight crosses on are the same for every seed, and are
    worked out here once, in the floats the per-tick loop would use; the
    crossing tick from the closed form unless a step lands within
    rounding of the plane (``_crossing_tick``).  The plan holds:

    - ``boundaries``: the phase boundary ticks before the end of the
      protocol, then the end, tick G.
    - ``hr``, ``kcal``: the rounded values of each 1 Hz ``hr`` row, then
      those of the row at the end of the protocol.
    - ``params``, ``dues``: the SpawnParams ``next_spawn`` draws spawn i
      with, and the tick it is due on.  The last spawn is due at or
      after the end of the protocol and never lands; it is drawn all
      the same, as the per-tick loop draws it.
    - ``clocks``, ``crossings``: the world's clock
      (``WorldState.sim_time``) on the tick spawn i lands, and the tick
      it crosses the player plane on; the last spawn's is -1.
    - ``order``: the spawn indices in crossing order, ties in spawn
      order, then the last spawn's.

    The loop runs on local floats: each tick is the arithmetic of
    ``PidController.step``, ``apply_modulation``, ``kcal_step`` and
    ``hr_step``, term for term and in their order, with no call.  Each
    ``min(a, b)`` there is written ``b if b < a else a`` and each
    ``max(a, b)`` ``b if b > a else a``, which is what the builtins
    return, NaN included: a NaN controller output still clamps to -1.0.
    The ticks run in spans that start on a phase boundary, on a 1 Hz row
    and just after a spawn's tick, so the phase and the uncontrolled
    heart-rate target are worked out once per phase, the row once per
    span, and each spawn is drawn after its tick has run.  Every tick
    runs one body, in which a controlled tick's controller output only
    sets the heart rate's aim; a free tick keeps the phase's target as
    its aim.  ``tests/per_tick_oracle.py`` keeps the loop that calls the
    ``physiology`` functions on every tick, and
    ``tests/test_control_schedule.py`` holds the plan to it byte for
    byte.

    ``spawn_params`` reads the protocol's spawn constants, which are not
    part of the key: whatever changes them must clear the cache.  The
    cache hands the same arrays to every session of the config, so
    nothing may write to them.
    """
    # Read off the module, not bound here: the benchmark's tracer wraps
    # every function this namespace binds from another module, and this
    # runs once per plan, off the tick path its stages cover.
    boundaries = tuple(b for b in protocol.phase_boundary_ticks(dt)
                       if b < gameplay_ticks) + (gameplay_ticks,)
    ticks_per_second = max(1, round(1.0 / dt))
    hr_rest, hr_max = heart.hr_rest, heart.hr_max
    tau_rise, tau_decay = heart.tau_rise, heart.tau_decay
    hr_range = hr_max - hr_rest
    burn = KCAL_PER_BPM_SECOND
    if pid_gains is not None:
        kp, ki, kd = pid_gains
        # The anti-windup clamp, which applies only for a positive ki.
        windup = ki > 0.0
        if windup:
            high, low = 1.0 / ki, -1.0 / ki
    integral = prev_error = 0.0
    h = hr_rest
    kc = 0.0
    hr = array("d")
    kcal = array("d")
    spawn = spawn_params(phase_at(0.0))
    time = spawn.interval  # next_spawn(rng, 0.0, spawn)
    due = protocol.first_tick(time, dt, 1e-9)
    params = [spawn]
    dues = array("l", (due,))
    clocks = array("d")
    crossings = array("l")
    # Each tick adds dt to the world's clock before it runs, as the
    # tick before ran ``advance``'s ``world.sim_time += dt``; -dt + dt is
    # exactly 0.0.
    clock = -dt
    row = 0  # the next 1 Hz row's tick
    for start, end in zip(boundaries, boundaries[1:]):
        phase = phase_at(start * dt)
        controlled = pid_gains is not None and phase.kind is PhaseKind.SPRINT
        # At most 1.0 already, so an uncontrolled tick's capped intensity,
        # min(1.0, intensity * 1.0), is intensity itself.
        intensity = modulated_intensity(phase.kind, effort)
        aim = hr_rest + intensity * hr_range
        made: dict[float, SpawnParams] = {}  # this phase's, by scale
        while start < end:
            if start == row:
                hr.append(round(h, 6))
                kcal.append(round(kc, 6))
                row += ticks_per_second
            # Every span ends on the next start: a boundary, a row, or
            # the tick after a spawn's.
            stop = min(end, row, due + 1)
            for _ in range(stop - start):
                clock += dt
                if controlled:
                    error = setpoint - h
                    integral += error * dt
                    if windup:
                        integral = integral if integral > low else low
                        integral = integral if integral < high else high
                    derivative = (error - prev_error) / dt
                    prev_error = error
                    u = kp * error + ki * integral + kd * derivative
                    u = u if u > -1.0 else -1.0
                    u = u if u < 1.0 else 1.0
                    # u is in [-1, 1], so apply_modulation's clamp keeps it.
                    scaled = intensity * 2.0 ** u
                    scaled = scaled if scaled < 1.0 else 1.0
                    aim = hr_rest + scaled * hr_range
                kc += burn * h * dt
                h += dt * (aim - h) / (tau_rise if aim > h else tau_decay)
                h = h if h > hr_rest else hr_rest
                h = h if h < hr_max else hr_max
            start = stop
            # The span's last tick is the due tick of every spawn landing
            # here, and u its controller output.
            while due < stop:
                position = CREATOR_DISTANCE - spawn.speed * (clock - time)
                clocks.append(clock)
                crossings.append(_crossing_tick(position, spawn.speed, dt,
                                                due, gameplay_ticks))
                scale = apply_modulation(u) if controlled else 1.0
                spawn = made.get(scale)
                if spawn is None:
                    spawn = made[scale] = spawn_params(phase, scale)
                time = time + spawn.interval
                due = protocol.first_tick(time, dt, 1e-9)
                params.append(spawn)
                dues.append(due)
    hr.append(round(h, 6))
    kcal.append(round(kc, 6))
    landed = len(crossings)
    crossings.append(-1)
    order = array("l", sorted(range(landed), key=crossings.__getitem__))
    order.append(landed)
    return _Plan(boundaries, hr, kcal, tuple(params), dues, clocks,
                 crossings, order)


@dataclass(frozen=True)
class SessionConfig:
    # The header writes the seed with %d, so seed 1.5 would run on
    # random.Random(1.5) under the header of seed 1, and random.Random
    # seeds by absolute value, so seed -3 would replay seed 3 under
    # another header.
    seed: int = dataclasses.field(metadata={"interval": "[0, inf)"})
    profile: PlayerProfile
    targeting: TargetingPolicy = TargetingPolicy()
    heart: HeartRateParams = HEART_PRESETS["regular"]
    pid_enabled: bool = True
    # Each gain: a bool would run as 1 or 0 under a digest that writes
    # true or false, and a NaN output clamps to full slow-down without a
    # word.
    pid_gains: tuple[float, float, float] = dataclasses.field(
        default=DEFAULT_PID_GAINS, metadata={"interval": "(-inf, inf)"})
    hr_setpoint: float = dataclasses.field(default=DEFAULT_SETPOINT,
                                           metadata={"interval": "(0, inf)"})
    calibration: Calibration = Calibration()
    # Past the jab detector's velocity window, the window would never
    # hold two samples, so no jab could fire.  The drain after the last
    # spawn lasts up to the longest flight whatever the step, so a step
    # far below a millisecond makes a session that runs for hours or
    # never ends, and a small enough one overflows its tick count.
    dt: float = dataclasses.field(default=0.02, metadata={
        "interval": f"[0.001, {VELOCITY_WINDOW:g}]"})
    # The protocol has no phase after its end to spawn from.
    duration: float = dataclasses.field(default=SESSION_DURATION, metadata={
        "interval": f"(0, {SESSION_DURATION:g}]"})

    def validate(self) -> dict:
        """Hold every field to its declared type and interval, the
        profile's, heart's and calibration's included
        (``playersim.check_bounds``), then check the rules that relate a
        field to another or to a constant.  Returns the fields' payload
        that walk built, which ``config_digest`` hashes.  Raises
        ``ValueError`` naming the first field that fails."""
        payload = playersim.check_bounds(self)
        if self.profile.reaction_time >= _MAX_FLIGHT_SECONDS:
            # Every virus would cross before the player could strike it.
            raise ValueError(
                f"reaction_time {self.profile.reaction_time} is not below "
                f"the longest flight, {_MAX_FLIGHT_SECONDS:.6g} s"
            )
        ticks = self.duration / self.dt
        if abs(ticks - round(ticks)) > 1e-9:
            raise ValueError(
                f"duration {self.duration} is not a whole number of "
                f"{self.dt} s steps"
            )
        if round(ticks) < 1:
            # A session with no gameplay tick logs its opening and closing
            # rows at t 0 and spawns nothing.
            raise ValueError(
                f"duration {self.duration} is shorter than one {self.dt} s step"
            )
        heart = self.heart
        # The heart-rate range, hr_max - hr_rest, must be positive.
        if not heart.hr_rest < heart.hr_max:
            raise ValueError(
                f"hr_rest must lie in (0, hr_max), got {heart.hr_rest} "
                f"with hr_max {heart.hr_max}"
            )
        if self.hr_setpoint > heart.hr_max:
            raise ValueError(
                f"hr_setpoint {self.hr_setpoint} is above hr_max {heart.hr_max}"
            )
        for name, tau in (("tau_rise", heart.tau_rise),
                          ("tau_decay", heart.tau_decay)):
            # A shorter time constant makes the Euler step overshoot its
            # target, and the clamp to [hr_rest, hr_max] hides it.
            if tau < self.dt:
                raise ValueError(f"heart {name} {tau} is below dt {self.dt}")
        # A NaN output also comes from finite gains when two of its terms
        # are infinite with opposite signs.  The integral term may be (a
        # negative ki has no anti-windup clamp), so the proportional and
        # derivative terms must stay finite.  The heart rate stays in
        # [hr_rest, hr_max] and the setpoint in (0, hr_max], both above 0,
        # so |error| is below hr_max and |Δerror| below twice that, which
        # also covers the rounding of the differences.
        kp, _, kd = self.pid_gains
        if not (math.isfinite(abs(kp) * heart.hr_max)
                and math.isfinite(abs(kd) * 2.0 * heart.hr_max / self.dt)):
            raise ValueError(
                f"pid_gains {self.pid_gains} overflow the controller output "
                f"for heart rates up to {heart.hr_max} at dt {self.dt}"
            )
        return payload


def config_digest(config: SessionConfig) -> str:
    """Hash of everything that shapes a run except the seed: every other
    field of the config, each leaf as ``playersim.read_field`` reads it
    (the payload ``validate`` returns), the controller's three under
    ``"pid"``, enums by value, and the log version.  Defined only for a
    valid config: raises ``validate``'s ``ValueError`` for any other."""
    payload = config.validate()
    del payload["seed"]
    payload["pid"] = {"enabled": payload.pop("pid_enabled"),
                      "gains": payload.pop("pid_gains"),
                      "setpoint": payload.pop("hr_setpoint")}
    payload["version"] = LOG_VERSION
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=lambda member: member.value)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# One %-format template per kind of log row, keys in the log's fixed
# order: floats at six decimals, ints in decimal, enum values quoted (none
# needs JSON escaping), and true, false and null written out.
_HEADER_ROW = ('{"type":"header","version":"' + LOG_VERSION
               + '","seed":%d,"config":"%s"}')
_PHASE_ROW = '{"type":"phase","t":%.6f,"phase":"%s","index":%d}'
_HR_ROW = ('{"type":"hr","t":%.6f,"hr":%.6f,"kcal":%.6f,"phase":"%s",'
           '"energy":%d,"empowered":%s}')
_SPAWN_ROW = ('{"type":"spawn","t":%.6f,"id":%d,"kind":"%s","lane":%.6f,'
              '"speed":%.6f}')
# "entity" is the destroyed virus's id, else null.
_JAB_ROW = ('{"type":"jab","t":%.6f,"hand":"%s","outcome":"%s","entity":%s,'
            '"speed":%.6f}')
_MISSED_ROW = '{"type":"cross","t":%.6f,"id":%d,"status":"missed"}'
_CELL_ROW = '{"type":"cross","t":%.6f,"id":%d,"status":"%s","pose":"%s"}'
_EMPOWER_START_ROW = ('{"type":"empower","t":%.6f,"action":"start",'
                      '"until":%.6f}')
_EMPOWER_END_ROW = '{"type":"empower","t":%.6f,"action":"end","until":null}'
_END_ROW = ('{"type":"end","t":%.6f,"viruses_spawned":%d,"cells_spawned":%d,'
            '"viruses_destroyed":%d,"viruses_missed":%d,"cells_avoided":%d,'
            '"cells_collided":%d,"wrong_hand_jabs":%d,"activations":%d}')

# The fields ``metrics_from_log`` reads, by row type: the string it counts
# the row by, or an ``hr`` row's two numbers.
_COUNTED = {"spawn": ("kind",), "jab": ("outcome",), "cross": ("status",),
            "empower": ("action",), "hr": ("hr", "kcal")}
# What each conversion of a template writes, as JSON: quoted, an enum
# value; bare, a value that depends on its key.
_FLOAT = r"-?(?:0|[1-9][0-9]*)\.[0-9]{6}"
_INT = r"-?(?:0|[1-9][0-9]*)"
_CONVERSIONS = {"%.6f": _FLOAT, "%d": _INT, '"%s"': '"[a-z_]+"'}
_BARE = {"entity": "null|" + _INT, "empowered": "true|false"}


def _row_pattern(templates: Sequence[str]) -> tuple[re.Pattern, tuple]:
    """One pattern for the lines ``templates`` write, and the row type of
    each group that holds a template whose row ``metrics_from_log``
    counts (None for any other group).

    Each template is a group of its own, which ``Match.lastindex``
    gives, since it closes last.  Inside it, the values of the row
    type's ``_COUNTED`` keys are captured in order, without quotes.
    Every line the pattern matches is a JSON object with the template's
    keys, and the values ``json.loads`` reads from it are the text
    captured, with the numbers as ``float`` reads them.
    """
    alternatives = []
    types: list[str | None] = [None]
    for template in templates:
        pairs = re.findall(r'"(\w+)":("[^"]*"|[^,}]*)', template)
        if "{%s}" % ",".join('"%s":%s' % pair for pair in pairs) != template:
            raise ValueError(f"not a flat JSON row template: {template!r}")
        row_type = pairs[0][1].strip('"')
        counted = _COUNTED.get(row_type, ())
        types.append(row_type if counted else None)
        values = []
        for key, written in pairs:
            if "%" not in written:
                value = re.escape(written)
            elif written == "%s":
                value = f"(?:{_BARE[key]})"
            else:
                value = _CONVERSIONS[written]
            if key in counted:
                types.append(None)
                value = (f'"({value[1:-1]})"' if value.startswith('"')
                         else f"({value})")
            values.append(f'"{key}":{value}')
        alternatives.append("(\\{%s\\})" % ",".join(values))
    return re.compile("|".join(alternatives)), tuple(types)


# Every row but the header, whose digest is no enum value.
_ROW_PATTERN, _ROW_TYPES = _row_pattern((
    _SPAWN_ROW, _JAB_ROW, _MISSED_ROW, _CELL_ROW, _HR_ROW, _PHASE_ROW,
    _EMPOWER_START_ROW, _EMPOWER_END_ROW, _END_ROW))

# The members the tick loop reads, bound once: reading a member off its
# class is slow in Python 3.11, as is ``.value``, so the rows read an
# enum member's value through ``_value_``, which the ``enum`` docs define.
_HIT_DESTROYED = HitKind.DESTROYED
_HIT_WRONG_HAND = HitKind.WRONG_HAND
_AVOIDED = CellOutcome.AVOIDED
_IN_FLIGHT = EntityStatus.IN_FLIGHT
_DESTROYED = EntityStatus.DESTROYED
_MISSED = EntityStatus.MISSED
_PASSED = EntityStatus.PASSED
_COLLIDED = EntityStatus.COLLIDED


class TraceRow(NamedTuple):
    """One ``hr`` row as the session ran it, for the summary and the CSV
    trace.

    A named tuple, so immutable and cheap to build.
    """

    t: float
    hr: float
    kcal: float
    phase: str
    energy: int
    empowered: bool


@dataclass(frozen=True)
class SessionResult:
    config: SessionConfig
    digest: str
    metrics: SummaryMetrics
    lines: tuple[str, ...]
    trace: tuple[TraceRow, ...]

    def write_log(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.lines) + "\n", encoding="utf-8")


def run_session(config: SessionConfig,
                log_path: str | Path | None = None) -> SessionResult:
    """Run one full session and return its metrics, log, and trace.
    Raises ``ValueError`` for a config that ``validate`` rejects."""
    digest = config_digest(config)
    dt = config.dt
    gameplay_ticks = round(config.duration / dt)
    ticks_per_second = max(1, round(1.0 / dt))

    (boundaries, hr_rows, kcal_rows, params, dues, clocks, crossings,
     order) = _plan(*_schedule_key(config))

    rng = random.Random(config.seed)
    world = WorldState()
    prog = ProgressionState()
    drain_cap = _drain_tick_cap(dt)
    player = SyntheticPlayer(
        config.profile, config.calibration, rng,
        dt=dt, policy=config.targeting,
        horizon=gameplay_ticks + drain_cap + 1,
    )
    hot = player.hot
    lead = player.lead
    left_track, right_track = player.tracks
    detector = JabDetector()
    judge = detector.judge

    lines: list[str] = [_HEADER_ROW % (config.seed, digest)]
    trace: list[TraceRow] = []
    # Spawn i is entity i.  Its position holds the world's first
    # ``stepped[i]`` steps: those before its spawn tick, until a jab
    # steps it on if it is a virus.
    entities: list = []
    stepped = array("l", dues)
    viruses_spawned = 0
    cells_spawned = 0

    pending = next_spawn(rng, 0.0, params[0])
    due = dues[0]
    spawned = 0
    crossed = 0
    next_cross = crossings[order[0]]
    expiry = -1
    # The end of the protocol, tick G = gameplay_ticks, is the last
    # boundary; the ticks after it drain the world.
    boundaries = iter(boundaries)
    next_boundary = next(boundaries)
    # The tick of the next hr row, and its index in the plan's rows.
    next_hr = hr_index = 0
    # Each hand's wake tick: after a fire, the hand is neither read nor
    # judged before it (see _wake_tick).
    left_wake = right_wake = 0

    for k in range(gameplay_ticks + drain_cap + 1):
        if k > gameplay_ticks and not world.in_flight:
            break
        t = k * dt
        if k == next_boundary:
            # The phase changes on each of these ticks before G, and
            # everything below that depends on the phase alone is fixed
            # until the next.
            phase = phase_at(t)
            kind = phase.kind
            lines.append(_PHASE_ROW % (t, kind._value_, phase.index))
            presses_a = "A" in player.buttons(kind)
            next_boundary = next(boundaries, -1)
        if k == next_hr:
            row = _new(TraceRow, (t, hr_rows[hr_index], kcal_rows[hr_index],
                                  kind._value_, prog.energy,
                                  is_empowered(prog, t)))
            trace.append(row)
            lines.append(_HR_ROW % (*row[:5],
                                    "true" if row.empowered else "false"))
            hr_index += 1
            if k == gameplay_ticks:
                # The end of the protocol, after its closing rows: the
                # drain, in which nothing spawns, no 1 Hz row is due and no
                # empowerment starts.
                kind = PhaseKind.ENDED
                due = -1
                presses_a = False
                continue  # v1 skips tick G: the drain starts at (G + 1) * dt
            # The plan's last row is the closing one, on tick G.
            next_hr = min(next_hr + ticks_per_second, gameplay_ticks)

        while due == k:
            world.sim_time = clocks[spawned]
            entity = world.spawn(pending.kind, pending.time,
                                 pending.lane_offset, pending.speed)
            entities.append(entity)
            if entity.kind in VIRUS_KINDS:
                viruses_spawned += 1
            else:
                cells_spawned += 1
            lines.append(_SPAWN_ROW % (pending.time, entity.id,
                                       entity.kind._value_,
                                       entity.lane_offset, entity.speed))
            player.observe_spawn(entity, k, prog.empowered_until)
            spawned += 1
            pending = next_spawn(rng, pending.time, params[spawned])
            due = dues[spawned]

        # Jab detection and resolution on a hot tick, for the hands it
        # marks, then the crossings the timeline puts on this tick.
        marks = hot[k]
        if marks:
            if k < left_wake:
                marks &= RIGHT_MARK
            if k < right_wake:
                marks &= LEFT_MARK
        if marks:
            # The first tick of the detector's window, as its history holds
            # it when fed every tick but G, and the tick fed before this.
            # The window's start is protocol.first_tick(horizon, dt): the
            # tick ``lead`` back or the one after it, as ``(lead - 1) * dt``
            # falls short of the window and ``(lead + 1) * dt`` passes it
            # by dt >= 0.001, far past the 1e-9 slack (the property
            # test_window_start_is_lead_back_or_one_after holds this).  It
            # is stepped inline: a call per judged tick costs more.
            horizon = t - VELOCITY_WINDOW - 1e-9
            j = k - lead if k > lead else 0
            if j * dt < horizon:
                j += 1
            if j == gameplay_ticks:
                j += 1
            elapsed = t - j * dt
            before = (k - 2 if k == gameplay_ticks + 1 else k - 1) * dt
            jabs = []
            if marks & LEFT_MARK:
                start, end = left_track.ends(j, k)
                jab = judge(0, t, before, elapsed, start, end)
                if jab is not None:
                    jabs.append(jab)
                    left_wake = _wake_tick(k, dt, gameplay_ticks)
            if marks & RIGHT_MARK:
                start, end = right_track.ends(j, k)
                jab = judge(1, t, before, elapsed, start, end)
                if jab is not None:
                    jabs.append(jab)
                    right_wake = _wake_tick(k, dt, gameplay_ticks)
            if jabs:
                # Step the virus positions the jabs read up to this tick:
                # the world has run k steps, one fewer in the drain.
                steps = k - 1 if k > gameplay_ticks else k
                for entity in world.in_flight:
                    if entity.kind in VIRUS_KINDS:
                        entity.position = _stepped(
                            entity.position, entity.speed, dt,
                            steps - stepped[entity.id])
                        stepped[entity.id] = steps
            for jab in jabs:
                result = resolve_jab(jab, world, config.targeting,
                                     is_empowered(prog, t))
                target_id = "null"
                hit, target = result
                if hit is _HIT_DESTROYED:
                    target_id = target.id
                    world.retire(target, _DESTROYED)
                    on_virus_destroyed(prog, t)
                elif hit is _HIT_WRONG_HAND:
                    on_wrong_hand(prog)
                lines.append(_JAB_ROW % (t, jab.hand._value_, hit._value_,
                                         target_id, jab.hand_speed))
        pose = None  # classified once, at the first cell of the tick
        while next_cross == k:
            i = order[crossed]
            entity = entities[i]
            entities[i] = None  # the list holds only what may still cross
            crossed += 1
            next_cross = crossings[order[crossed]]
            if entity.status is not _IN_FLIGHT:
                continue  # destroyed by a jab
            if entity.kind in VIRUS_KINDS:
                world.retire(entity, _MISSED)
                on_virus_missed(prog)
                lines.append(_MISSED_ROW % (t, entity.id))
                continue
            if pose is None:
                pose = classify_weave_pose(player.sample(k, kind),
                                           config.calibration)
            outcome = resolve_cell_pass(entity, pose)
            if outcome is _AVOIDED:
                world.retire(entity, _PASSED)
                on_cell_avoided(prog)
            else:
                world.retire(entity, _COLLIDED)
                on_cell_collided(prog)
            lines.append(_CELL_ROW % (t, entity.id, outcome._value_,
                                      pose._value_))

        # Each call only when it could act: with its guard false, the
        # callee would change nothing and report no event.
        if k == expiry and tick_empowerment(prog, t):
            lines.append(_EMPOWER_END_ROW % t)
        if (presses_a and prog.energy >= ENERGY_CAPACITY
                and activate_empowerment(prog, t, presses_a) is None):
            lines.append(_EMPOWER_START_ROW % (t, prog.empowered_until))
            expiry = _expiry_tick(prog.empowered_until, dt, gameplay_ticks)

    if world.in_flight:
        raise RuntimeError(
            f"{len(world.in_flight)} entities still in flight after drain"
        )

    metrics = summary(prog, viruses_spawned, cells_spawned, hr_rows,
                      kcal_rows[-1])
    # t is the last tick run, or G * dt when nothing was left in flight.
    lines.append(_END_ROW % (
        t, viruses_spawned, cells_spawned, metrics.viruses_destroyed,
        metrics.viruses_missed, metrics.cells_avoided, metrics.cells_collided,
        metrics.wrong_hand_jabs, metrics.activations,
    ))

    result = SessionResult(
        config=config,
        digest=digest,
        metrics=metrics,
        lines=tuple(lines),
        trace=tuple(trace),
    )
    if log_path is not None:
        result.write_log(log_path)
    return result


def iter_sessions(configs: Sequence[SessionConfig],
                  jobs: int = 1) -> Iterator[SessionResult]:
    """Run a batch of sessions, across up to ``jobs`` processes, and
    yield each result in config order.

    The pool starts all its workers at once, so it gets no more than
    there are sessions or cores.  Results do not depend on the count.
    Closing the generator early cancels the sessions not yet started.
    ``concurrent.futures`` is imported only when a pool starts, so a
    one-process run never loads ``multiprocessing``.
    """
    workers = min(jobs, len(configs), os.cpu_count() or 1)
    if workers <= 1:
        for config in configs:
            yield run_session(config)
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(run_session, configs)
    finally:
        pool.shutdown(cancel_futures=True)


def run_many(configs: Sequence[SessionConfig],
             jobs: int = 1) -> list[SessionResult]:
    """Every result of ``iter_sessions``, in config order."""
    return list(iter_sessions(configs, jobs))


def _counted_fields(line: str, number: int) -> tuple[str | None, tuple]:
    """The row type and ``_COUNTED`` fields of log line ``number``, read
    with ``json.loads``; no type for a row ``metrics_from_log`` does not
    count."""
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError(f"log line {number} is not a JSON object")
    row_type = row.get("type")
    keys = _COUNTED.get(row_type) if isinstance(row_type, str) else None
    if keys is None:
        return None, ()
    fields = []
    for key in keys:
        if key not in row:
            raise ValueError(f"log line {number}: {row_type} row has no {key!r}")
        value = row[key]
        if row_type == "hr":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"log line {number}: hr row's {key!r} is "
                                 f"{value!r}, not a number")
        elif not isinstance(value, str):
            raise ValueError(f"log line {number}: {row_type} row's {key!r} is "
                             f"{value!r}, not a string")
        fields.append(value)
    return row_type, tuple(fields)


def metrics_from_log(lines: Iterable[str]) -> SummaryMetrics:
    """Rebuild the session metrics purely from a replay log.

    Counts events into a ``ProgressionState`` and folds it, with the
    ``hr`` rows, through ``SummaryMetrics.of``, as the runner's
    ``summary`` does, so a faithful log reproduces the reported metrics.

    A line as one of the writer's templates writes it is read off
    ``_ROW_PATTERN``'s groups, with ``float`` for the numbers, as
    ``json.loads`` would read them; any other line, such as a hand-edited
    one, is read with ``json.loads``.  Invalid JSON raises
    ``json.JSONDecodeError`` whose ``lineno`` is the log's line, from 1,
    and whose ``colno`` is the column in that line; a line that is not an
    object, or a counted row whose field is missing or of the wrong type,
    raises ``ValueError`` naming the line, from 1.
    """
    fullmatch = _ROW_PATTERN.fullmatch
    row_types = _ROW_TYPES
    # Rows by (row type, the string counted), from either read path.
    counts: dict[tuple[str, str], int] = {}
    hr_values: list[float] = []
    kcal_last: float | None = None
    for number, raw in enumerate(lines, 1):
        # A template row has no blanks around it, so stripping leaves it
        # as it is: ``str.strip`` hands back the same string.
        line = raw.strip()
        if not line:
            continue
        match = fullmatch(line)
        if match is None:
            try:
                row_type, fields = _counted_fields(line, number)
            except json.JSONDecodeError as exc:
                # The same error at its place in the log: as if the line,
                # with the blanks stripped off its start, came after
                # ``number - 1`` newlines.
                lead = len(raw) - len(raw.lstrip())
                raise json.JSONDecodeError(
                    exc.msg, "\n" * (number - 1) + " " * lead + line,
                    number - 1 + lead + exc.pos) from None
            if row_type == "hr":
                hr_values.append(fields[0])
                kcal_last = fields[1]
            elif row_type is not None:
                key = row_type, fields[0]
                counts[key] = counts.get(key, 0) + 1
            continue
        group = match.lastindex
        row_type = row_types[group]
        if row_type == "hr":
            hr_values.append(float(match[group + 1]))
            kcal_last = float(match[group + 2])
        elif row_type is not None:
            key = row_type, match[group + 1]
            counts[key] = counts.get(key, 0) + 1
    spawned = {kind: n for (row_type, kind), n in counts.items()
               if row_type == "spawn"}
    viruses_spawned = sum(n for kind, n in spawned.items()
                          if kind.endswith("_virus"))
    cells_spawned = sum(spawned.values()) - viruses_spawned
    get = counts.get
    state = ProgressionState(
        viruses_destroyed=get(("jab", "destroyed"), 0),
        viruses_missed=get(("cross", "missed"), 0),
        cells_avoided=get(("cross", "avoided"), 0),
        cells_collided=get(("cross", "collided"), 0),
        wrong_hand_jabs=get(("jab", "wrong_hand"), 0),
        activations=get(("empower", "start"), 0),
    )
    return SummaryMetrics.of(state, viruses_spawned, cells_spawned,
                             hr_values, kcal_last)


class HeaderMismatchError(Exception):
    """The log was produced under a different seed or configuration."""


@dataclass(frozen=True)
class ReplayReport:
    """``lines_checked`` counts the log rows compared, and
    ``divergence_line`` numbers the first row that differs by its line in
    the source, blank lines counted."""

    ok: bool
    lines_checked: int
    divergence_line: int | None = None
    expected: str | None = None
    actual: str | None = None


def read_header(line: str) -> dict:
    """The header row ``line`` holds: a JSON object of type ``"header"``
    and of this ``LOG_VERSION``, whose seed is a JSON integer.  Raises
    ``HeaderMismatchError`` for any other line."""
    try:
        header = json.loads(line)
    except ValueError as exc:  # an integer past json's digit limit too
        raise HeaderMismatchError(f"unparseable header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("type") != "header":
        raise HeaderMismatchError("first line is not a header row")
    if header.get("version") != LOG_VERSION:
        raise HeaderMismatchError(
            f"log version {header.get('version')!r}, expected {LOG_VERSION!r}"
        )
    # A JSON true or 1.0 equals the seed 1, but no log v1 writes it.
    if type(header.get("seed")) is not int:
        raise HeaderMismatchError(
            f"header seed must be an integer, got {header.get('seed')!r}")
    return header


def _load_lines(source: str | Path | Iterable[str]) -> list[tuple[int, str]]:
    """Each line of ``source`` that is not blank, its end stripped, with
    its number in the source, blank lines counted: a file's lines as
    Python reads them, or an iterable's items."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_text(encoding="utf-8").split("\n")
    # An iterable's lines keep their ends, "\r\n" included.
    return [(number, line.rstrip("\r\n"))
            for number, line in enumerate(source, 1) if line.strip()]


def replay_verify(source: str | Path | Iterable[str],
                  config: SessionConfig) -> ReplayReport:
    """Re-run the session for ``config`` and compare against a saved log.

    Raises HeaderMismatchError when the log does not even claim to come
    from this seed and configuration, and ValueError for a config that
    ``validate`` rejects; otherwise reports the first diverging line, if
    any.  Blank lines are skipped, and line ends are not compared, so a
    log with CRLF ends or blank lines between its rows still matches.
    """
    try:
        recorded = _load_lines(source)
    except UnicodeDecodeError as exc:
        raise HeaderMismatchError(f"log is not UTF-8 text: {exc}") from exc
    if not recorded:
        raise HeaderMismatchError("log is empty")
    header = read_header(recorded[0][1])
    if header["seed"] != config.seed:
        raise HeaderMismatchError(
            f"log seed {header['seed']!r}, expected {config.seed}")
    expected_digest = config_digest(config)
    if header.get("config") != expected_digest:
        raise HeaderMismatchError(
            f"log config digest {header.get('config')!r} does not match "
            f"{expected_digest!r}"
        )
    fresh = run_session(config).lines
    for i, (want, (number, got)) in enumerate(zip(fresh, recorded)):
        if want != got:
            return ReplayReport(False, i + 1, divergence_line=number,
                                expected=want, actual=got)
    if len(fresh) != len(recorded):
        short = min(len(fresh), len(recorded))
        if short < len(recorded):
            number, actual = recorded[short]
        else:
            number, actual = recorded[-1][0] + 1, "<end of log>"
        return ReplayReport(
            False, short, divergence_line=number,
            expected=fresh[short] if short < len(fresh) else "<end of log>",
            actual=actual,
        )
    return ReplayReport(True, len(fresh))
