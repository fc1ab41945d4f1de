"""The per-tick session loop, frozen as a reference for the gated one.

``run_session_per_tick`` is ``virusboxing.session.run_session`` as it
stood before the loop learnt to skip ticks: it samples the player and
feeds the jab detector on every tick, gameplay and drain alike.  The
differential tests run it beside ``run_session`` and require the same
log, line for line, so every shortcut the live loop takes is checked
against the plain computation.

Never optimise this file, and never change it to follow the live loop:
its worth is that it does the obvious thing on every tick.  It calls
the same stage functions as the live loop, so only the loop's own
choices (which ticks sample, which ticks feed the detector) are under
test.

``control_schedule_per_tick`` is ``virusboxing.session._control_schedule``
as it stood before its loop was written out on local floats: it calls
``PidController.step``, ``apply_modulation``, ``kcal_step`` and
``hr_step`` on every tick.  ``run_session_per_tick`` reads its controls
and 1 Hz rows from it, and ``tests/test_control_schedule.py`` holds the
live schedule to it byte for byte.
"""
from __future__ import annotations

import functools
import random
from array import array
from dataclasses import replace
from pathlib import Path

from virusboxing.interaction import (
    CellOutcome,
    HitKind,
    JabDetector,
    classify_weave_pose,
    resolve_cell_pass,
    resolve_jab,
)
from virusboxing.physiology import (
    HeartRateParams,
    PhysioState,
    PidController,
    apply_modulation,
    hr_step,
    kcal_step,
    modulated_intensity,
)
from virusboxing.playersim import SyntheticPlayer
from virusboxing.progression import (
    ENERGY_CAPACITY,
    ProgressionState,
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
from virusboxing.protocol import (
    PhaseKind,
    next_spawn,
    phase_at,
    phase_boundary_ticks,
    spawn_params,
)
from virusboxing.session import (
    _CELL_ROW,
    _EMPOWER_END_ROW,
    _EMPOWER_START_ROW,
    _END_ROW,
    _HEADER_ROW,
    _HR_ROW,
    _JAB_ROW,
    _MISSED_ROW,
    _PHASE_ROW,
    _SPAWN_ROW,
    SessionConfig,
    SessionResult,
    TraceRow,
    _drain_tick_cap,
    config_digest,
)
from virusboxing.world import EntityStatus, WorldState, advance


@functools.lru_cache(maxsize=16)
def control_schedule_per_tick(effort: float, heart: HeartRateParams,
                              pid_gains: tuple[float, float, float] | None,
                              setpoint: float, dt: float,
                              gameplay_ticks: int,
                              ) -> tuple[array, dict[int, int], array, array]:
    """``(controls, shifts, hr, kcal)`` of one config, one call per stage
    per tick; the arguments and results are ``_control_schedule``'s."""
    ticks_per_second = max(1, round(1.0 / dt))
    physio = PhysioState(hr=heart.hr_rest)
    pid = None
    if pid_gains is not None:
        kp, ki, kd = pid_gains
        pid = PidController(kp=kp, ki=ki, kd=kd)
    controls = array("d")
    shifts: dict[int, int] = {}
    hr = array("d")
    kcal = array("d")
    boundaries = iter(phase_boundary_ticks(dt))
    next_boundary = next(boundaries)
    for k in range(gameplay_ticks):
        if k == next_boundary:
            kind = phase_at(k * dt).kind
            controlled = pid is not None and kind is PhaseKind.SPRINT
            if controlled:
                shifts[k] = len(controls) - k
            intensity = modulated_intensity(kind, effort)
            next_boundary = next(boundaries, -1)
        if k % ticks_per_second == 0:
            hr.append(round(physio.hr, 6))
            kcal.append(round(physio.kcal, 6))
        if controlled:
            control = pid.step(setpoint, physio.hr, dt)
            controls.append(control)
            scale = apply_modulation(control)
        else:
            scale = 1.0
        kcal_step(physio, dt)
        # modulated_intensity(kind, effort, scale), with the phase part
        # computed once per phase.
        hr_step(physio, min(1.0, intensity * scale), heart, dt)
    hr.append(round(physio.hr, 6))
    kcal.append(round(physio.kcal, 6))
    return controls, shifts, hr, kcal


def run_session_per_tick(config: SessionConfig,
                          log_path: str | Path | None = None) -> SessionResult:
    """Run one full session and return its metrics, log, and trace."""
    config.validate()
    dt = config.dt
    gameplay_ticks = round(config.duration / dt)
    ticks_per_second = max(1, round(1.0 / dt))

    controls, control_shifts, hr_rows, kcal_rows = control_schedule_per_tick(
        config.profile.effort, config.heart,
        tuple(config.pid_gains) if config.pid_enabled else None,
        config.hr_setpoint, dt, gameplay_ticks,
    )

    rng = random.Random(config.seed)
    world = WorldState()
    prog = ProgressionState()
    player = SyntheticPlayer(
        config.profile, config.calibration, rng,
        dt=dt, policy=config.targeting,
    )
    detector = JabDetector()

    digest = config_digest(config)
    lines: list[str] = [_HEADER_ROW % (config.seed, digest)]
    trace: list[TraceRow] = []
    viruses_spawned = 0
    cells_spawned = 0

    def log_hr(t: float, phase_kind: PhaseKind, index: int) -> None:
        """The ``hr`` row with the schedule's values at row ``index``."""
        hr_now = hr_rows[index]
        kcal_now = kcal_rows[index]
        row = TraceRow(t, hr_now, kcal_now, phase_kind.value,
                       prog.energy, is_empowered(prog, t))
        trace.append(row)
        lines.append(_HR_ROW % (t, hr_now, kcal_now, row.phase, row.energy,
                                "true" if row.empowered else "false"))

    def log_phase(t: float, kind: PhaseKind, index: int) -> None:
        lines.append(_PHASE_ROW % (t, kind.value, index))

    def resolve_crossings(crossings, sample, t: float) -> None:
        pose = None  # classified once, at the first cell of the tick
        for entity in crossings:
            if entity.is_virus:
                world.retire(entity, EntityStatus.MISSED)
                on_virus_missed(prog)
                lines.append(_MISSED_ROW % (t, entity.id))
                continue
            if pose is None:
                pose = classify_weave_pose(sample, config.calibration)
            outcome = resolve_cell_pass(entity, pose)
            if outcome is CellOutcome.AVOIDED:
                world.retire(entity, EntityStatus.PASSED)
                on_cell_avoided(prog)
            else:
                world.retire(entity, EntityStatus.COLLIDED)
                on_cell_collided(prog)
            lines.append(_CELL_ROW % (t, entity.id, outcome.value, pose.value))

    def resolve_jabs(jabs, t: float) -> None:
        for jab in jabs:
            empowered = is_empowered(prog, t)
            result = resolve_jab(jab, world, config.targeting, empowered)
            target_id = "null"
            if result.kind is HitKind.DESTROYED:
                target_id = result.target.id
                world.retire(result.target, EntityStatus.DESTROYED)
                on_virus_destroyed(prog, t)
            elif result.kind is HitKind.WRONG_HAND:
                on_wrong_hand(prog)
            lines.append(_JAB_ROW % (t, jab.hand.value, result.kind.value,
                                     target_id, jab.hand_speed))

    def interact(sample, t: float) -> None:
        """Jab resolution, then world advance with crossing resolution."""
        jabs = detector.update(sample)
        if jabs:
            resolve_jabs(jabs, t)
        crossings = advance(world, dt)
        if crossings:
            resolve_crossings(crossings, sample, t)

    phase = phase_at(0.0)
    log_phase(0.0, phase.kind, phase.index)
    pending = next_spawn(rng, 0.0, spawn_params(phase))
    boundaries = iter(phase_boundary_ticks(dt))
    next_boundary = next(boundaries)

    for k in range(gameplay_ticks):
        t = k * dt
        if k == next_boundary:
            # The phase can change only on these ticks, and everything
            # below that depends on the phase alone is fixed until the next.
            current = phase_at(t)
            if (current.kind, current.index) != (phase.kind, phase.index):
                log_phase(t, current.kind, current.index)
            phase = current
            kind = phase.kind
            # None outside the controller's phases.
            control_shift = control_shifts.get(k)
            next_boundary = next(boundaries, -1)
        if k % ticks_per_second == 0:
            log_hr(t, kind, k // ticks_per_second)

        if pending.time <= t + 1e-9:
            # Only spawns read the difficulty scale; build it for them.
            scale = 1.0
            if control_shift is not None:
                scale = apply_modulation(controls[k + control_shift])
            while pending.time <= t + 1e-9:
                entity = world.spawn(pending.kind, pending.time,
                                     pending.lane_offset, pending.speed)
                if entity.is_virus:
                    viruses_spawned += 1
                else:
                    cells_spawned += 1
                lines.append(_SPAWN_ROW % (pending.time, entity.id,
                                           entity.kind.value,
                                           entity.lane_offset, entity.speed))
                player.observe_spawn(entity, k, prog.empowered_until)
                pending = next_spawn(rng, pending.time,
                                     spawn_params(phase, scale))

        sample = player.sample(k, kind)
        interact(sample, t)

        # Each call only when it could act: with its guard false, the
        # callee would change nothing and report no event.
        if prog.empowered_until is not None and tick_empowerment(prog, t):
            lines.append(_EMPOWER_END_ROW % t)
        if (prog.energy >= ENERGY_CAPACITY
                and activate_empowerment(prog, t, "A" in sample.buttons) is None):
            lines.append(_EMPOWER_START_ROW % (t, prog.empowered_until))

    t_end = gameplay_ticks * dt
    phase = phase_at(t_end)
    log_phase(t_end, phase.kind, phase.index)
    log_hr(t_end, phase.kind, -1)

    # Flush the remaining traffic so every entity reaches a terminal
    # state.  The protocol is over: nothing spawns, physiology and the
    # controller are frozen, and no empowerment can start.
    k = gameplay_ticks
    t_final = t_end
    drain_end = gameplay_ticks + _drain_tick_cap(dt)
    while world.in_flight and k < drain_end:
        k += 1
        t_final = k * dt
        interact(player.sample(k, PhaseKind.ENDED), t_final)
        if (prog.empowered_until is not None
                and tick_empowerment(prog, t_final)):
            lines.append(_EMPOWER_END_ROW % t_final)
    if world.in_flight:
        raise RuntimeError(
            f"{len(world.in_flight)} entities still in flight after drain"
        )

    base = summary(prog, viruses_spawned, cells_spawned)
    hr_values = [row.hr for row in trace]
    metrics = replace(
        base,
        avg_hr=round(sum(hr_values) / len(hr_values), 6),
        max_hr=max(hr_values),
        kcal=trace[-1].kcal,
    )
    lines.append(_END_ROW % (
        t_final, viruses_spawned, cells_spawned, metrics.viruses_destroyed,
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
