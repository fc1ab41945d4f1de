"""First-order heart-rate response, calorie burn, and PID intensity control.

Heart rate relaxes toward an intensity-scaled target between resting and
maximum rate, rising faster than it recovers.  The PID loop closes over
one difficulty scale: a positive error (heart rate below setpoint) raises
it, which speeds up spawn cadence and entity speed alike and feeds back
into exercise intensity.

These step functions are the reference for the session's plan:
``session._plan``'s one pass over the ticks writes
``PidController.step``, ``apply_modulation``, ``kcal_step`` and
``hr_step`` out on local floats, and ``tests/test_control_schedule.py``
holds it to a loop that calls them, byte for byte.  A change here must
be made there too.
"""
from __future__ import annotations

from dataclasses import dataclass

from .protocol import PhaseKind

__all__ = [
    "LOW_INTENSITY_FACTOR",
    "KCAL_PER_BPM_SECOND",
    "HeartRateParams",
    "HEART_PRESETS",
    "PhysioState",
    "PidController",
    "DEFAULT_PID_GAINS",
    "intensity_of",
    "modulated_intensity",
    "hr_step",
    "kcal_step",
    "apply_modulation",
]

# Fraction of the player's effort demanded outside sprint blocks.
LOW_INTENSITY_FACTOR = 0.45

# Calibrated so a 126 bpm session average over the 420 s protocol burns
# 44 kcal, matching playtest telemetry for both reference players.
KCAL_PER_BPM_SECOND = 44.0 / (126.0 * 420.0)


@dataclass(frozen=True)
class HeartRateParams:
    hr_rest: float
    hr_max: float
    tau_rise: float = 30.0
    tau_decay: float = 60.0


HEART_PRESETS = {
    "regular": HeartRateParams(hr_rest=60.0, hr_max=190.0),
    "sedentary": HeartRateParams(hr_rest=70.0, hr_max=195.0),
}


@dataclass(slots=True)
class PhysioState:
    hr: float
    kcal: float = 0.0


def intensity_of(phase_kind: PhaseKind, effort: float) -> float:
    """Relative exercise intensity in [0, 1] for a phase at given effort."""
    if not 0.0 <= effort <= 1.0:
        raise ValueError(f"effort must lie in [0, 1], got {effort}")
    if phase_kind is PhaseKind.SPRINT:
        return effort
    if phase_kind is PhaseKind.ENDED:
        return 0.0
    return LOW_INTENSITY_FACTOR * effort


def modulated_intensity(phase_kind: PhaseKind, effort: float,
                        scale: float = 1.0) -> float:
    """Intensity after difficulty scaling; a faster game works harder.

    The scale is the demand knob: it multiplies intensity, capped at full
    effort, which is what lets the PID loop actually move heart rate.
    """
    return min(1.0, intensity_of(phase_kind, effort) * scale)


def hr_step(state: PhysioState, intensity: float, params: HeartRateParams,
            dt: float) -> None:
    """One Euler step of first-order relaxation toward the intensity target."""
    target = params.hr_rest + intensity * (params.hr_max - params.hr_rest)
    tau = params.tau_rise if target > state.hr else params.tau_decay
    state.hr += dt * (target - state.hr) / tau
    state.hr = min(params.hr_max, max(params.hr_rest, state.hr))


def kcal_step(state: PhysioState, dt: float) -> None:
    """Accumulate energy expenditure proportional to heart rate."""
    state.kcal += KCAL_PER_BPM_SECOND * state.hr * dt


# Gains tuned against the default regular-exerciser plant so a 150 bpm
# setpoint settles inside a sprint window without modulation windup.
DEFAULT_PID_GAINS = (0.06, 0.005, 0.0)


@dataclass
class PidController:
    kp: float
    ki: float = 0.0
    kd: float = 0.0
    integral: float = 0.0
    prev_error: float = 0.0

    def step(self, setpoint: float, measured: float, dt: float) -> float:
        """One control update, clamped to [-1, 1], the range
        ``apply_modulation`` reads.  The integral is clamped so the
        integral term alone can never push the output past it
        (anti-windup)."""
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        error = setpoint - measured
        self.integral += error * dt
        if self.ki > 0.0:
            self.integral = min(1.0 / self.ki, max(-1.0 / self.ki, self.integral))
        derivative = (error - self.prev_error) / dt
        self.prev_error = error
        u = self.kp * error + self.ki * self.integral + self.kd * derivative
        return min(1.0, max(-1.0, u))


def apply_modulation(u: float) -> float:
    """Map a control signal to the difficulty scale: ``2 ** u``, with
    ``u`` clamped to [-1, 1].

    Zero is the identity; the scale saturates at double speed/cadence for
    u >= +1 and at half for u <= -1, so the closed loop stays bounded
    whatever the gains.
    """
    return 2.0 ** min(1.0, max(-1.0, u))
