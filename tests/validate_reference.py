"""``PlayerProfile.validate`` and ``SessionConfig.validate`` with every
bound written out by hand, frozen as a reference.

``reference_profile_validate`` and ``reference_config_validate`` are the
two methods as they stood while each single-field bound was a check of
its own.  The live methods check those bounds by one walk over the
intervals the fields declare; ``tests/test_config_properties.py``
requires both to reject the same configs, but for the exceptions it
names.

Never change this file to follow the live checks: its worth is that
each bound is spelt out as it was.
"""
from __future__ import annotations

import math

from virusboxing.interaction import VELOCITY_WINDOW
from virusboxing.playersim import PlayerProfile
from virusboxing.protocol import SESSION_DURATION
from virusboxing.session import _MAX_FLIGHT_SECONDS, SessionConfig


def reference_profile_validate(self: PlayerProfile) -> None:
    for label, value in (("reaction_time", self.reaction_time),
                         ("punch_speed_mean", self.punch_speed_mean),
                         ("punch_speed_sd", self.punch_speed_sd),
                         ("aim_error_sd", self.aim_error_sd)):
        if not math.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value}")
    if self.reaction_time < 0:
        raise ValueError(f"reaction_time must be >= 0, got {self.reaction_time}")
    if self.punch_speed_mean < 0 or self.punch_speed_sd < 0:
        raise ValueError("punch speed mean and sd must be >= 0")
    if self.aim_error_sd < 0:
        raise ValueError(f"aim_error_sd must be >= 0, got {self.aim_error_sd}")
    for label, p in (
        ("correct_hand_prob", self.correct_hand_prob),
        ("weave_reliability", self.weave_reliability),
    ):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{label} must lie in [0, 1], got {p}")
    if not 0.0 < self.effort <= 1.0:
        raise ValueError(f"effort must lie in (0, 1], got {self.effort}")


def reference_config_validate(self: SessionConfig) -> None:
    if isinstance(self.seed, bool) or not isinstance(self.seed, int):
        # The header writes the seed with %d: seed 1.5 would run on
        # random.Random(1.5) under the header of seed 1.
        raise ValueError(f"seed must be an integer, got {self.seed!r}")
    if self.seed < 0:
        # random.Random seeds by absolute value: seed -3 would replay
        # seed 3 under another header.
        raise ValueError(f"seed must be non-negative, got {self.seed}")
    reference_profile_validate(self.profile)
    if self.profile.reaction_time >= _MAX_FLIGHT_SECONDS:
        # Every virus would cross before the player could strike it.
        raise ValueError(
            f"reaction_time {self.profile.reaction_time} is not below "
            f"the longest flight, {_MAX_FLIGHT_SECONDS:.6g} s"
        )
    if not self.dt > 0.0:  # NaN too
        raise ValueError(f"dt must be positive, got {self.dt}")
    if self.dt > VELOCITY_WINDOW + 1e-9:
        # The jab detector's window would never hold two samples, so
        # no jab could fire.
        raise ValueError(
            f"dt {self.dt} is longer than the {VELOCITY_WINDOW} s jab "
            f"velocity window"
        )
    if not 0.0 < self.duration <= SESSION_DURATION:
        # The protocol has no phase after its end to spawn from.
        raise ValueError(
            f"duration must lie in (0, {SESSION_DURATION}], got {self.duration}"
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
    for label, value in (("hr_rest", heart.hr_rest), ("hr_max", heart.hr_max),
                         ("tau_rise", heart.tau_rise),
                         ("tau_decay", heart.tau_decay)):
        if not math.isfinite(value):
            raise ValueError(f"heart {label} must be finite, got {value}")
    if heart.tau_rise <= 0.0 or heart.tau_decay <= 0.0:
        raise ValueError(
            f"heart time constants must be positive, got tau_rise "
            f"{heart.tau_rise} and tau_decay {heart.tau_decay}"
        )
    # Which also keeps the heart-rate range, hr_max - hr_rest, finite.
    if not 0.0 < heart.hr_rest < heart.hr_max:
        raise ValueError(
            f"hr_rest must lie in (0, hr_max), got {heart.hr_rest} "
            f"with hr_max {heart.hr_max}"
        )
    if not math.isfinite(self.hr_setpoint) or self.hr_setpoint <= 0.0:
        raise ValueError(
            f"hr_setpoint must be positive and finite, got {self.hr_setpoint}"
        )
    if self.hr_setpoint > heart.hr_max:
        raise ValueError(
            f"hr_setpoint {self.hr_setpoint} is above hr_max {heart.hr_max}"
        )
    # Outside these bounds, NaN and the infinities included, the poses
    # the player holds classify as other poses, so the cells' outcomes
    # mean nothing.
    calibration = self.calibration
    for label, value, high in (
            ("standing_head_height", calibration.standing_head_height,
             math.inf),
            ("squat_ratio", calibration.squat_ratio, 1.0)):
        if not 0.0 < value < high:
            raise ValueError(f"calibration {label} must lie in "
                             f"(0, {high}), got {value}")
    if not 0.0 <= calibration.lean_threshold < math.inf:
        raise ValueError(f"calibration lean_threshold must be finite and "
                         f"non-negative, got {calibration.lean_threshold}")
    gains = self.pid_gains
    # A bool gain would run as 1 or 0 under a digest that writes true
    # or false.
    if not (isinstance(gains, (tuple, list)) and len(gains) == 3
            and all(isinstance(gain, (int, float))
                    and not isinstance(gain, bool) for gain in gains)):
        raise ValueError(
            f"pid_gains must be three numbers (kp, ki, kd), got "
            f"{gains!r}")
    try:
        finite = all(math.isfinite(gain) for gain in gains)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        # A NaN output clamps to full slow-down without a word.
        raise ValueError(f"pid_gains must be finite, got {gains}")
    # So can finite gains: an output is NaN when two of its terms are
    # infinite with opposite signs.  The integral term may be (a
    # negative ki has no anti-windup clamp), so the proportional and
    # derivative terms must stay finite.  The heart rate stays in
    # [hr_rest, hr_max] and the setpoint in (0, hr_max], both above 0,
    # so |error| is below hr_max and |Δerror| below twice that, which
    # also covers the rounding of the differences.
    kp, _, kd = gains
    if not (math.isfinite(abs(kp) * heart.hr_max)
            and math.isfinite(abs(kd) * 2.0 * heart.hr_max / self.dt)):
        raise ValueError(
            f"pid_gains {gains} overflow the controller output "
            f"for heart rates up to {heart.hr_max} at dt {self.dt}"
        )
