"""The config digest with its payload written out field by field, frozen
as a reference.

``reference_digest`` is ``virusboxing.session.config_digest`` as it stood
while its payload, and the profile's part of it, listed every field by
hand.  The live digest builds the same payload from the config's own
fields; ``tests/test_config_properties.py`` requires the same digest from
both on every drawn config.

Never change this file to follow the live digest: its worth is that each
field is spelt out.  It changes only with ``LOG_VERSION``, when every
digest does.
"""
from __future__ import annotations

import hashlib
import json

from virusboxing.session import LOG_VERSION, SessionConfig


def reference_digest(config: SessionConfig) -> str:
    """Hash of everything that shapes a run except the seed."""
    profile = config.profile
    payload = {
        "version": LOG_VERSION,
        "dt": config.dt,
        "duration": config.duration,
        "profile": {
            "name": profile.name,
            "reaction_time": profile.reaction_time,
            "punch_speed_mean": profile.punch_speed_mean,
            "punch_speed_sd": profile.punch_speed_sd,
            "aim_error_sd": profile.aim_error_sd,
            "correct_hand_prob": profile.correct_hand_prob,
            "weave_reliability": profile.weave_reliability,
            "empower_policy": profile.empower_policy.value,
            "effort": profile.effort,
        },
        "targeting": {
            "mode": config.targeting.mode.value,
            "range": config.targeting.range.value,
        },
        "heart": {
            "hr_rest": config.heart.hr_rest,
            "hr_max": config.heart.hr_max,
            "tau_rise": config.heart.tau_rise,
            "tau_decay": config.heart.tau_decay,
        },
        "pid": {
            "enabled": config.pid_enabled,
            "gains": list(config.pid_gains),
            "setpoint": config.hr_setpoint,
        },
        "calibration": {
            "standing_head_height": config.calibration.standing_head_height,
            "squat_ratio": config.calibration.squat_ratio,
            "lean_threshold": config.calibration.lean_threshold,
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
