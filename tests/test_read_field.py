"""``playersim.read_field``: the one rule for what a config field's
declared type accepts, which the JSON readers, the CLI's keys and
``check_bounds``, the walk that checks a config and builds its digest's
payload, all read through."""
from __future__ import annotations

import json

import pytest
from hypothesis import given

from test_config_properties import session_configs
from virusboxing.interaction import Calibration, TargetingMode, TargetingPolicy
from virusboxing.physiology import HeartRateParams
from virusboxing.playersim import (
    EmpowerPolicy,
    PlayerProfile,
    check_bounds,
    read_field,
    read_json_object,
)
from virusboxing.session import SessionConfig

# Each part of the config that a JSON object may hold, by its field.
PARTS = {"profile": PlayerProfile, "heart": HeartRateParams,
         "calibration": Calibration, "targeting": TargetingPolicy}


@pytest.mark.parametrize("cls, name, value, read", [
    (SessionConfig, "hr_setpoint", 150, 150.0),
    (SessionConfig, "hr_setpoint", 150.5, 150.5),
    (SessionConfig, "pid_gains", (1, 0.005, 0), (1.0, 0.005, 0.0)),
    (SessionConfig, "seed", 7, 7),
    (SessionConfig, "pid_enabled", False, False),
    (PlayerProfile, "name", "drawn", "drawn"),
    (PlayerProfile, "empower_policy", EmpowerPolicy.NEVER, EmpowerPolicy.NEVER),
])
def test_a_value_of_the_declared_type_is_read(cls, name, value, read) -> None:
    got = read_field(cls, name, value, name)
    assert repr(got) == repr(read)


@pytest.mark.parametrize("cls, name, value", [
    # A bool is no number, and an int past the float range no float.
    (SessionConfig, "hr_setpoint", True),
    (SessionConfig, "hr_setpoint", "150"),
    pytest.param(SessionConfig, "hr_setpoint", 10**400, id="10**400"),
    # A list cannot be hashed in a frozen config.
    (SessionConfig, "pid_gains", [0.06, 0.005, 0.0]),
    (SessionConfig, "pid_gains", (0.06, 0.005)),
    (SessionConfig, "pid_gains", (0.06, False, 0.0)),
    (SessionConfig, "pid_gains", 5),
    (SessionConfig, "seed", 1.0),
    (SessionConfig, "seed", True),
    (SessionConfig, "pid_enabled", 1),
    (PlayerProfile, "name", None),
    # An enum field takes a member, not its value.
    (PlayerProfile, "empower_policy", "never"),
    (TargetingPolicy, "mode", TargetingMode.PRECISE.value),
])
def test_any_other_value_is_rejected_by_its_name(cls, name, value) -> None:
    with pytest.raises(ValueError, match="^config key 'x' "):
        read_field(cls, name, value, "config key 'x'")


@given(config=session_configs())
def test_the_payload_reads_back(config: SessionConfig) -> None:
    # Each part, written as the digest writes it and read back as a JSON
    # file is, is the part it was.
    payload = check_bounds(config)
    for name, cls in PARTS.items():
        text = json.dumps(payload[name], default=lambda member: member.value)
        assert read_json_object(cls, json.loads(text), name) == getattr(
            config, name)
    # read_field takes what check_bounds wrote, unchanged.
    for cls, values in ((SessionConfig, payload),
                        *((cls, payload[name]) for name, cls in PARTS.items())):
        for name, value in values.items():
            if not isinstance(value, dict):
                assert repr(read_field(cls, name, value, name)) == repr(value)
