"""The CLI's settings path: each session flag given lies over its
config-file key, and each key set by neither takes ``SessionConfig``'s
declared default.  No session runs here, so the property is cheap enough
to run at the Hypothesis ``ci`` profile's examples."""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from virusboxing import cli
from virusboxing.interaction import TargetingMode, TargetingPolicy, TargetingRange
from virusboxing.physiology import DEFAULT_PID_GAINS, HEART_PRESETS
from virusboxing.playersim import builtin_profiles, load_profile
from virusboxing.session import DEFAULT_SETPOINT, SessionConfig

# Every heart preset's hr_max is at least this, so any setpoint up to it
# is valid with any preset.
MAX_SETPOINT = min(heart.hr_max for heart in HEART_PRESETS.values())

# Each key's valid values, the CLI's defaults among them, as a config
# file holds them.
VALUES = {
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    "profile": st.sampled_from(builtin_profiles()),
    "targeting": st.sampled_from(["pt", "rt"]),
    "range": st.sampled_from(["short", "medium", "long"]),
    "heart": st.sampled_from(sorted(HEART_PRESETS)),
    "pid": st.booleans(),
    "setpoint": st.one_of(
        st.just(DEFAULT_SETPOINT),
        st.integers(min_value=1, max_value=int(MAX_SETPOINT)),
        st.floats(min_value=0.0, max_value=MAX_SETPOINT, exclude_min=True)),
    "pid_gains": st.one_of(
        st.just(list(DEFAULT_PID_GAINS)),
        st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=3,
                 max_size=3)),
}
MODES = {"pt": TargetingMode.PRECISE, "rt": TargetingMode.ROUGH}


def flag_keys() -> set[str]:
    """The config-file key each session flag but --config stores under."""
    return {action.dest for action in cli._session_flags()._actions
            if action.dest != "config"}


def test_every_key_but_pid_gains_has_its_flag() -> None:
    assert set(cli.CONFIG_KEYS) == flag_keys() | {"pid_gains"}
    assert len(cli.CONFIG_KEYS) == len(set(cli.CONFIG_KEYS))


def as_flag(key: str, value: object) -> list[str]:
    if key == "pid":
        value = "on" if value else "off"
    return [f"--{key}", str(value)]


def expected_config(chosen: dict, seed: int) -> SessionConfig:
    """The config of the settings ``chosen``, built by hand from each
    key's meaning; a key not chosen is left to the dataclass."""
    fields = {}
    if "heart" in chosen:
        fields["heart"] = HEART_PRESETS[chosen["heart"]]
    if "pid" in chosen:
        fields["pid_enabled"] = chosen["pid"]
    if "setpoint" in chosen:
        fields["hr_setpoint"] = float(chosen["setpoint"])
    if "pid_gains" in chosen:
        fields["pid_gains"] = tuple(chosen["pid_gains"])
    targeting = {}
    if "targeting" in chosen:
        targeting["mode"] = MODES[chosen["targeting"]]
    if "range" in chosen:
        targeting["range"] = TargetingRange(chosen["range"])
    return SessionConfig(
        seed=seed, profile=load_profile(chosen.get("profile", "mid_skill")),
        targeting=TargetingPolicy(**targeting), **fields)


@st.composite
def file_and_flags(draw) -> tuple[dict, dict]:
    """Any subset of the config keys with a value each, for the file,
    and any subset of the flags' keys, for the command line."""
    file = {key: draw(VALUES[key])
            for key in draw(st.sets(st.sampled_from(cli.CONFIG_KEYS)))}
    flags = {key: draw(VALUES[key])
             for key in draw(st.sets(st.sampled_from(sorted(flag_keys()))))}
    return file, flags


@given(file_and_flags())
def test_each_flag_lies_over_its_file_key(drawn) -> None:
    file, flags = drawn
    argv = ["run"]
    for key, value in flags.items():
        argv += as_flag(key, value)
    with tempfile.TemporaryDirectory() as tmp:
        if file:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(file), encoding="utf-8")
            argv += ["--config", str(path)]
        args = cli.build_parser().parse_args(argv)
        settings = cli._settings(args)
    seeds = cli._parse_seeds(args, settings)
    chosen = {**file, **flags}
    assert seeds == [chosen.get("seed", 0)]
    assert cli._build_config(settings, seeds[0]) == expected_config(
        chosen, seeds[0])
