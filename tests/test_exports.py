"""Every exported name resolves, in the package and in each module, and
each has one import path: the top level exports the session API, and every
lower-level name is exported by its own module alone."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import virusboxing

MODULES = sorted(info.name for info in pkgutil.iter_modules(virusboxing.__path__))


def test_every_module_is_checked() -> None:
    assert {"cli", "session", "world"} <= set(MODULES)


@pytest.mark.parametrize("name", ["virusboxing"] + [
    f"virusboxing.{module}" for module in MODULES
])
def test_all_names_resolve(name: str) -> None:
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate entries in __all__"
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []


# The session API: what a caller needs to build a config, run it and read
# its results.
SESSION_API = {
    "__version__", "Calibration", "EmpowerPolicy", "HeaderMismatchError",
    "HeartRateParams", "HEART_PRESETS", "PlayerProfile", "ReplayReport",
    "SessionConfig", "SessionResult", "SummaryMetrics", "TargetingMode",
    "TargetingPolicy", "TargetingRange", "iter_sessions", "load_profile",
    "metrics_from_log", "replay_verify", "run_many", "run_session",
}

# Lower-level names the top level once re-exported, each with the one
# module it is imported from.
MODULE_ONLY = {
    "interaction": ["Hand", "HitKind", "JabDetector", "PoseClass",
                    "PoseSample", "classify_weave_pose", "resolve_cell_pass",
                    "resolve_jab"],
    "physiology": ["PidController"],
    "playersim": ["SyntheticPlayer"],
    "progression": ["ProgressionState"],
    "protocol": ["PhaseKind", "SESSION_DURATION", "phase_at",
                 "sprint_windows"],
    "world": ["Entity", "EntityKind", "EntityStatus", "WorldState"],
}


def test_the_top_level_is_the_session_api() -> None:
    assert sorted(virusboxing.__all__) == sorted(SESSION_API)


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in MODULE_ONLY.items() for name in names
])
def test_a_lower_level_name_is_public_in_its_module(module: str,
                                                    name: str) -> None:
    assert name in importlib.import_module(f"virusboxing.{module}").__all__
