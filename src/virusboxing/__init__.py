"""Deterministic simulation engine for a HIIT boxing exergame."""

from .interaction import (
    Calibration,
    Hand,
    HitKind,
    JabDetector,
    PoseClass,
    PoseSample,
    TargetingMode,
    TargetingPolicy,
    TargetingRange,
    classify_weave_pose,
    resolve_cell_pass,
    resolve_jab,
)
from .physiology import HEART_PRESETS, HeartRateParams, PidController
from .playersim import EmpowerPolicy, PlayerProfile, SyntheticPlayer, load_profile
from .progression import ProgressionState, SummaryMetrics
from .protocol import PhaseKind, SESSION_DURATION, phase_at, sprint_windows
from .session import (
    HeaderMismatchError,
    ReplayReport,
    SessionConfig,
    SessionResult,
    iter_sessions,
    metrics_from_log,
    replay_verify,
    run_many,
    run_session,
)
from .world import Entity, EntityKind, EntityStatus, WorldState

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Calibration",
    "EmpowerPolicy",
    "Entity",
    "EntityKind",
    "EntityStatus",
    "Hand",
    "HeaderMismatchError",
    "HeartRateParams",
    "HEART_PRESETS",
    "HitKind",
    "JabDetector",
    "PhaseKind",
    "PidController",
    "PlayerProfile",
    "PoseClass",
    "PoseSample",
    "ProgressionState",
    "ReplayReport",
    "SESSION_DURATION",
    "SessionConfig",
    "SessionResult",
    "SummaryMetrics",
    "SyntheticPlayer",
    "TargetingMode",
    "TargetingPolicy",
    "TargetingRange",
    "WorldState",
    "classify_weave_pose",
    "iter_sessions",
    "load_profile",
    "metrics_from_log",
    "phase_at",
    "replay_verify",
    "resolve_cell_pass",
    "resolve_jab",
    "run_many",
    "run_session",
    "sprint_windows",
]
