"""Deterministic simulation engine for a HIIT boxing exergame.

The top level holds the session API: build a ``SessionConfig``, run it,
and verify or read its replay log.  Every lower-level piece is imported
from its own module.
"""

from .interaction import (Calibration, TargetingMode, TargetingPolicy,
                          TargetingRange)
from .physiology import HEART_PRESETS, HeartRateParams
from .playersim import EmpowerPolicy, PlayerProfile, load_profile
from .progression import SummaryMetrics
from .session import (HeaderMismatchError, ReplayReport, SessionConfig,
                      SessionResult, iter_sessions, metrics_from_log,
                      replay_verify, run_many, run_session)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Calibration",
    "EmpowerPolicy",
    "HeaderMismatchError",
    "HeartRateParams",
    "HEART_PRESETS",
    "PlayerProfile",
    "ReplayReport",
    "SessionConfig",
    "SessionResult",
    "SummaryMetrics",
    "TargetingMode",
    "TargetingPolicy",
    "TargetingRange",
    "iter_sessions",
    "load_profile",
    "metrics_from_log",
    "replay_verify",
    "run_many",
    "run_session",
]
