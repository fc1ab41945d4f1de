"""Print how long one cold ``session._plan`` build takes, in ms.

``_plan`` works out a config's physiology and spawn timeline once, and
every seed of the config shares it, so the benchmark's per-tick numbers
never show its cost.  This script builds the plan of the default
mid_skill session with the PID off and on, clearing the plan cache
before each build, and prints the median of the builds::

    python tools/plan_time.py

It times the package next to this script and needs nothing outside the
standard library.  It only reports: no time fails the run.
"""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from virusboxing.playersim import load_profile  # noqa: E402
from virusboxing.session import SessionConfig, _plan, _schedule_key  # noqa: E402

REPEATS = 40


def cold_build_ms(pid_enabled: bool, repeats: int = REPEATS) -> float:
    """The median time of ``repeats`` cold builds of mid_skill's plan."""
    key = _schedule_key(SessionConfig(seed=0, profile=load_profile("mid_skill"),
                                      pid_enabled=pid_enabled))
    times = []
    for _ in range(repeats):
        _plan.cache_clear()
        start = time.perf_counter()
        _plan(*key)
        times.append(time.perf_counter() - start)
    _plan.cache_clear()
    return statistics.median(times) * 1e3


def main(repeats: int = REPEATS) -> int:
    for label, pid_enabled in (("pid off", False), ("pid on", True)):
        print(f"{label:<8} {cold_build_ms(pid_enabled, repeats):>8.2f} ms"
              f"  (median of {repeats} cold builds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
