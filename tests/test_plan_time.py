"""``tools/plan_time.py``: it times cold plan builds and only reports."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from virusboxing.session import _plan

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "plan_time.py"
_spec = importlib.util.spec_from_file_location("plan_time", _SCRIPT)
plan_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plan_time)


def test_prints_a_median_for_the_pid_off_and_on(capsys) -> None:
    assert plan_time.main(repeats=2) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows] == [["pid", "off"], ["pid", "on"]]
    for row in rows:
        assert float(row.split()[2]) > 0.0
        assert "median of 2 cold builds" in row
    # Each build is cold, and none is left in the cache.
    assert _plan.cache_info().currsize == 0
