"""``tools/spawn_time.py``: it times replayed hand-track calls and only
reports."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from virusboxing.playersim import _HandTrack

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "spawn_time.py"
_spec = importlib.util.spec_from_file_location("spawn_time", _SCRIPT)
spawn_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spawn_time)


def test_prints_a_median_per_add_and_per_ends_call(capsys) -> None:
    add, ends = vars(_HandTrack)["add"], vars(_HandTrack)["ends"]
    assert spawn_time.main(repeats=2, seeds=(0,)) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["add", "ends"]
    for row in rows:
        assert float(row.split()[1]) > 0.0
        assert "median of 2 replays" in row
    # The recording wrappers are gone again.
    assert vars(_HandTrack)["add"] is add and vars(_HandTrack)["ends"] is ends


def test_records_each_hand_track_of_each_session_apart() -> None:
    recordings = spawn_time.record(seeds=(0, 1))
    assert len(recordings) == 4
    for rec in recordings:
        kinds = {call[0] for call in rec.calls}
        assert kinds == {"add", "ends"}
