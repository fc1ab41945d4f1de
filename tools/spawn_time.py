"""Print how long one ``_HandTrack.add`` and one ``_HandTrack.ends`` take, in µs.

Every virus spawn draws a jab plan and adds it to its hand's track, which
re-lays the hand's knot chain; on each tick a hand can fire, the session
reads the hand's two window ends off the chain.  This script records each
track's calls from three default mid_skill sessions (seeds 0-2), then
replays them on fresh tracks with no session around them::

    python tools/spawn_time.py

The adds of every track are replayed in order on a fresh one and timed
as a whole.  The ``ends`` reads are replayed on copies of the tracks as
they stood when each read was made, and timed as a whole too.  Each line
gives the median over the replays of the time per call.  No tracer wraps
the calls, so the numbers carry none of its overhead.

It times the package next to this script and needs nothing outside the
standard library.  It only reports: no time fails the run.
"""
from __future__ import annotations

import copy
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from virusboxing.playersim import _HandTrack, load_profile  # noqa: E402
from virusboxing.session import SessionConfig, run_session  # noqa: E402

SEEDS = (0, 1, 2)
REPEATS = 30


class _Recording:
    """One track's calls, in order: ``("add", plan, now_tick)`` and
    ``("ends", start, tick)``."""

    def __init__(self, track: _HandTrack) -> None:
        self.guard, self.dt, self.mark = track.guard, track.dt, track.mark
        self.hot = track.hot
        self.calls: list[tuple] = []


def record(seeds=SEEDS) -> list[_Recording]:
    """The calls each hand track of each session made, one recording a
    track, with ``add`` and ``ends`` wrapped on the class meanwhile."""
    # Keyed by the track itself, which hashes by identity.
    recordings: dict[_HandTrack, _Recording] = {}
    add, ends = _HandTrack.add, _HandTrack.ends

    def _of(track: _HandTrack) -> _Recording:
        if track not in recordings:
            recordings[track] = _Recording(track)
        return recordings[track]

    def recorded_add(self, plan, now_tick):
        _of(self).calls.append(("add", plan, now_tick))
        return add(self, plan, now_tick)

    def recorded_ends(self, start, tick):
        _of(self).calls.append(("ends", start, tick))
        return ends(self, start, tick)

    profile = load_profile("mid_skill")
    _HandTrack.add, _HandTrack.ends = recorded_add, recorded_ends
    try:
        for seed in seeds:
            run_session(SessionConfig(seed=seed, profile=profile))
    finally:
        _HandTrack.add, _HandTrack.ends = add, ends
    return list(recordings.values())


def _fresh(rec: _Recording) -> _HandTrack:
    return _HandTrack(rec.guard, rec.dt, bytearray(len(rec.hot)), rec.mark)


def _time_adds(recordings: list[_Recording]) -> float:
    """Seconds to replay every recorded add on fresh tracks."""
    total = 0.0
    for rec in recordings:
        track = _fresh(rec)
        adds = [(plan, now) for kind, plan, now in rec.calls if kind == "add"]
        add = track.add
        start = time.perf_counter()
        for plan, now in adds:
            add(plan, now)
        total += time.perf_counter() - start
    return total


def _reads(recordings: list[_Recording]) -> list[tuple]:
    """Every recorded read, bound to a copy of its track as it stood."""
    reads = []
    for rec in recordings:
        track = _fresh(rec)
        state = track
        for kind, a, b in rec.calls:
            if kind == "add":
                track.add(a, b)
                # add replaces the track's lists rather than changing
                # them, so a shallow copy keeps the state of the read.
                state = copy.copy(track)
            else:
                reads.append((state.ends, a, b))
    return reads


def _time_reads(reads: list[tuple]) -> float:
    start = time.perf_counter()
    for ends, first, tick in reads:
        ends(first, tick)
    return time.perf_counter() - start


def main(repeats: int = REPEATS, seeds=SEEDS) -> int:
    recordings = record(seeds)
    adds = sum(kind == "add" for rec in recordings for kind, *_ in rec.calls)
    reads = _reads(recordings)
    # One untimed replay of each first, so both are timed warm.
    _time_adds(recordings)
    _time_reads(reads)
    add_us = statistics.median(_time_adds(recordings)
                               for _ in range(repeats)) / adds * 1e6
    ends_us = statistics.median(_time_reads(reads)
                                for _ in range(repeats)) / len(reads) * 1e6
    print(f"add  {add_us:>8.3f} us  (median of {repeats} replays "
          f"of {adds} calls)")
    print(f"ends {ends_us:>8.3f} us  (median of {repeats} replays "
          f"of {len(reads)} calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
