"""The hand track's in-place kernel against its helper-call reference.

``_HandTrack.add`` and ``_rebuild`` do their float arithmetic in
place.  Here seeded random jab plans drive a live track and
``tests/hand_track_reference.ReferenceTrack`` side by side, and after
every add the two must hold the same plans, the same chain and knot
times (bit for bit, so a zero's sign counts), the same replaced chain,
rebuild tick and hot marks, and hold each point tuple on the same
knots.  On every tick between adds, ``ends`` must read the same values
off both, and the very knot tuple wherever the reference returns one.
Each run also counts the cases it went through, and the test requires
every one of them, so a draw that stops reaching a case fails here.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest

from hand_track_reference import ReferenceTrack
from virusboxing.interaction import Hand
from virusboxing.playersim import GUARD_RIGHT, RIGHT_MARK, JabPlan, _HandTrack

ADDS = 45
SEEDS = range(10)

CASES = (
    "out-of-order strike",     # a pending plan strikes after the new one
    "new plan preempts earlier",
    "new plan preempts later",
    "new plan dropped",        # a pending plan with a higher seq wins
    "passed plan",             # a pending plan's strike tick has passed
    "speed 0 laid",
    "ranged laid",
    "two adds on one tick",
    "hold read",               # ends returns a hold's knot tuple
)


def _draw(rng: random.Random, now: int, seq: int, guard) -> JabPlan:
    roll = rng.random()
    if roll < 0.1:
        speed = 0.0
    elif roll < 0.2:
        # Strikes whose windowed speed lands on the threshold at dt 0.02.
        speed = rng.choice((2.5, 5.0))
    else:
        speed = rng.uniform(0.3, 5.0)
    if rng.random() < 0.08:
        # Equal to the guard, not the same tuple: from the guard, a strike
        # with no direction of its own.
        aim = tuple(guard)
    else:
        aim = (rng.gauss(guard[0], 0.3), rng.gauss(1.4, 0.2),
               rng.uniform(-0.2, 1.2))
    return JabPlan(seq, Hand.RIGHT, now + rng.randint(1, 60), speed, aim,
                   rng.random() < 0.3, seq)


def _origin(track: _HandTrack, point) -> object:
    """Where ``point`` lies in the track as an object: the guard, the
    first knot of either chain holding it, or nowhere (a fresh lerp)."""
    if point is track.guard:
        return "guard"
    for name, chain in (("knots", track.knots), ("old", track._old)):
        for i, (_, held) in enumerate(chain):
            if held is point:
                return name, i
    return None


def _state(track: _HandTrack) -> tuple:
    return (
        repr(track.plans), repr(track.knots), repr(track.times),
        repr(track._old), repr(track._old_times), track._since,
        bytes(track.hot),
        [_origin(track, point) for _, point in track.knots],
        [_origin(track, point) for _, point in track._old],
    )


def _key(plan: JabPlan) -> tuple[int, int]:
    return plan.strike_tick, plan.seq


def _classify(cases: Counter, ref: ReferenceTrack, plan: JabPlan,
              now: int) -> list[JabPlan]:
    """Count the cases ``ref``'s plans set up for adding ``plan`` on tick
    ``now``, and return those still pending."""
    pending = [p for p in ref.plans if p.strike_tick > now]
    if len(pending) < len(ref.plans):
        cases["passed plan"] += 1
    if any(p.strike_tick > plan.strike_tick for p in pending):
        cases["out-of-order strike"] += 1
    return pending


def _run(dt: float, seed: int, cases: Counter) -> None:
    rng = random.Random(seed)
    guard = GUARD_RIGHT
    horizon = rng.choice((0, 200))
    ref = ReferenceTrack(guard, dt, bytearray(horizon), RIGHT_MARK)
    live = _HandTrack(guard, dt, bytearray(horizon), RIGHT_MARK)
    lead = live.lead
    now = rng.randint(0, 3)
    seq = 0
    for _ in range(ADDS):
        for n in range(2 if rng.random() < 0.15 else 1):
            # Now and then a plan drawn earlier arrives late, so a pending
            # plan can outrank it.
            plan = _draw(rng, now, seq - rng.randint(1, 4)
                         if rng.random() < 0.1 else seq, guard)
            seq += 1
            if n:
                cases["two adds on one tick"] += 1
            pending = _classify(cases, ref, plan, now)
            ref.add(plan, now)
            live.add(plan, now)
            assert _state(live) == _state(ref), (dt, seed, now, plan)
            kept = ref.plans
            if plan in kept:
                cases["speed 0 laid"] += plan.speed == 0.0
                cases["ranged laid"] += plan.ranged
            else:
                cases["new plan dropped"] += 1
            dropped = [p for p in pending if p not in kept]
            cases["new plan preempts earlier"] += any(
                _key(p) < _key(plan) for p in dropped)
            cases["new plan preempts later"] += any(
                _key(p) > _key(plan) for p in dropped)
        gap = lead + rng.randint(0, 40)
        for tick in range(now, now + gap):
            for start in (tick - lead, tick - 1, tick):
                want = ref.ends(start, tick)
                got = live.ends(start, tick)
                assert repr(got) == repr(want), (dt, seed, start, tick)
                origins = [_origin(ref, point) for point in want]
                assert [_origin(live, point) for point in got] == origins
                if want[0] is want[1] and origins[0] is not None:
                    cases["hold read"] += 1
        now += gap


@pytest.mark.parametrize("dt", [0.01, 0.02, 0.05])
def test_the_in_place_kernel_lays_and_reads_as_the_helper_calls(
        dt: float) -> None:
    cases: Counter = Counter()
    for seed in SEEDS:
        _run(dt, seed, cases)
    assert [case for case in CASES if not cases[case]] == []
