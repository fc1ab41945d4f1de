"""A hand's knot chain laid through helper calls, frozen as a reference.

``ReferenceTrack`` is ``virusboxing.playersim._HandTrack`` with ``add``,
``_conflicts``, ``_rebuild``, ``_append`` and ``ends`` as they stood
before the live ``add`` and ``_rebuild`` did their arithmetic in place:
``add`` settles each conflict through ``_conflicts``, ``_rebuild`` lays
the chain through ``_dist``, ``_lerp`` and ``_append`` and builds the
knot times from the knots afterwards, and ``ends`` reads both of its
points through ``_point`` (as the live one still does; the copy holds
any later change to it).  ``tests/test_hand_track_kernel.py`` drives it
beside the live track and requires the same plans, chains, marks and
reads.

Never optimise this file, and never change it to follow the live track:
its worth is that each step is the obvious call.  It inherits
``__init__``, ``position_at`` and ``_mark_hot`` from the live track, so
only the copied bodies are under test.
"""
from __future__ import annotations

import math

from virusboxing.interaction import JAB_REFRACTORY, VELOCITY_WINDOW
from virusboxing.playersim import (
    REPOSITION_SPEED,
    RETRACT_SPEED,
    JabPlan,
    Vec3,
    _HandTrack,
    _lerp,
    _point,
    _strike_ticks,
)


def _dist(a: Vec3, b: Vec3) -> float:
    return math.sqrt(
        (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
    )


class ReferenceTrack(_HandTrack):
    """The live track's state and marks, with the helper-call kernel."""

    def ends(self, start: int, tick: int) -> tuple[Vec3, Vec3]:
        dt = self.dt
        if start < self._since:
            first = _point(self._old, self._old_times, start * dt)
        else:
            first = _point(self.knots, self.times, start * dt)
        return first, _point(self.knots, self.times, tick * dt)

    def add(self, plan: JabPlan, now_tick: int) -> None:
        if now_tick != self._since:
            if now_tick - self._since < self.lead:
                raise RuntimeError(
                    f"a hand chain rebuilt on tick {self._since} is rebuilt "
                    f"again on tick {now_tick}, within the {self.lead}-tick "
                    f"velocity window")
            self._old, self._old_times = self.knots, self.times
            self._since = now_tick
        plans = self.plans
        # Plans are kept in (strike tick, seq) order, so those whose strike
        # tick has passed come first, and the new plan goes after every
        # plan that sorts at or before it.
        passed = 0
        while passed < len(plans) and plans[passed].strike_tick <= now_tick:
            passed += 1
        at = len(plans)
        while at > passed and (plans[at - 1].strike_tick,
                               plans[at - 1].seq) > (plan.strike_tick,
                                                     plan.seq):
            at -= 1
        # The plans before it follow one another without conflict, as they
        # did after the last add, so conflicts are settled from it on.
        # ``same`` counts the leading plans the old chain laid too: those
        # before it, fewer if it preempts one of them.
        survivors = plans[passed:at]
        same = len(survivors)
        for p in [plan, *plans[at:]]:
            keep = True
            while survivors and self._conflicts(survivors[-1], p):
                if p.seq > survivors[-1].seq:
                    survivors.pop()
                    same = min(same, len(survivors))
                else:
                    keep = False
                    break
            if keep:
                survivors.append(p)
        self.plans = survivors
        self._rebuild(now_tick, same)

    def _conflicts(self, first: JabPlan, second: JabPlan) -> bool:
        spacing = (second.strike_tick - first.strike_tick) * self.dt
        if spacing < JAB_REFRACTORY - 1e-9:
            return True
        # The later strike's hold window must start after the earlier
        # strike has finished.
        prep = _strike_ticks(second.speed, self.dt) * self.dt + VELOCITY_WINDOW
        return spacing < prep - 1e-9

    def _append(self, knots: list[tuple[float, Vec3]], t: float,
                pos: Vec3) -> None:
        if t > knots[-1][0] + 1e-12:
            knots.append((t, pos))

    def _rebuild(self, now_tick: int, same: int) -> None:
        now_t = now_tick * self.dt
        pos_now = self.position_at(now_t)
        knots: list[tuple[float, Vec3]] = [(now_t, pos_now)]
        t_free, p_free = now_t, pos_now
        for n, plan in enumerate(self.plans):
            k = _strike_ticks(plan.speed, self.dt)
            strike_end_t = plan.strike_tick * self.dt
            strike_start = max(t_free, strike_end_t - k * self.dt)
            hold_start = max(t_free, strike_start - VELOCITY_WINDOW)

            if plan.ranged:
                launch = p_free
            else:
                d_strike = plan.speed * (strike_end_t - strike_start)
                gap = _dist(p_free, plan.aim)
                if gap > d_strike:
                    launch = _lerp(p_free, plan.aim, (gap - d_strike) / gap)
                else:
                    launch = p_free
            avail = hold_start - t_free
            need = _dist(p_free, launch)
            if need > 1e-12 and avail > 0.0:
                duration = need / REPOSITION_SPEED
                if duration <= avail:
                    self._append(knots, t_free + duration, launch)
                else:
                    launch = _lerp(p_free, launch,
                                   avail * REPOSITION_SPEED / need)
                    self._append(knots, hold_start, launch)
            else:
                launch = p_free
            self._append(knots, strike_start, launch)

            if plan.speed > 0.0 and strike_end_t > strike_start:
                gap = _dist(launch, plan.aim)
                if gap > 1e-12:
                    direction = _lerp((0.0, 0.0, 0.0),
                                      (plan.aim[0] - launch[0],
                                       plan.aim[1] - launch[1],
                                       plan.aim[2] - launch[2]), 1.0 / gap)
                else:
                    direction = (0.0, 0.0, 1.0)
                travel = plan.speed * (strike_end_t - strike_start)
                end_pos = (
                    launch[0] + travel * direction[0],
                    launch[1] + travel * direction[1],
                    launch[2] + travel * direction[2],
                )
                self._append(knots, strike_end_t, end_pos)
                if n >= same or len(knots) == 2:
                    self._mark_hot(knots[-2], knots[-1])
                t_free, p_free = strike_end_t, end_pos
            else:
                t_free, p_free = strike_start, launch
        back = _dist(p_free, self.guard)
        if back > 1e-12:
            self._append(knots, t_free + back / RETRACT_SPEED, self.guard)
        self.knots = knots
        self.times = [knot[0] for knot in knots]
