"""The gated session loop writes the log the per-tick loop writes.

``run_session`` judges a hand's jab only on the ticks the player marks
hot for that hand: those whose velocity window overlaps a fast segment
of one of the hand's knot chains.  Marks are only ever added, so a
chain a rebuild replaced keeps its marks, and a rebuild marks only the
strikes its chain adds.  After a fire the loop leaves the hand alone
until the tick before its refractory ends.  On a marked tick the loop
reads the hand's position there and at the start of the detector's
window off the hand's track (``_HandTrack.ends``).  It samples a tick a
cell crosses on for the head pose alone.  ``per_tick_oracle`` keeps the
loop that samples and feeds every tick.  These tests hold the two to
the same log, line for line, across the valid config space; check the
marks and the track's reads; and check the player's side of the
bargain: sampled sparsely and in any order, it answers as if sampled
densely in order.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from per_tick_oracle import run_session_per_tick
from test_config_properties import session_configs
from virusboxing import playersim, protocol
from virusboxing.interaction import (
    JAB_REFRACTORY,
    VELOCITY_WINDOW,
    Calibration,
    Hand,
    JabDetector,
    PoseClass,
    TargetingMode,
    TargetingPolicy,
)
from virusboxing.playersim import (
    LEFT_MARK,
    RIGHT_MARK,
    WEAVE_LEAD_TICKS,
    JabPlan,
    SyntheticPlayer,
    WeavePlan,
    _HandTrack,
    load_profile,
)
from virusboxing.protocol import PhaseKind, SpawnParams, first_tick, phase_at
from virusboxing.session import SessionConfig, _plan, run_session

# Not a seed the golden logs pin (they use 0, 1 and 2).
SEED = 5
PROFILES = ("expert", "mid_skill", "novice")
TARGETING = {"pt": TargetingMode.PRECISE, "rt": TargetingMode.ROUGH}


def _assert_same_log(config: SessionConfig) -> list[str]:
    want = run_session_per_tick(config).lines
    got = run_session(config).lines
    for i, (a, b) in enumerate(zip(want, got)):
        assert a == b, f"line {i + 1} differs"
    assert len(got) == len(want)
    return got


def _assert_marks_after_their_rebuild(config: SessionConfig) -> None:
    """Run ``config`` checking that each rebuild adds only its own hand's
    bit, and only on ticks after its own, so that none lands on a tick
    already run; then hold its log to the per-tick one."""
    add = _HandTrack.add
    rebuilds = []

    def checked_add(self, plan, now_tick):
        before = bytes(self.hot)
        add(self, plan, now_tick)
        after = bytes(self.hot)
        before += bytes(len(after) - len(before))
        changed = [k for k, (old, new) in enumerate(zip(before, after))
                   if old != new]
        assert all(k > now_tick for k in changed), (now_tick, changed)
        assert all(after[k] == before[k] | self.mark for k in changed)
        rebuilds.append(now_tick)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_HandTrack, "add", checked_add)
        got = run_session(config).lines
    assert got == run_session_per_tick(config).lines
    # Every virus's plan rebuilds its hand's chain.
    assert len(rebuilds) == sum('"type":"spawn"' in line and '_virus"' in line
                                for line in got)


@pytest.mark.parametrize("reaction", [0.0, 0.06, 0.12, 0.18])
@pytest.mark.parametrize("dt", [0.02, 0.035, 0.07])
@pytest.mark.parametrize("profile", PROFILES)
def test_no_rebuild_marks_a_tick_already_run(profile, dt, reaction) -> None:
    quick = dataclasses.replace(load_profile(profile), reaction_time=reaction)
    _assert_marks_after_their_rebuild(
        SessionConfig(seed=SEED, profile=quick, dt=dt, duration=63.0))


@pytest.mark.parametrize("own_reaction", [True, False], ids=["own", "reaction0"])
@pytest.mark.parametrize("dt", [0.01, 0.02, 0.035, 0.07, 0.1])
@pytest.mark.parametrize("profile", PROFILES)
def test_a_virus_plan_strikes_a_reaction_after_its_spawn_tick(
        profile, dt, own_reaction) -> None:
    # A spawn lands on tick s only if its time is above
    # (s - 1) * dt + 1e-9, so every plan, ranged or melee, strikes on
    # tick s + floor(reaction / dt) or later.
    loaded = load_profile(profile)
    if not own_reaction:
        loaded = dataclasses.replace(loaded, reaction_time=0.0)
    reaction = math.floor(loaded.reaction_time / dt)
    plan_reaction = playersim.plan_reaction
    slack = []

    def checked_plan(profile, entity, rng, **kwargs):
        plan = plan_reaction(profile, entity, rng, **kwargs)
        if isinstance(plan, JabPlan):
            spawn_tick = kwargs["now_tick"]
            assert spawn_tick == first_tick(entity.spawn_time, dt, 1e-9)
            slack.append(plan.strike_tick - (spawn_tick + reaction))
        return plan

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(playersim, "plan_reaction", checked_plan)
        run_session(SessionConfig(seed=SEED, profile=loaded, dt=dt,
                                  duration=round(round(63.0 / dt) * dt, 9)))
    assert len(slack) > 100
    assert min(slack) >= 0


@st.composite
def _session_configs_with_quick_reactions(draw) -> SessionConfig:
    """``session_configs``, half of them with a reaction time cut to at
    most 0.1 s.  Reacting that fast, a new plan can strike so soon that
    the velocity window of its first marked ticks reaches back past its
    own spawn tick, into the chain it replaced."""
    config = draw(session_configs())
    if draw(st.booleans()):
        profile = dataclasses.replace(
            config.profile,
            reaction_time=draw(st.floats(min_value=0.0, max_value=0.1)))
        config = dataclasses.replace(config, profile=profile)
    return config


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=_session_configs_with_quick_reactions())
def test_gated_log_equals_the_per_tick_log(config: SessionConfig) -> None:
    _assert_marks_after_their_rebuild(config)


@pytest.mark.parametrize("targeting", sorted(TARGETING))
@pytest.mark.parametrize("profile", PROFILES)
def test_full_session_equals_the_per_tick_log(profile, targeting) -> None:
    config = SessionConfig(seed=SEED, profile=load_profile(profile),
                           targeting=TargetingPolicy(TARGETING[targeting]))
    lines = _assert_same_log(config)
    assert sum('"type":"jab"' in line for line in lines) > 100


# At coarse steps the velocity window is one to three ticks, so a window
# start a tick off shows at once.  At the finer steps, sessions that
# end on a phase boundary (30 s, 120 s) or mid-phase (75.5 s): the drain
# takes over right after the last gameplay tick.
STEP_CASES = [(0.035, 126.0), (0.07, 126.0), (0.1, 126.0)] + [
    (dt, duration) for duration in (30.0, 120.0, 75.5) for dt in (0.02, 0.025)]


@pytest.mark.parametrize("dt, duration", STEP_CASES, ids=[
    f"{dt}" if duration == 126.0 else f"{dt}-{duration}s"
    for dt, duration in STEP_CASES])
@pytest.mark.parametrize("profile", PROFILES)
def test_coarse_steps_equal_the_per_tick_log(profile, dt, duration) -> None:
    _assert_same_log(SessionConfig(seed=SEED, profile=load_profile(profile),
                                   pid_enabled=False, dt=dt,
                                   duration=duration))


@pytest.mark.parametrize("dt", [0.02, 0.035])
@pytest.mark.parametrize("profile", ["expert", "mid_skill"])
def test_instant_reactions_equal_the_per_tick_log(profile, dt) -> None:
    # With no reaction time a new plan can strike at once, so the window
    # of its first marked ticks starts on the chain it replaced.
    instant = dataclasses.replace(load_profile(profile), reaction_time=0.0)
    _assert_same_log(SessionConfig(seed=SEED, profile=instant, dt=dt,
                                   duration=126.0))


def test_a_crossing_just_before_an_instant_strike_equals_the_per_tick_log(
        ) -> None:
    # At seed 3 a cell crosses on tick 6046 (120.92 s), a tick sampled
    # for its head alone, and a red virus spawns on tick 6047 while the
    # player is empowered.  With no reaction time and rough long-range
    # targeting its plan strikes at once, so the windows of the new
    # chain's marked ticks reach back past the crossing: their starts
    # must come off the chain that held there, or the one-tick strike
    # reads as a jab the per-tick loop never fires.
    instant = dataclasses.replace(load_profile("expert"), reaction_time=0.0)
    config = SessionConfig(seed=3, profile=instant, dt=0.02, duration=121.0)
    lines = _assert_same_log(config)
    rows = [json.loads(line) for line in lines]
    assert {"type": "cross", "t": 120.92, "id": 287, "status": "avoided",
            "pose": "squat"} in rows
    (spawn,) = [row for row in rows if row["type"] == "spawn"
                and row["kind"].endswith("_virus")
                and 120.92 < row["t"] <= 120.94]
    empowered = [row for row in rows if row["type"] == "empower"
                 and row["t"] <= spawn["t"]][-1]
    assert empowered["action"] == "start" and empowered["until"] > 121.0


def test_a_hot_run_just_before_an_instant_strike_equals_the_per_tick_log(
        ) -> None:
    # At seed 2, with no reaction time and a 6 m/s mean punch, the left
    # hand's hot run for its next jab opens a tick or two before a red
    # virus spawns on tick 6087 (121.74 s) while the player is empowered.
    # The right hand's new plan strikes at once: its speed must be read
    # from its own window's start, not from the left hand's run.
    quick = dataclasses.replace(load_profile("expert"), reaction_time=0.0,
                                punch_speed_mean=6.0)
    config = SessionConfig(seed=2, profile=quick, dt=0.02, duration=122.0)
    lines = _assert_same_log(config)
    rows = [json.loads(line) for line in lines]
    (spawn,) = [row for row in rows if row["type"] == "spawn"
                and row["kind"].endswith("_virus")
                and 121.72 < row["t"] <= 121.74]
    jabs = [(row["t"], row["hand"]) for row in rows
            if row["type"] == "jab" and 121.74 < row["t"] <= 121.8]
    assert jabs == [(121.76, "right"), (121.78, "left")]
    empowered = [row for row in rows if row["type"] == "empower"
                 and row["t"] <= spawn["t"]][-1]
    assert empowered["action"] == "start" and empowered["until"] > 122.0


def test_a_jab_whose_window_spans_the_skipped_tick_logs_as_per_tick() -> None:
    # Log v1 never runs tick G, so a window that reaches back across it
    # starts where a detector fed every tick but G starts it.  At seed 1
    # of a 21 s session a jab fires on G + 3, its window from G - 2; at
    # seed 3 of a 25.04 s session one fires on G + 1, whose speed below
    # is the one on G - 1.
    judge = JabDetector.judge
    for seed, duration, after in ((1, 21.0, 3), (3, 25.04, 1)):
        config = SessionConfig(seed=seed, profile=load_profile("mid_skill"),
                               pid_enabled=False, duration=duration)
        dt = config.dt
        gameplay = round(duration / dt)
        befores = {}

        def recording_judge(self, i, now, before, *args):
            befores[round(now / dt)] = before
            return judge(self, i, now, before, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(JabDetector, "judge", recording_judge)
            lines = _assert_same_log(config)
        jab_ticks = [round(json.loads(line)["t"] / dt)
                     for line in lines if '"type":"jab"' in line]
        assert gameplay + after in jab_ticks, (seed, duration)
        # The tick before G + 1 is G - 1.
        assert befores[gameplay + 1] == (gameplay - 1) * dt
        assert all(before == (k - 1) * dt for k, before in befores.items()
                   if k != gameplay + 1)


class TestJudgedTicks:
    @pytest.fixture(scope="class")
    def runs(self):
        """Each loop's sampled ticks with their phase kinds, and the ticks
        on which its jabs fired; then the gated loop's judged ticks by
        hand and its player's final hot marks."""
        config = SessionConfig(seed=SEED, profile=load_profile("mid_skill"))
        dt = config.dt
        sample, update = SyntheticPlayer.sample, JabDetector.update
        judge = JabDetector.judge
        calls: list[tuple[int, PhaseKind]] = []
        fired: list[int] = []
        judged: tuple[list[int], list[int]] = ([], [])
        fired_by_hand: tuple[list[int], list[int]] = ([], [])
        players: list[SyntheticPlayer] = []

        def recording_sample(self, tick, phase_kind):
            calls.append((tick, phase_kind))
            players.append(self)
            return sample(self, tick, phase_kind)

        def recording_update(self, pose):
            events = update(self, pose)
            if events:
                fired.append(round(pose.time / dt))
            return events

        def recording_judge(self, i, now, *args):
            judged[i].append(round(now / dt))
            jab = judge(self, i, now, *args)
            if jab is not None:
                fired.append(round(now / dt))
                fired_by_hand[i].append(round(now / dt))
            return jab

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SyntheticPlayer, "sample", recording_sample)
            patch.setattr(JabDetector, "update", recording_update)
            oracle = run_session_per_tick(config)
            oracle_calls, oracle_fired = calls[:], fired[:]
            calls.clear()
            fired.clear()
            patch.setattr(JabDetector, "judge", recording_judge)
            gated = run_session(config)
        assert gated.lines == oracle.lines
        marks = bytes(players[-1].hot)
        return (config, oracle, oracle_calls, oracle_fired, calls, fired,
                judged, marks, fired_by_hand)

    def test_ticks_are_sampled_once_in_order(self, runs) -> None:
        _, _, _, _, calls, _, _, _, _ = runs
        ticks = [tick for tick, _ in calls]
        assert ticks == sorted(set(ticks))

    def test_every_sampled_tick_gets_its_phase_kind(self, runs) -> None:
        config, _, _, _, calls, _, _, _, _ = runs
        gameplay = round(config.duration / config.dt)
        for tick, kind in calls:
            if tick < gameplay:
                assert kind is phase_at(tick * config.dt).kind, tick
            else:
                assert kind is PhaseKind.ENDED, tick

    def test_fired_ticks_are_judged_and_crossing_ticks_sampled(
            self, runs) -> None:
        # A jab is judged from the hands alone; a tick a cell crosses on
        # is sampled whole for its head, and no other tick is sampled.
        config, oracle, _, oracle_fired, calls, fired, judged, _, _ = runs
        assert oracle_fired and fired == oracle_fired
        assert set(oracle_fired) <= set(judged[0]) | set(judged[1])
        rows = [json.loads(line) for line in oracle.lines]
        cell_ticks = {round(row["t"] / config.dt) for row in rows
                      if row["type"] == "cross" and "pose" in row}
        assert cell_ticks and cell_ticks == {tick for tick, _ in calls}

    def test_each_hand_is_judged_on_its_marked_ticks_alone(self, runs) -> None:
        # Each hand is judged on the ticks marked for it, but for tick G,
        # which is never run, and the ticks inside a fire's quiet span.
        # A hand that fires on tick f cannot fire before the first tick e
        # the detector's refractory test passes on, and the ticks after f
        # feed nothing until the tick run just before e, whose speed e
        # reads as below.
        config, _, _, _, _, _, judged, marks, fired_by_hand = runs
        dt = config.dt
        gameplay = round(config.duration / dt)
        for ticks, mark, fired in zip(judged, (LEFT_MARK, RIGHT_MARK),
                                      fired_by_hand):
            assert ticks and ticks == sorted(set(ticks))
            quiet = set()
            for f in fired:
                e = next(e for e in itertools.count(f + 1)
                         if e * dt - f * dt >= JAB_REFRACTORY - 1e-9)
                wake = max(k for k in range(e) if k != gameplay)
                quiet.update(range(f + 1, wake))
            assert len(fired) > 50 and quiet & {k for k, byte
                                                 in enumerate(marks)
                                                 if byte & mark}
            assert ticks == [tick for tick in range(ticks[-1] + 1)
                             if marks[tick] & mark and tick != gameplay
                             and tick not in quiet]

    def test_under_a_quarter_of_the_ticks_are_read(self, runs) -> None:
        _, _, oracle_calls, _, calls, _, judged, _, _ = runs
        assert len(calls) < len(oracle_calls) / 4
        assert len(set(judged[0]) | set(judged[1])) < len(oracle_calls) / 4


def _left_strikes(config: SessionConfig, strikes: dict[int, int]):
    """Run ``config`` with its virus plans replaced: virus ``n`` (counting
    the viruses from 0) strikes with the left hand at 4 m/s on tick
    ``strikes[n]``, and every other virus gets no plan.  The draws are
    the plain plans', so both loops see the same spawns.

    Holds the gated log to the per-tick one and returns the left hand's
    jab ticks, each virus's spawn tick, and the ticks the gated loop
    judged the left hand on.
    """
    plan_reaction = playersim.plan_reaction
    judge = JabDetector.judge
    dt = config.dt
    spawns: list[int] = []
    judged: list[int] = []

    def strike(profile, entity, rng, **kwargs):
        plan = plan_reaction(profile, entity, rng, **kwargs)
        if not entity.is_virus:
            return plan
        spawns.append(kwargs["now_tick"])
        tick = strikes.get(len(spawns) - 1)
        if tick is None:
            return None
        return plan._replace(hand=Hand.LEFT, strike_tick=tick, speed=4.0,
                             ranged=False)

    def recording_judge(self, i, now, *args):
        if i == 0:
            judged.append(round(now / dt))
        return judge(self, i, now, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(playersim, "plan_reaction", strike)
        oracle = run_session_per_tick(config).lines
        spawns.clear()
        patch.setattr(JabDetector, "judge", recording_judge)
        assert run_session(config).lines == oracle
    jabs = [round(row["t"] / dt) for row in map(json.loads, oracle)
            if row["type"] == "jab" and row["hand"] == "left"]
    return jabs, spawns, judged


def _refractory_end(fired: int, dt: float) -> int:
    """The first tick whose jab passes the refractory after a fire on tick
    ``fired``, by a plain scan in the detector's own floats."""
    return next(e for e in itertools.count(fired + 1)
                if e * dt - fired * dt >= JAB_REFRACTORY - 1e-9)


class TestQuietSpan:
    """After a fire the gated loop neither reads nor judges the hand until
    the tick run just before the first tick out of the refractory.  Two
    strikes of one hand, against the per-tick loop, which feeds a dense
    detector: the first fires on tick f, and the second, laid by a virus
    that spawns two ticks later, once its plan has no earlier strike to
    conflict with, crosses 1 m/s around the refractory's end e."""

    @staticmethod
    def _config(dt: float, duration: float = 30.0) -> SessionConfig:
        return SessionConfig(seed=SEED, profile=load_profile("mid_skill"),
                             pid_enabled=False, dt=dt, duration=duration)

    @pytest.mark.parametrize("dt", [0.02, 0.01])
    def test_a_rising_edge_on_the_first_tick_out_of_the_refractory_fires(
            self, dt) -> None:
        config = self._config(dt)
        _, spawns, _ = _left_strikes(config, {})
        fired = spawns[2] - 2
        end = _refractory_end(fired, dt)
        assert end - fired == (13 if dt == 0.02 else 25)
        jabs, _, judged = _left_strikes(config, {1: fired, 2: end})
        assert jabs == [fired, end]
        # Quiet from the fire to the tick before e, which is judged.
        assert [k for k in judged if fired <= k < end] == [fired, end - 1]

    @pytest.mark.parametrize("dt", [0.02, 0.01])
    def test_a_rising_edge_inside_the_refractory_fires_nothing(
            self, dt) -> None:
        # The second strike crosses on e - 1, inside the refractory, and
        # its speed stays above the threshold on e: judged on e - 1, the
        # hand has no rising edge on e.  Woken on e, it would fire there.
        config = self._config(dt)
        _, spawns, _ = _left_strikes(config, {})
        fired = spawns[2] - 2
        end = _refractory_end(fired, dt)
        jabs, _, judged = _left_strikes(config, {1: fired, 2: end - 1})
        assert jabs == [fired]
        assert {end - 1, end} <= set(judged)

    @pytest.mark.parametrize("dt", [0.02, 0.01])
    @pytest.mark.parametrize("after", [1, -1], ids=["G+1", "G-1"])
    def test_a_refractory_ending_on_g_wakes_the_hand_on_g_minus_1(
            self, dt, after) -> None:
        # The session ends so that e - 1 is G, which log v1 never runs:
        # the hand is judged on G - 1, whose speed G + 1 reads as below.
        # A second strike crossing on G + 1 fires there; one crossing on
        # G - 1, inside the refractory, fires nothing on G + 1.
        _, spawns, _ = _left_strikes(self._config(dt), {})
        last = len(spawns) - 1
        fired = spawns[last] - 2
        end = _refractory_end(fired, dt)
        gameplay = end - 1
        config = self._config(dt, round(gameplay * dt, 9))
        assert round(config.duration / dt) == gameplay
        jabs, moved, judged = _left_strikes(
            config, {last - 1: fired, last: gameplay + after})
        assert moved[last] == spawns[last]
        assert jabs == ([fired, gameplay + 1] if after == 1 else [fired])
        assert not [k for k in judged if fired < k < gameplay - 1]
        assert gameplay not in judged and gameplay + 1 in judged
        if after == -1:
            assert gameplay - 1 in judged


def _plans(dt: float) -> list[tuple[int, JabPlan | WeavePlan]]:
    """Plans injected at their ticks: strikes on both hands, a preempted
    strike, and weave windows, one of which starts before its own
    injection tick (a fast cell at a coarse step)."""
    def ticks(seconds: float) -> int:
        return round(seconds / dt)

    return [
        (0, JabPlan(0, Hand.RIGHT, ticks(1.2), 2.5, (0.1, 1.4, 0.45), False, 0)),
        (0, WeavePlan(1, PoseClass.SQUAT, ticks(1.0))),
        (ticks(0.5), JabPlan(2, Hand.LEFT, ticks(1.3), 1.4, (-0.1, 1.4, 0.5),
                             False, 1)),
        (ticks(0.9), WeavePlan(3, PoseClass.SQUAT_LEAN_LEFT, ticks(1.1))),
        (ticks(1.15), JabPlan(4, Hand.RIGHT, ticks(1.3), 3.0,
                              (0.2, 1.3, 0.5), False, 2)),
        (ticks(1.2), WeavePlan(5, PoseClass.SQUAT_LEAN_RIGHT,
                               ticks(1.2) + 3)),
        (ticks(2.0), JabPlan(6, Hand.LEFT, ticks(2.6), 0.8, (0.0, 1.4, 0.6),
                             True, 3)),
    ]


class TestSparseSampling:
    @pytest.mark.parametrize("dt", [0.02, 0.1])
    @pytest.mark.parametrize("stride", [3, 7])
    def test_sparse_samples_equal_dense_ones(self, dt, stride) -> None:
        def player() -> SyntheticPlayer:
            return SyntheticPlayer(load_profile("expert"), Calibration(),
                                   random.Random(0), dt=dt)

        dense, sparse = player(), player()
        plans = _plans(dt)
        end = max(tick for tick, _ in plans) + round(1.0 / dt)
        for k in range(end):
            for tick, plan in plans:
                if tick == k:
                    dense.inject(plan, k)
                    sparse.inject(plan, k)
            want = dense.sample(k, PhaseKind.LOW)
            if k % stride == 0:
                assert sparse.sample(k, PhaseKind.LOW) == want, k
        assert sparse.hot == dense.hot

    def test_a_window_due_before_its_injection_lands_alike(self) -> None:
        # At dt 0.1 a fast cell's window can start before the cell is
        # even seen, and before a window already consumed: where it lands
        # against the activation pointer must not depend on which ticks
        # were sampled.
        def player() -> SyntheticPlayer:
            return SyntheticPlayer(load_profile("expert"), Calibration(),
                                   random.Random(0), dt=0.1)

        dense, sparse = player(), player()
        for p in (dense, sparse):
            p.inject(WeavePlan(1, PoseClass.SQUAT, 20), 0)
        for k in range(12):
            dense.sample(k, PhaseKind.LOW)
        sparse.sample(0, PhaseKind.LOW)
        for p in (dense, sparse):
            p.inject(WeavePlan(2, PoseClass.SQUAT_LEAN_LEFT, 16), 12)
        for k in range(12, 40):
            want = dense.sample(k, PhaseKind.LOW)
            assert sparse.sample(k, PhaseKind.LOW) == want, k
            if k == 16:
                # The log v1 fault (ROADMAP item 4): cell 2's window starts
                # before cell 1's, which started before tick 12, so it is
                # never shown.  On cell 2's own crossing tick the player
                # holds cell 1's plain squat, not the left lean.
                assert want.head is dense._head_for[PoseClass.SQUAT]

    def test_window_keeps_its_head(self) -> None:
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0))
        player.inject(WeavePlan(1, PoseClass.SQUAT_LEAN_LEFT, 40), 0)
        assert (player.sample(40, PhaseKind.LOW).head
                is player._head_for[PoseClass.SQUAT_LEAN_LEFT])

    @pytest.mark.parametrize("dt", [0.02, 0.1])
    def test_shuffled_reads_equal_ascending_ones(self, dt) -> None:
        def player() -> SyntheticPlayer:
            p = SyntheticPlayer(load_profile("expert"), Calibration(),
                                random.Random(0), dt=dt)
            for tick, plan in _plans(dt):
                p.inject(plan, tick)
            return p

        ascending, shuffled = player(), player()
        end = max(tick for tick, _ in _plans(dt)) + round(1.0 / dt)
        want = [ascending.sample(k, PhaseKind.LOW) for k in range(end)]
        ticks = list(range(end))
        random.Random(1).shuffle(ticks)
        got = {k: shuffled.sample(k, PhaseKind.LOW) for k in ticks}
        assert [got[k] for k in range(end)] == want
        standing = ascending._head_for[PoseClass.STANDING]
        assert any(sample.head is not standing for sample in want)


# The SHA-256 of 420 s logs (expert, PID on, seed 1) at coarse steps, as
# log v1 writes them.  Each session hides at least one weave window.
_HIDING_LOGS = {
    0.08: "87b12abe02528ec3a1d3caa0f5022ff7406bace353838b63e7bc7bfa80af2a16",
    0.1: "b0a7c7e5ca0f2febe4833db69e129569c60996aa21c041cac9fb0e18113d8cb5",
}


@pytest.mark.parametrize("dt", sorted(_HIDING_LOGS))
def test_coarse_logs_that_hide_a_weave_window_are_pinned(
        dt, monkeypatch) -> None:
    injected: list[tuple[SyntheticPlayer, WeavePlan, int]] = []
    inject = SyntheticPlayer.inject

    def recording_inject(self, plan, now_tick):
        if isinstance(plan, WeavePlan):
            injected.append((self, plan, now_tick))
        inject(self, plan, now_tick)

    monkeypatch.setattr(SyntheticPlayer, "inject", recording_inject)
    config = SessionConfig(seed=1, profile=load_profile("expert"),
                           pid_enabled=True, dt=dt)
    lines = run_session(config).lines
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8"))
    assert digest.hexdigest() == _HIDING_LOGS[dt]
    # Log v1 hides a window injected on tick n that starts before n and
    # before another held window that starts before n (ROADMAP item 4).
    starts: list[int] = []
    hidden = 0
    for _, plan, now_tick in injected:
        start = plan.cross_tick - WEAVE_LEAD_TICKS
        hidden += any(start < other < now_tick for other in starts)
        starts.append(start)
    assert hidden >= 1
    player = injected[0][0]
    assert player._weaves.count(None) == hidden


def _window_start(tick: int, dt: float, skip: int | None = None) -> int:
    """The oldest tick a detector fed every tick but ``skip`` keeps in its
    window on ``tick``: a plain scan from tick 0."""
    horizon = tick * dt - VELOCITY_WINDOW - 1e-9
    return next(j for j in itertools.count()
                if j == tick or (j != skip and j * dt >= horizon))


def _judged_jabs(player: SyntheticPlayer, detector: JabDetector,
                 tick: int) -> list:
    """The jabs of the hands ``tick`` is marked hot for, judged from the
    ends of their windows as ``run_session`` judges them."""
    dt = player.dt
    if tick >= len(player.hot) or not player.hot[tick]:
        return []
    t = tick * dt
    start_tick = _window_start(tick, dt)
    events = []
    for i, track in enumerate(player.tracks):
        if player.hot[tick] & track.mark:
            start, end = track.ends(start_tick, tick)
            jab = detector.judge(i, t, (tick - 1) * dt,
                                 t - start_tick * dt, start, end)
            if jab is not None:
                events.append(jab)
    return events


def _streams(injections: dict[int, list[JabPlan]], ticks: int,
             **kwargs) -> tuple[list, list]:
    """The jabs a detector fed every tick fires, and those judged on the
    marked ticks alone, for plans injected on their ticks."""
    streams = []
    for marked_only in (False, True):
        source, detector, events = _player(**kwargs), JabDetector(), []
        for k in range(ticks):
            for plan in injections.get(k, ()):
                source.inject(plan, k)
            if marked_only:
                events += _judged_jabs(source, detector, k)
            else:
                events += detector.update(source.sample(k, PhaseKind.LOW))
        streams.append(events)
    return streams[0], streams[1]


def _player(dt: float = 0.02, **kwargs) -> SyntheticPlayer:
    return SyntheticPlayer(load_profile("expert"), Calibration(),
                           random.Random(0), dt=dt, **kwargs)


AIM = (0.1, 1.4, 0.45)


class TestHandMarks:
    def test_a_strike_marks_its_own_hand_after_its_rebuild(self) -> None:
        dt = 0.02
        player = _player(dt)
        # The left hand's mark is there beforehand and must stay alone.
        player.inject(JabPlan(0, Hand.LEFT, 30, 2.5, (-0.1, 1.4, 0.45),
                              False, 0), 0)
        left = bytes(player.hot)
        assert set(left) == {0, LEFT_MARK}
        now = 40
        player.inject(JabPlan(1, Hand.RIGHT, 60, 2.5, AIM, False, 1), now)
        lead = player.lead
        assert lead == 5
        knots = player.tracks[1].knots
        (t0, t1), = [(a[0], b[0]) for a, b in zip(knots, knots[1:])
                     if a[1] is not b[1] and b[0] == 60 * dt]
        first = next(k for k in range(100) if k * dt > t0)
        last = max(k for k in range(100) if k * dt < t1)
        right = [k for k, byte in enumerate(player.hot) if byte & RIGHT_MARK]
        assert right == list(range(first, last + lead + 1))
        assert first > now
        assert bytes(byte & LEFT_MARK for byte in player.hot) == \
            left + bytes(len(player.hot) - len(left))

    def test_a_rebuild_keeps_the_old_chains_marks(self) -> None:
        fast = JabPlan(0, Hand.RIGHT, 100, 2.5, AIM, False, 0)
        # A slow strike one tick later preempts the marked one while its
        # hand holds, and the new chain marks nothing: the old chain's
        # marks stay, past the ticks whose window looks back into it too.
        now, slow = 96, JabPlan(1, Hand.RIGHT, 101, 0.9, AIM, False, 1)
        marked = _player(horizon=200)
        marked.inject(fast, 0)
        before = bytes(marked.hot)
        marked.inject(slow, now)
        keep = now + marked.lead + 2
        assert any(before[now:keep]) and any(before[keep:])
        assert bytes(marked.hot) == before

        # Judged on those ticks, the jabs are a dense detector's, up to a
        # later fast strike on the same hand drawn on the same tick.
        later = JabPlan(2, Hand.RIGHT, 140, 3.0, (0.2, 1.3, 0.6), False, 2)
        dense, sparse = _streams({0: [fast], now: [slow, later]}, 200,
                                 horizon=200)
        assert dense and sparse == dense

    def test_slow_motion_marks_nothing(self) -> None:
        # A strike below the hot speed: reposition, hold, strike and
        # retract all stay cold.
        player = _player()
        player.inject(JabPlan(0, Hand.LEFT, 80, 0.9, (0.3, 1.6, 0.8),
                              False, 0), 0)
        assert len(player.tracks[0].knots) > 3
        assert not any(player.hot)

    def test_a_relaid_chain_fires_alike_on_its_marked_ticks(self) -> None:
        # Plans A and B wait on one hand, B repositioning from where A's
        # strike ends.  On tick 100 a new plan N preempts A, which was due
        # to strike on tick 104, and the rebuild re-lays B behind N.
        # Judged on the marked ticks alone, the jabs are a dense
        # detector's.
        a = JabPlan(0, Hand.RIGHT, 104, 3.0, (0.1, 1.4, 0.45), False, 0)
        b = JabPlan(1, Hand.RIGHT, 124, 2.0, (0.2, 1.3, 0.5), False, 1)
        n = JabPlan(2, Hand.RIGHT, 111, 3.0, (0.0, 1.5, 0.5), False, 2)
        player = _player(horizon=200)
        player.inject(a, 0)
        player.inject(b, 0)
        player.inject(n, 100)
        assert [p.entity_id for p in player.tracks[1].plans] == [2, 1]
        dense, sparse = _streams({0: [a, b], 100: [n]}, 200, horizon=200)
        assert [event.time for event in dense] == pytest.approx([2.22, 2.48])
        assert sparse == dense

    @pytest.mark.parametrize("dt", [0.02, 0.035, 0.1])
    def test_a_window_start_across_a_rebuild_is_the_dense_position(
            self, dt) -> None:
        # A strike on the right hand, and a rebuild on each tick around
        # it: read only from the rebuild on, every window that starts
        # before it comes off the chain it replaced, and gives the value
        # a densely sampled hand gave on that tick, or its very tuple on
        # a hold.
        strike = round(1.2 / dt)
        first = JabPlan(0, Hand.RIGHT, strike, 2.5, AIM, False, 0)
        preempt = JabPlan(1, Hand.RIGHT, strike + round(0.6 / dt), 3.0,
                          (0.2, 1.3, 0.5), False, 1)
        across = 0
        for rebuild in range(strike - 8, strike + 3):
            dense, sparse = _player(dt), _player(dt)
            positions = []
            for k in range(rebuild + 3 * dense.lead):
                for player in (dense, sparse):
                    if k == 0:
                        player.inject(first, k)
                    if k == rebuild:
                        player.inject(preempt, k)
                positions.append(dense.sample(k, PhaseKind.LOW).right_hand)
                if k < rebuild:
                    continue
                start = _window_start(k, dt)
                got = sparse.tracks[1].ends(start, k)
                want = (positions[start], positions[k])
                assert got == want, (rebuild, k)
                assert (got[0] is got[1]) == (want[0] is want[1])
                across += start < rebuild and got[0] != got[1]
        assert across >= 3

    def test_two_rebuilds_on_one_tick_keep_the_older_chain(self) -> None:
        # The first plan's strike ends on tick 60, after a hold from tick
        # 53.  The chain the first rebuild on tick 60 lays never holds on
        # any tick: a window that starts before 60 reads the chain before
        # it, which holds still there.
        dt = 0.02
        plans = [JabPlan(0, Hand.RIGHT, 60, 2.5, AIM, False, 0),
                 JabPlan(1, Hand.RIGHT, 90, 3.0, (0.2, 1.3, 0.5), False, 1),
                 JabPlan(2, Hand.RIGHT, 120, 2.0, (0.0, 1.5, 0.5), False, 2)]
        dense, sparse = _player(dt), _player(dt)
        for player in (dense, sparse):
            player.inject(plans[0], 0)
        positions = [dense.sample(k, PhaseKind.LOW).right_hand
                     for k in range(60)]
        for player in (dense, sparse):
            player.inject(plans[1], 60)
            player.inject(plans[2], 60)
        positions.append(dense.sample(60, PhaseKind.LOW).right_hand)
        track = sparse.tracks[1]
        assert track._since == 60
        start = _window_start(60, dt)
        assert start == 55
        got = track.ends(start, 60)
        assert got == (positions[55], positions[60])
        # The hold's own tuple, which the old chain holds on from tick 5.
        assert got[0] is track._old[1][1] is not got[1]

    def test_rebuilds_closer_than_the_window_raise(self) -> None:
        # A window could then span three chains.
        lead = _player().lead
        plans = [JabPlan(0, Hand.RIGHT, 60, 2.5, AIM, False, 0),
                 JabPlan(1, Hand.RIGHT, 90, 3.0, (0.2, 1.3, 0.5), False, 1)]
        player = _player()
        player.inject(plans[0], 40)
        with pytest.raises(RuntimeError, match="velocity window"):
            player.inject(plans[1], 40 + lead - 1)
        player = _player()
        player.inject(plans[0], 40)
        player.inject(plans[1], 40 + lead)
        # Either hand keeps its own count: the left hand may rebuild at once.
        player.inject(JabPlan(2, Hand.LEFT, 70, 2.5, (-0.1, 1.4, 0.45),
                              False, 2), 40 + lead + 1)

    @pytest.mark.parametrize("dt", [0.035, 0.07])
    def test_the_spawn_tick_is_the_per_tick_loops(self, dt) -> None:
        # The per-tick loop spawns on the first tick k with
        # time <= k * dt + 1e-9; rounding decides it near tick boundaries.
        for k in range(2000):
            for time in (k * dt - 1e-9, k * dt, k * dt + 1e-9):
                want = next(j for j in itertools.count()
                            if time <= j * dt + 1e-9)
                assert first_tick(time, dt, 1e-9) == want, (k, time)

    def test_horizon_sizes_the_marks(self) -> None:
        player = _player(horizon=300)
        assert len(player.hot) == 300 and not any(player.hot)


def _mark_whole_chain(track: _HandTrack) -> None:
    """Mark, under the track's bit, every tick whose velocity window
    overlaps a segment of its whole chain at ``_HOT_SPEED`` or faster:
    from the first tick after the segment starts to ``lead`` ticks after
    the last tick before it ends.  The reference for the marks a rebuild
    adds, which look only at its new strikes."""
    dt, hot, knots = track.dt, track.hot, track.knots
    for (t0, p0), (t1, p1) in zip(knots, knots[1:]):
        dx, dy, dz = (b - a for a, b in zip(p0, p1))
        limit = playersim._HOT_SPEED * (t1 - t0)
        if p1 is p0 or dx * dx + dy * dy + dz * dz < limit * limit:
            continue
        near = range(max(0, math.floor(t0 / dt) - 2), math.ceil(t1 / dt) + 2)
        first = min(k for k in near if k * dt > t0)
        last = max(k for k in near if k * dt < t1)
        stop = last + track.lead + 1
        hot.extend(bytes(max(0, stop - len(hot))))
        for k in range(first, stop):
            hot[k] |= track.mark


@contextlib.contextmanager
def _whole_chain_marks():
    """Mark each rebuilt chain with ``_mark_whole_chain`` alone."""
    rebuild = _HandTrack._rebuild

    def marking_rebuild(self, *args):
        rebuild(self, *args)
        _mark_whole_chain(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_HandTrack, "_rebuild", marking_rebuild)
        patch.setattr(_HandTrack, "_mark_hot", lambda self, start, end: None)
        yield


class TestMarksOfTheWholeChain:
    """A rebuild marks only its new strikes and its first segment; the
    marks equal those of every fast segment of every chain."""

    @pytest.mark.parametrize("pid", [True, False], ids=["pid", "no-pid"])
    @pytest.mark.parametrize("dt", [0.01, 0.02, 0.05])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_a_session_marks_what_the_whole_chains_mark(
            self, profile, dt, pid) -> None:
        config = SessionConfig(seed=SEED, profile=load_profile(profile),
                               dt=dt, pid_enabled=pid)
        players: list[SyntheticPlayer] = []
        init = SyntheticPlayer.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            players.append(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SyntheticPlayer, "__init__", recording_init)
            got = run_session(config).lines
            with _whole_chain_marks():
                want = run_session(config).lines
        assert got == want
        marks, reference = (bytes(player.hot) for player in players)
        assert any(marks) and marks == reference

    def test_a_strike_cut_short_on_the_rebuild_tick_is_marked(self) -> None:
        # A strike a rounding above _HOT_SPEED tests slower whole, but
        # as fast once a rebuild on tick 95 cuts it short: the rebuild
        # keeps the plan, yet must mark the chain's first segment.
        strike = JabPlan(0, Hand.RIGHT, 100, 0.9500000000000002,
                         (-0.024520960853599005, 1.3077117909765685,
                          0.5739981547331244), False, 0)
        later = JabPlan(1, Hand.RIGHT, 160, 3.0, (0.2, 1.3, 0.5), False, 1)
        marks = []
        for reference in (False, True):
            player = _player(horizon=300)
            with (_whole_chain_marks() if reference
                  else contextlib.nullcontext()):
                player.inject(strike, 0)
                assert not any(player.hot[:106])
                player.inject(later, 95)
            assert [p.seq for p in player.tracks[1].plans] == [0, 1]
            marks.append(bytes(player.hot))
        assert any(marks[0][96:106]) and marks[0] == marks[1]


class TestRebuildSpacing:
    def test_spawns_closer_than_the_velocity_window_raise(self) -> None:
        # Two viruses for one hand less than a window apart rebuild its
        # chain twice within the window, so a window could span three
        # chains.  The player refuses rather than guess, under either
        # loop.
        config = SessionConfig(seed=SEED, profile=load_profile("mid_skill"),
                               pid_enabled=False, duration=10.0)
        fast = SpawnParams(interval=0.9 * VELOCITY_WINDOW, speed=5.7)
        # The plan cache is keyed on the config alone, not on the spawn
        # constants: clear it before and after running with these.
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(protocol, "LOW_INTENSITY_SPAWN", fast)
                patch.setattr(protocol, "SPRINT_SPAWN", fast)
                _plan.cache_clear()
                for run in (run_session_per_tick, run_session):
                    with pytest.raises(RuntimeError, match="velocity window"):
                        run(config)
        finally:
            _plan.cache_clear()


class TestStepBound:
    def test_a_step_longer_than_the_velocity_window_is_rejected(self) -> None:
        config = SessionConfig(seed=0, profile=load_profile("mid_skill"),
                               dt=0.12, duration=60.0)
        with pytest.raises(ValueError, match="velocity window"):
            config.validate()
        with pytest.raises(ValueError, match="velocity window"):
            run_session(config)

    def test_a_step_of_one_window_still_fires(self) -> None:
        config = SessionConfig(seed=0, profile=load_profile("mid_skill"),
                               pid_enabled=False, dt=VELOCITY_WINDOW,
                               duration=60.0)
        lines = run_session(config).lines
        assert sum('"type":"jab"' in line for line in lines) > 10
        assert lines == run_session_per_tick(config).lines
