"""The gated session loop writes the log the per-tick loop writes.

``run_session`` samples the player and feeds the jab detector only on
the ticks the player marks hot: those any of the hands' knot chains has
marked, with the lead ticks before them, and the lead ticks before each
virus's spawn.  Marks are only ever added, so a chain a rebuild replaced
keeps its marks.  It samples a tick a cell crosses on for the head pose
alone.  ``per_tick_oracle`` keeps the loop that samples and feeds every
tick.  These tests hold the two to the same log, line for line, across
the valid config space; check the marks and the loop's guards against a
wrong mark; and check the player's side of the bargain: sampled
sparsely, it answers as if sampled densely.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from per_tick_oracle import run_session_per_tick
from test_config_properties import session_configs
from virusboxing import protocol
from virusboxing.interaction import (
    VELOCITY_WINDOW,
    Calibration,
    Hand,
    JabDetector,
    JabEvent,
    PoseClass,
    TargetingMode,
    TargetingPolicy,
)
from virusboxing.playersim import (
    HAND_MARKS,
    SPAWN_LEAD_MARK,
    _HOT_SPEED,
    JabPlan,
    SyntheticPlayer,
    WeavePlan,
    _HandTrack,
    load_profile,
)
from virusboxing.protocol import PhaseKind, SpawnParams, phase_at
from virusboxing.session import SessionConfig, _plan, _spawn_tick, run_session
from virusboxing.world import EntityKind

# Not a seed the golden logs pin (they use 0, 1 and 2).
SEED = 5
PROFILES = ("expert", "mid_skill", "novice")
TARGETING = {"pt": TargetingMode.PRECISE, "rt": TargetingMode.ROUGH}
RED = EntityKind.RED_VIRUS


def _assert_same_log(config: SessionConfig) -> list[str]:
    want = run_session_per_tick(config).lines
    got = run_session(config).lines
    for i, (a, b) in enumerate(zip(want, got)):
        assert a == b, f"line {i + 1} differs"
    assert len(got) == len(want)
    return got


def _late_marks(before: bytes, hot: bytearray) -> list[int]:
    """The ticks ``before`` covers that ``hot`` marks and ``before`` did
    not: marks that came after their tick was run."""
    return [k for k, byte in enumerate(before) if hot[k] and not byte]


def _assert_no_late_marks(config: SessionConfig) -> None:
    """Run ``config`` checking that no plan's rebuild marks a tick already
    run that was not marked before, then hold its log to the per-tick
    one.  The spawn lead must have marked, before they were run, the
    ticks before the spawn that the rebuilt chain marks; a rebuild's
    marks reach back at most the velocity window before the spawn."""
    observe = SyntheticPlayer.observe_spawn
    rebuilds = []

    def checked_observe(self, entity, now_tick, empowered_until):
        start = max(0, now_tick - 2 * self.lead - self._hot_strike_ticks)
        before = bytes(self.hot[start:now_tick])
        observe(self, entity, now_tick, empowered_until)
        late = _late_marks(before, self.hot[start:now_tick])
        assert late == [], [start + k for k in late]
        rebuilds.append(now_tick)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SyntheticPlayer, "observe_spawn", checked_observe)
        got = run_session(config).lines
    assert got == run_session_per_tick(config).lines
    assert rebuilds or config.duration < 1.0


@pytest.mark.parametrize("reaction", [0.0, 0.06, 0.12, 0.18])
@pytest.mark.parametrize("dt", [0.02, 0.035, 0.07])
@pytest.mark.parametrize("profile", PROFILES)
def test_no_rebuild_marks_a_tick_already_run(profile, dt, reaction) -> None:
    quick = dataclasses.replace(load_profile(profile), reaction_time=reaction)
    _assert_no_late_marks(SessionConfig(seed=SEED, profile=quick, dt=dt,
                                        duration=63.0))


@st.composite
def _session_configs_with_quick_reactions(draw) -> SessionConfig:
    """``session_configs``, half of them with a reaction time cut to at
    most 0.1 s.  The built-in profiles react in 0.18 s or more; faster, a
    new plan can strike so soon that the hot span its chain opens reaches
    back past its own spawn tick."""
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
    _assert_no_late_marks(config)


@pytest.mark.parametrize("targeting", sorted(TARGETING))
@pytest.mark.parametrize("profile", PROFILES)
def test_full_session_equals_the_per_tick_log(profile, targeting) -> None:
    config = SessionConfig(seed=SEED, profile=load_profile(profile),
                           targeting=TargetingPolicy(TARGETING[targeting]))
    lines = _assert_same_log(config)
    assert sum('"type":"jab"' in line for line in lines) > 100


# At coarse steps the velocity window is one to three ticks, so a lead
# that starts a tick late shows at once.  At the finer steps, sessions that
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
    # With no reaction time a new plan can strike at once, so the hot
    # span its chain opens needs lead ticks from before the spawn.
    instant = dataclasses.replace(load_profile(profile), reaction_time=0.0)
    _assert_same_log(SessionConfig(seed=SEED, profile=instant, dt=dt,
                                   duration=126.0))


def test_a_crossing_just_before_an_instant_strike_equals_the_per_tick_log(
        ) -> None:
    # At seed 3 a cell crosses on tick 6046 (120.92 s), the detector's
    # only fed tick for a while, and a red virus spawns on tick 6047 while
    # the player is empowered.  With no reaction time and rough long-range
    # targeting its plan strikes at once, so the hot span the new chain
    # opens reaches back past the crossing: the ticks before it must have
    # been fed too, or the detector's window starts at the crossing and
    # reads the one-tick strike as a jab the per-tick loop never fires.
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
    # The right hand's new plan strikes at once, so the ticks before the
    # left hand's run must have been fed, or the detector's window starts
    # at that run and reads the strike as faster than it is.
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


class TestSampledTicks:
    @pytest.fixture(scope="class")
    def runs(self):
        """Each loop's sampled ticks with their phase kinds, and the ticks
        on which the per-tick loop's detector fired; then the gated loop's
        fed ticks and its player's final hot marks."""
        config = SessionConfig(seed=SEED, profile=load_profile("mid_skill"))
        dt = config.dt
        sample, feed = SyntheticPlayer.sample, JabDetector.feed
        calls: list[tuple[int, PhaseKind]] = []
        fired: list[int] = []
        fed: list[int] = []
        players: list[SyntheticPlayer] = []

        def recording_sample(self, tick, phase_kind):
            calls.append((tick, phase_kind))
            players.append(self)
            return sample(self, tick, phase_kind)

        def recording_feed(self, now, left, right):
            fed.append(round(now / dt))
            events = feed(self, now, left, right)
            if events:
                fired.append(round(now / dt))
            return events

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SyntheticPlayer, "sample", recording_sample)
            patch.setattr(JabDetector, "feed", recording_feed)
            oracle = run_session_per_tick(config)
            oracle_calls, oracle_fired = calls[:], fired[:]
            calls.clear()
            fired.clear()
            fed.clear()
            gated = run_session(config)
        assert gated.lines == oracle.lines
        marks = bytes(players[-1].hot)
        return (config, oracle, oracle_calls, oracle_fired, calls, fired,
                fed, marks)

    def test_ticks_are_sampled_once_in_order(self, runs) -> None:
        _, _, _, _, calls, _, _, _ = runs
        ticks = [tick for tick, _ in calls]
        assert ticks == sorted(set(ticks))

    def test_every_sampled_tick_gets_its_phase_kind(self, runs) -> None:
        config, _, _, _, calls, _, _, _ = runs
        gameplay = round(config.duration / config.dt)
        for tick, kind in calls:
            if tick < gameplay:
                assert kind is phase_at(tick * config.dt).kind, tick
            else:
                assert kind is PhaseKind.ENDED, tick

    def test_fired_and_crossing_ticks_are_sampled(self, runs) -> None:
        # The detector reads the hands alone: a fired tick is fed, and a
        # tick a cell crosses on is sampled whole for its head.
        config, oracle, _, oracle_fired, calls, fired, fed, _ = runs
        sampled = {tick for tick, _ in calls}
        assert oracle_fired and fired == oracle_fired
        assert set(oracle_fired) <= set(fed)
        rows = [json.loads(line) for line in oracle.lines]
        cell_ticks = {round(row["t"] / config.dt) for row in rows
                      if row["type"] == "cross" and "pose" in row}
        assert cell_ticks and cell_ticks == sampled

    def test_fewer_than_half_the_ticks_are_sampled(self, runs) -> None:
        _, _, oracle_calls, _, calls, _, fed, _ = runs
        assert len(calls) < len(oracle_calls) / 2
        assert len(fed) < len(oracle_calls) / 2

    def test_ticks_are_fed_once_in_order(self, runs) -> None:
        _, _, _, _, _, _, fed, marks = runs
        assert fed and fed == sorted(set(fed))
        # Fed on exactly the ticks marked hot.
        assert fed == [tick for tick in range(fed[-1] + 1) if marks[tick]]

    def test_only_cold_crossing_ticks_are_sampled_unfed(self, runs) -> None:
        # A tick is fed when it is marked hot, and a mark on a tick already
        # run is never cleared; a cell crossing on an unmarked tick is
        # sampled for its head pose alone.
        config, oracle, _, _, calls, _, fed, marks = runs
        rows = [json.loads(line) for line in oracle.lines]
        cold_cell_ticks = {round(row["t"] / config.dt) for row in rows
                           if row["type"] == "cross" and "pose" in row
                           and not marks[round(row["t"] / config.dt)]}
        assert cold_cell_ticks
        assert {tick for tick, _ in calls} - set(fed) == cold_cell_ticks


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
            assert sparse.sample(k, PhaseKind.LOW) == \
                dense.sample(k, PhaseKind.LOW), k

    def test_window_keeps_its_head(self) -> None:
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0))
        player.inject(WeavePlan(1, PoseClass.SQUAT_LEAN_LEFT, 40), 0)
        (window,) = player._weaves
        assert window.head is player._head_for[PoseClass.SQUAT_LEAN_LEFT]
        assert player.sample(40, PhaseKind.LOW).head is window.head

    def test_expired_windows_are_dropped_in_place(self) -> None:
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0))
        player.inject(WeavePlan(1, PoseClass.SQUAT, 40), 0)
        player.inject(WeavePlan(2, PoseClass.SQUAT, 80), 0)
        active = player._active
        player.sample(40, PhaseKind.LOW)
        assert [w.entity_id for w in active] == [1]
        player.sample(70, PhaseKind.LOW)
        assert player._active is active
        assert [w.entity_id for w in active] == [2]
        player.sample(200, PhaseKind.LOW)
        assert player._active is active and not active


def _expert_reacting_in(reaction_time: float, **kwargs) -> SyntheticPlayer:
    """An expert player with another reaction time.  Reacting at once, a
    new plan can strike on the tick after its spawn, so its spawn lead is
    the whole window."""
    profile = dataclasses.replace(load_profile("expert"),
                                  reaction_time=reaction_time)
    return SyntheticPlayer(profile, Calibration(), random.Random(0), **kwargs)


class TestHotMarks:
    def test_a_strike_marks_its_window_and_lead(self) -> None:
        dt = 0.02
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0), dt=dt)
        player.inject(JabPlan(0, Hand.RIGHT, 60, 2.5, (0.1, 1.4, 0.45),
                              False, 0), 0)
        lead = player.lead
        assert lead == 5
        knots = player._right.knots
        (t0, t1), = [(a[0], b[0]) for a, b in zip(knots, knots[1:])
                     if a[1] is not b[1] and b[0] == 60 * dt]
        first = next(k for k in range(100) if k * dt > t0)
        last = max(k for k in range(100) if (k - lead) * dt < t1)
        marked = [k for k, byte in enumerate(player.hot) if byte]
        assert marked == list(range(first - lead, last + 1))
        assert all(byte == HAND_MARKS for byte in player.hot if byte)

    def test_a_rebuild_keeps_the_old_chains_marks(self) -> None:
        def player() -> SyntheticPlayer:
            return SyntheticPlayer(load_profile("expert"), Calibration(),
                                   random.Random(0), horizon=200)

        aim = (0.1, 1.4, 0.45)
        fast = JabPlan(0, Hand.RIGHT, 100, 2.5, aim, False, 0)
        # A slow strike one tick later preempts the marked one while its
        # hand holds, and the new chain marks nothing: the old chain's
        # marks stay, past the ticks whose window looks back into it too.
        now, slow = 96, JabPlan(1, Hand.RIGHT, 101, 0.9, aim, False, 1)
        marked = player()
        marked.inject(fast, 0)
        before = bytes(marked.hot)
        marked.inject(slow, now)
        keep = now + marked.lead + 2
        assert any(before[now:keep]) and any(before[keep:])
        assert bytes(marked.hot) == before

        # Fed on those ticks, a detector fires as one fed every tick: the
        # same jabs, up to a later fast strike on the same hand.
        later = JabPlan(2, Hand.RIGHT, 140, 3.0, (0.2, 1.3, 0.6), False, 2)
        streams = []
        for marked_only in (False, True):
            source, detector, events = player(), JabDetector(), []
            for k in range(200):
                if k == 0:
                    source.inject(fast, k)
                if k == now:
                    source.inject(slow, k)
                    source.inject(later, k)
                if marked_only and not source.hot[k]:
                    continue
                events += detector.update(source.sample(k, PhaseKind.LOW))
            streams.append(events)
        dense, sparse = streams
        assert dense and sparse == dense

    def test_slow_motion_marks_nothing(self) -> None:
        # A strike below the hot speed: reposition, hold, strike and
        # retract all stay cold.
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0))
        player.inject(JabPlan(0, Hand.LEFT, 80, 0.9, (0.3, 1.6, 0.8),
                              False, 0), 0)
        assert len(player._left.knots) > 3
        assert not any(player.hot)

    def test_a_spawn_lead_marks_the_ticks_before_its_spawn(self) -> None:
        player = _expert_reacting_in(0.0)
        spawn, lead = 40, player.lead
        player.mark_spawn_lead(RED, spawn, 30)
        marked = [k for k, byte in enumerate(player.hot) if byte]
        assert marked == list(range(spawn + 1 - lead, spawn))
        assert all(byte == SPAWN_LEAD_MARK for byte in player.hot if byte)

    def test_a_spawn_lead_of_one_tick_marks_nothing(self) -> None:
        # At dt 0.1 the window is one tick: a new chain's run needs no
        # tick before its spawn.
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0), dt=0.1)
        assert player.lead == 1
        player.mark_spawn_lead(RED, 40, 30)
        assert not any(player.hot)

    def test_a_spawn_lead_leaves_the_hand_marks(self) -> None:
        player = _expert_reacting_in(0.0)
        player.inject(JabPlan(0, Hand.RIGHT, 60, 2.5, (0.1, 1.4, 0.45),
                              False, 0), 0)
        before = bytes(player.hot)
        first = next(k for k, byte in enumerate(before) if byte)
        spawn = first + 2
        player.mark_spawn_lead(RED, spawn, 0)
        after = bytes(player.hot)
        assert bytes(byte & HAND_MARKS for byte in after) == before
        lead_ticks = range(spawn + 1 - player.lead, spawn)
        assert [k for k, byte in enumerate(after)
                if byte & SPAWN_LEAD_MARK] == list(lead_ticks)

    def test_a_lead_that_is_not_after_the_current_tick_raises(self) -> None:
        player = _expert_reacting_in(0.0)
        start = 40 + 1 - player.lead
        with pytest.raises(RuntimeError, match="lead"):
            player.mark_spawn_lead(RED, 40, start)
        assert not any(player.hot)
        player.mark_spawn_lead(RED, 40, start - 1)
        assert player.hot[start]

    def test_a_quarter_second_reaction_marks_no_spawn_lead(self) -> None:
        # At dt 0.02 a new plan strikes no earlier than 12 ticks after the
        # tick before its spawn, and a hot strike lasts at most 6 ticks:
        # its run's lead starts on the spawn tick.  A pending strike
        # changes nothing: the rebuild never starts it earlier.
        player = _expert_reacting_in(0.25)
        player.mark_spawn_lead(RED, 40, 30)
        assert not any(player.hot)
        player.inject(JabPlan(0, Hand.LEFT, 42, 0.9, (-0.1, 1.4, 0.5),
                              False, 0), 0)
        player.inject(JabPlan(1, Hand.RIGHT, 40, 2.5, (0.1, 1.4, 0.45),
                              False, 1), 0)
        hand_marks = bytes(player.hot)
        player.mark_spawn_lead(RED, 40, 30)
        assert bytes(player.hot) == hand_marks
        assert not any(byte & SPAWN_LEAD_MARK for byte in player.hot)

    def test_a_relaid_chain_fires_alike_on_its_marked_ticks(self) -> None:
        # Plans A and B wait on one hand, B repositioning from where A's
        # strike ends.  On tick 100 a new plan N preempts A, which was due
        # to strike on tick 104, and the rebuild re-lays B behind N.  Fed
        # only the ticks marked by then, a detector fires as one fed every
        # tick, and no tick before 100 gets a mark it lacked.
        a = JabPlan(0, Hand.RIGHT, 104, 3.0, (0.1, 1.4, 0.45), False, 0)
        b = JabPlan(1, Hand.RIGHT, 124, 2.0, (0.2, 1.3, 0.5), False, 1)
        n = JabPlan(2, Hand.RIGHT, 111, 3.0, (0.0, 1.5, 0.5), False, 2)
        streams = []
        for marked_only in (False, True):
            source = _expert_reacting_in(0.25, horizon=200)
            detector, events = JabDetector(), []
            for k in range(200):
                if k == 0:
                    source.inject(a, k)
                    source.inject(b, k)
                if k == 90:
                    source.mark_spawn_lead(RED, 100, k)
                if k == 100:
                    before = bytes(source.hot[:k])
                    source.inject(n, k)
                    assert [p.entity_id for p in source._right.plans] == [2, 1]
                    assert _late_marks(before, source.hot) == []
                if marked_only and not source.hot[k]:
                    continue
                t = k * source.dt
                events += detector.feed(t, *source.hands(t))
            streams.append(events)
        dense, sparse = streams
        assert [event.time for event in dense] == pytest.approx([2.22, 2.48])
        assert sparse == dense

    @pytest.mark.parametrize("reaction", [0.0, None])
    @pytest.mark.parametrize("dt", [0.02, 0.07])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_a_relaid_strike_never_starts_earlier(self, profile, dt,
                                                  reaction) -> None:
        # A rebuild re-lays the pending plans of its hand behind the new
        # one.  None of their hot strikes starts before it did in the
        # chain it replaces, whose marks stay: so the lead before each of
        # them is marked already, and the spawn lead need not cover it.
        add = _HandTrack.add
        relaid = 0

        def strike_starts(track) -> dict[int, float]:
            """Each pending hot plan's strike start, by seq: the knot
            before the one its strike ends on."""
            times = [t for t, _ in track.knots]
            return {plan.seq: times[times.index(plan.strike_tick * dt) - 1]
                    for plan in track.plans if plan.speed >= _HOT_SPEED}

        def checked_add(self, plan, now_tick):
            nonlocal relaid
            before, marks = strike_starts(self), bytes(self.hot)
            add(self, plan, now_tick)
            for seq, start in strike_starts(self).items():
                if seq not in before:
                    continue
                relaid += 1
                assert start >= before[seq], (now_tick, seq)
                first = next(k for k in itertools.count(now_tick)
                             if k * dt > start)
                assert all(marks[max(0, first - self.lead):first]), (
                    now_tick, seq)

        quick = load_profile(profile)
        if reaction is not None:
            quick = dataclasses.replace(quick, reaction_time=reaction)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_HandTrack, "add", checked_add)
            run_session(SessionConfig(seed=SEED, profile=quick, dt=dt,
                                      duration=63.0))
        assert relaid

    @pytest.mark.parametrize("dt", [0.035, 0.07])
    def test_the_spawn_tick_is_the_per_tick_loops(self, dt) -> None:
        # The per-tick loop spawns on the first tick k with
        # time <= k * dt + 1e-9; rounding decides it near tick boundaries.
        for k in range(2000):
            for time in (k * dt - 1e-9, k * dt, k * dt + 1e-9):
                want = next(j for j in itertools.count()
                            if time <= j * dt + 1e-9)
                assert _spawn_tick(time, dt) == want, (k, time)

    def test_horizon_sizes_the_marks(self) -> None:
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0), horizon=300)
        assert len(player.hot) == 300 and not any(player.hot)


class TestGuards:
    def test_a_jab_on_a_tick_only_a_spawn_lead_marks_raises(self) -> None:
        # With no reaction time every virus gets its whole spawn lead, so
        # some ticks carry that mark alone.
        instant = dataclasses.replace(load_profile("mid_skill"),
                                      reaction_time=0.0)
        config = SessionConfig(seed=SEED, profile=instant, duration=30.0)
        mark, feed = SyntheticPlayer.mark_spawn_lead, JabDetector.feed
        players: list[SyntheticPlayer] = []

        def recording_mark(self, kind, spawn_tick, now_tick):
            players.append(self)
            mark(self, kind, spawn_tick, now_tick)

        def firing_feed(self, now, left, right):
            events = feed(self, now, left, right)
            tick = round(now / config.dt)
            if players[-1].hot[tick] == SPAWN_LEAD_MARK:
                events.append(JabEvent(now, Hand.RIGHT, 2.0, right,
                                       (0.0, 0.0, 1.0)))
            return events

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SyntheticPlayer, "mark_spawn_lead", recording_mark)
            patch.setattr(JabDetector, "feed", firing_feed)
            with pytest.raises(RuntimeError, match="no hand marks"):
                run_session(config)

    def test_spawns_closer_than_the_velocity_window_raise(self) -> None:
        # A virus drawn less than a window before its spawn tick leaves no
        # time to feed its lead in order.  The per-tick loop needs no lead
        # and runs on; the gated loop refuses rather than guess.  With no
        # reaction time every virus has a spawn lead.
        instant = dataclasses.replace(load_profile("mid_skill"),
                                      reaction_time=0.0)
        config = SessionConfig(seed=SEED, profile=instant,
                               pid_enabled=False, duration=10.0)
        fast = SpawnParams(interval=0.9 * VELOCITY_WINDOW, speed=5.7)
        # The plan cache is keyed on the config alone, not on the spawn
        # constants: clear it before and after running with these.
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(protocol, "LOW_INTENSITY_SPAWN", fast)
                patch.setattr(protocol, "SPRINT_SPAWN", fast)
                _plan.cache_clear()
                assert run_session_per_tick(config).lines
                with pytest.raises(RuntimeError, match="lead"):
                    run_session(config)
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
