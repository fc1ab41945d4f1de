"""The quiet-tick fast paths agree with the general computations.

The session writes each log row from a fixed ``%``-format template,
``PoseSample`` is a named tuple, ``SyntheticPlayer.sample`` finds the
head by bisecting the weave plans' cross ticks, a hand track's ``ends``
gives what ``sample`` gave on both ends of a velocity window, and a
held hand is one tuple from tick to tick.  Each is checked here against
the computation it replaces: the generic row formatter the log used to
be written with, the dataclass interface, and a plain scan of the weave
plans injected beside the player's own ``position_at`` and a plain knot
scan with ``_lerp``.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import random

import pytest

from per_tick_oracle import run_session_per_tick
from virusboxing import session
from virusboxing.interaction import (
    Calibration,
    CellOutcome,
    Hand,
    HitKind,
    PoseClass,
    PoseSample,
)
from virusboxing.playersim import (
    LEFT_MARK,
    RIGHT_MARK,
    WEAVE_LAG_TICKS,
    WEAVE_LEAD_TICKS,
    EmpowerPolicy,
    JabPlan,
    SyntheticPlayer,
    WeavePlan,
    _HandTrack,
    _lerp,
    _point,
    load_profile,
)
from virusboxing.protocol import PhaseKind
from virusboxing.session import LOG_VERSION, SessionConfig, run_session
from virusboxing.world import EntityKind

# --- The generic formatter the templates replace, kept as the reference.

_quoted = functools.lru_cache(maxsize=256)(json.dumps)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    # bool is an int subclass: test it first.
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return _quoted(value)
    return json.dumps(value)


def _row(*pairs: tuple[str, object]) -> str:
    """One log line with a fixed key order, floats at six decimals."""
    body = ",".join(f"{_quoted(key)}:{_fmt(val)}" for key, val in pairs)
    return "{" + body + "}"


# Floats a log can hold, and the awkward ones: negative, -0.0, tiny,
# large, and values that round up at the sixth decimal.
FLOATS = (0.0, -0.0, 0.8, -1.25, 1e-7, -4.9999995e-7, 419.98, 123456.5,
          2.0000005, -0.5000004)
IDS = (0, 7, 12345)


class TestRowTemplates:
    def test_header(self) -> None:
        for seed in (0, 1, 2**40, -3):
            digest = "0f" * 32
            assert session._HEADER_ROW % (seed, digest) == _row(
                ("type", "header"), ("version", LOG_VERSION),
                ("seed", seed), ("config", digest))

    @pytest.mark.parametrize("kind", list(PhaseKind))
    def test_phase(self, kind) -> None:
        for t in FLOATS:
            for index in (0, 8):
                assert session._PHASE_ROW % (t, kind.value, index) == _row(
                    ("type", "phase"), ("t", t), ("phase", kind.value),
                    ("index", index))

    @pytest.mark.parametrize("empowered", [False, True])
    @pytest.mark.parametrize("kind", list(PhaseKind))
    def test_hr(self, kind, empowered) -> None:
        for t in FLOATS:
            for hr, kcal in ((60.0, 0.0), (181.234567, 55.5000005)):
                for energy in (0, 10):
                    line = session._HR_ROW % (
                        t, hr, kcal, kind.value, energy,
                        "true" if empowered else "false")
                    assert line == _row(
                        ("type", "hr"), ("t", t), ("hr", hr), ("kcal", kcal),
                        ("phase", kind.value), ("energy", energy),
                        ("empowered", empowered))

    @pytest.mark.parametrize("kind", list(EntityKind))
    def test_spawn(self, kind) -> None:
        for t in FLOATS:
            for lane in FLOATS:
                for speed in (5.7, -8.0, -0.0, 11.400001):
                    line = session._SPAWN_ROW % (t, 3, kind.value, lane, speed)
                    assert line == _row(
                        ("type", "spawn"), ("t", t), ("id", 3),
                        ("kind", kind.value), ("lane", lane), ("speed", speed))

    @pytest.mark.parametrize("outcome", list(HitKind))
    @pytest.mark.parametrize("hand", list(Hand))
    def test_jab(self, hand, outcome) -> None:
        for t in FLOATS:
            for entity in (None,) + IDS:
                for speed in (1.0, 2.345678949, -1.5, -0.0):
                    line = session._JAB_ROW % (
                        t, hand.value, outcome.value,
                        "null" if entity is None else entity, speed)
                    assert line == _row(
                        ("type", "jab"), ("t", t), ("hand", hand.value),
                        ("outcome", outcome.value), ("entity", entity),
                        ("speed", speed))

    def test_missed_crossing(self) -> None:
        for t in FLOATS:
            for entity in IDS:
                assert session._MISSED_ROW % (t, entity) == _row(
                    ("type", "cross"), ("t", t), ("id", entity),
                    ("status", "missed"))

    @pytest.mark.parametrize("pose", list(PoseClass))
    @pytest.mark.parametrize("outcome", list(CellOutcome))
    def test_cell_crossing(self, outcome, pose) -> None:
        for t in FLOATS:
            for entity in IDS:
                line = session._CELL_ROW % (t, entity, outcome.value,
                                            pose.value)
                assert line == _row(
                    ("type", "cross"), ("t", t), ("id", entity),
                    ("status", outcome.value), ("pose", pose.value))

    def test_empower(self) -> None:
        for t in FLOATS:
            assert session._EMPOWER_END_ROW % t == _row(
                ("type", "empower"), ("t", t), ("action", "end"),
                ("until", None))
            for until in FLOATS:
                assert session._EMPOWER_START_ROW % (t, until) == _row(
                    ("type", "empower"), ("t", t), ("action", "start"),
                    ("until", until))

    def test_end(self) -> None:
        keys = ("viruses_spawned", "cells_spawned", "viruses_destroyed",
                "viruses_missed", "cells_avoided", "cells_collided",
                "wrong_hand_jabs", "activations")
        for t in FLOATS:
            for counts in ((0,) * 8, tuple(range(1, 9)), (534, 186, 480, 54,
                                                          150, 36, 12, 9)):
                assert session._END_ROW % ((t,) + counts) == _row(
                    ("type", "end"), ("t", t), *zip(keys, counts))

    def test_a_whole_log_is_what_the_generic_formatter_writes(self) -> None:
        # 60 s of mid_skill writes every kind of row and every variant:
        # hits, misses, wrong hands, empty jabs, avoided and collided
        # cells, both empowerment actions and empowered hr rows.
        lines = run_session(SessionConfig(
            seed=0, profile=load_profile("mid_skill"), duration=60.0)).lines
        seen = set()
        for line in lines:
            row = json.loads(line)
            assert line == _row(*row.items())
            seen.add((row["type"], row.get("action"), row.get("outcome"),
                      row.get("status"), row.get("empowered")))
        assert {
            ("empower", "start", None, None, None),
            ("empower", "end", None, None, None),
            ("jab", None, "destroyed", None, None),
            ("jab", None, "wrong_hand", None, None),
            ("jab", None, "no_target", None, None),
            ("cross", None, None, "missed", None),
            ("cross", None, None, "avoided", None),
            ("cross", None, None, "collided", None),
            ("hr", None, None, None, True),
            ("hr", None, None, None, False),
        } <= seen


HEAD = (0.0, 1.7, 0.0)
LEFT = (-0.18, 1.35, 0.30)
RIGHT = (0.18, 1.35, 0.30)


class TestPoseSample:
    def test_positional_and_keyword_construction_agree(self) -> None:
        by_position = PoseSample(0.5, HEAD, LEFT, RIGHT, frozenset({"A"}))
        by_keyword = PoseSample(time=0.5, head=HEAD, left_hand=LEFT,
                                right_hand=RIGHT, buttons=frozenset({"A"}))
        assert by_position == by_keyword
        assert by_keyword.time == 0.5 and by_keyword.head is HEAD
        assert by_keyword.left_hand is LEFT and by_keyword.right_hand is RIGHT

    def test_buttons_default_to_none_held(self) -> None:
        sample = PoseSample(0.0, HEAD, LEFT, RIGHT)
        assert sample.buttons == frozenset()
        assert "A" not in sample.buttons

    def test_fields_unpack_in_order(self) -> None:
        sample = PoseSample(0.5, HEAD, LEFT, RIGHT)
        assert tuple(sample) == (0.5, HEAD, LEFT, RIGHT, frozenset())
        assert PoseSample._fields == ("time", "head", "left_hand",
                                      "right_hand", "buttons")

    def test_immutable(self) -> None:
        sample = PoseSample(0.0, HEAD, LEFT, RIGHT)
        for field in PoseSample._fields:
            with pytest.raises(AttributeError):
                setattr(sample, field, None)
        with pytest.raises(AttributeError):
            sample.extra = 1

    def test_hand(self) -> None:
        sample = PoseSample(0.0, HEAD, LEFT, RIGHT)
        assert sample.hand(Hand.LEFT) is LEFT
        assert sample.hand(Hand.RIGHT) is RIGHT


def _reference_position(knots, t: float):
    """A hand's position on its knot chain, scanned from the start and
    interpolated with ``_lerp``."""
    i = 0
    while i + 1 < len(knots) and knots[i + 1][0] <= t:
        i += 1
    t0, p0 = knots[i]
    if i == len(knots) - 1 or t <= t0:
        return p0
    t1, p1 = knots[i + 1]
    return _lerp(p0, p1, (t - t0) / (t1 - t0))


def _recording_weaves(monkeypatch) -> dict:
    """Wrap ``SyntheticPlayer.inject`` to record, per player, every weave
    plan it is given, in order."""
    weaves: dict[SyntheticPlayer, list[WeavePlan]] = {}
    inject = SyntheticPlayer.inject

    def recording_inject(self, plan, now_tick):
        if isinstance(plan, WeavePlan):
            weaves.setdefault(self, []).append(plan)
        inject(self, plan, now_tick)

    monkeypatch.setattr(SyntheticPlayer, "inject", recording_inject)
    return weaves


def _reference_head(player: SyntheticPlayer, plans: list[WeavePlan],
                    tick: int):
    """The head the weave plans ``plans`` ask for at ``tick``, by a plain
    scan of every plan whose window, from ``WEAVE_LEAD_TICKS`` before its
    cross tick to ``WEAVE_LAG_TICKS`` after, holds ``tick``: tilted ducks
    first, then the nearest crossing."""
    due = [p for p in plans
           if p.cross_tick - WEAVE_LEAD_TICKS <= tick
           <= p.cross_tick + WEAVE_LAG_TICKS]
    if not due:
        return player._head_for[PoseClass.STANDING]
    best = min(due, key=lambda p: (p.pose is PoseClass.SQUAT,
                                   abs(tick - p.cross_tick), p.entity_id))
    return player._head_for[best.pose]


class TestSampleFastPath:
    @pytest.mark.parametrize("dt", [0.01, 0.02, 0.035])
    @pytest.mark.parametrize("profile", ["mid_skill", "novice"])
    def test_sample_equals_the_slow_path_on_every_tick(
            self, profile, dt, monkeypatch) -> None:
        fast_sample, fast_ends = SyntheticPlayer.sample, _HandTrack.ends
        standing = PoseClass.STANDING
        counts = {"ticks": 0, "weaving": 0, "moving": 0, "ends": 0,
                  "apart": 0}
        # Each hand's position on every tick of the per-tick loop.
        dense: dict[int, tuple] = {}
        weaves = _recording_weaves(monkeypatch)

        def checked(self, tick, phase_kind):
            got = fast_sample(self, tick, phase_kind)
            t = tick * self.dt
            head = _reference_head(self, weaves.get(self, []), tick)
            left_track, right_track = self.tracks
            left = left_track.position_at(t)
            right = right_track.position_at(t)
            assert got == PoseSample(t, head, left, right, got.buttons), tick
            for track, hand in ((left_track, left), (right_track, right)):
                assert hand == _reference_position(track.knots, t), tick
            counts["ticks"] += 1
            counts["weaving"] += head is not self._head_for[standing]
            counts["moving"] += (t < left_track.knots[-1][0]
                                 or t < right_track.knots[-1][0])
            return got

        def checked_ends(self, start, tick):
            # The values the per-tick loop's player gave on both ticks,
            # and one tuple wherever it gave one tuple on both.
            got = fast_ends(self, start, tick)
            i = (LEFT_MARK, RIGHT_MARK).index(self.mark)
            want = (dense[start][i], dense[tick][i])
            assert got == want, (start, tick)
            assert (got[0] is got[1]) == (want[0] is want[1]), (start, tick)
            counts["ends"] += 1
            counts["apart"] += got[0] != got[1]
            return got

        monkeypatch.setattr(SyntheticPlayer, "sample", checked)
        config = SessionConfig(seed=3, profile=load_profile(profile),
                               pid_enabled=False, dt=dt, duration=42.0)
        # Every tick through the per-tick loop, recording the hands.
        with monkeypatch.context() as patch:
            def recording_sample(self, tick, phase_kind):
                got = checked(self, tick, phase_kind)
                dense[tick] = (got.left_hand, got.right_hand)
                return got

            patch.setattr(SyntheticPlayer, "sample", recording_sample)
            lines = run_session_per_tick(config).lines
        assert counts["ticks"] >= round(42.0 / dt)
        assert counts["weaving"] > 0
        assert 0 < counts["moving"] < counts["ticks"]
        assert any('"type":"jab"' in line for line in lines)
        # Then the ticks the gated loop samples or reads a track's ends on,
        # which must give the same log.
        counts.update(ticks=0, weaving=0, moving=0)
        monkeypatch.setattr(_HandTrack, "ends", checked_ends)
        assert run_session(config).lines == lines
        assert counts["ticks"] > 0
        assert 0 < counts["apart"] <= counts["ends"] < round(42.0 / dt)
        assert counts["weaving"] > 0

    def test_ends_are_the_samples_hands(self) -> None:
        # On every tick, the values sample gives, and for a hand held or
        # at rest on a knot the very tuple: the detector's still-hand
        # shortcut tests identity.  A lerped point is built anew on each
        # read, so only a knot's tuple is one object on both ends.
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0))
        player.inject(JabPlan(0, Hand.RIGHT, 60, 2.5, (0.1, 1.4, 0.45),
                              False, 0), 0)
        player.inject(JabPlan(1, Hand.LEFT, 90, 3.0, (-0.1, 1.4, 0.5),
                              True, 1), 0)
        held = 0
        for k in range(200):
            if k == 70:
                player.inject(JabPlan(2, Hand.RIGHT, 120, 1.5,
                                      (0.2, 1.3, 0.5), False, 2), k)
            ends = [track.ends(k, k) for track in player.tracks]
            sample = player.sample(k, PhaseKind.LOW)
            sampled_hands = (sample.left_hand, sample.right_hand)
            for track, (start, end), sampled in zip(player.tracks, ends,
                                                    sampled_hands):
                assert start == end == sampled, k
                if any(end is point for _, point in track.knots):
                    assert start is end is sampled, k
                    held += 1
        assert held > 200

    def test_a_held_hand_is_one_object(self) -> None:
        # Between two knots on one point the hand is still: every tick
        # hands back that tuple, so the detector's identity test sees it.
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0))
        player.inject(JabPlan(0, Hand.RIGHT, 60, 2.5, (0.1, 1.4, 0.45),
                              False, 0), 0)
        knots = player.tracks[1].knots
        holds = [(t0, t1, p0) for (t0, p0), (t1, p1) in zip(knots, knots[1:])
                 if p0 is p1]
        assert holds
        held_ticks = 0
        for k in range(70):
            hand = player.sample(k, PhaseKind.LOW).right_hand
            for t0, t1, point in holds:
                if t0 < k * player.dt < t1:
                    assert hand is point, k
                    held_ticks += 1
        assert held_ticks >= 3

    def test_sprint_buttons_follow_the_policy(self) -> None:
        expected = {
            EmpowerPolicy.ACTIVATE_IMMEDIATELY: (frozenset({"A"}),
                                                 frozenset({"A"})),
            EmpowerPolicy.DURING_SPRINT_ONLY: (frozenset({"A"}), frozenset()),
            EmpowerPolicy.NEVER: (frozenset(), frozenset()),
        }
        base = load_profile("mid_skill")
        for policy, (in_sprint, otherwise) in expected.items():
            profile = dataclasses.replace(base, empower_policy=policy)
            player = SyntheticPlayer(profile, Calibration(), random.Random(0))
            assert player.sample(0, PhaseKind.SPRINT).buttons == in_sprint
            for kind in PhaseKind:
                if kind is not PhaseKind.SPRINT:
                    assert player.sample(0, kind).buttons == otherwise


class TestHandTrackReads:
    def test_reads_in_any_order_are_the_plain_scan(self) -> None:
        # An expert's right hand repositions, holds, strikes and retracts,
        # and a second plan rebuilds its chain on tick 70.  Read on
        # shuffled ticks, every position is the plain knot scan's, off
        # the chain that held on the tick.
        player = SyntheticPlayer(load_profile("expert"), Calibration(),
                                 random.Random(0))
        track, dt, lead = player.tracks[1], player.dt, player.lead
        player.inject(JabPlan(0, Hand.RIGHT, 60, 2.5, (0.1, 1.4, 0.45),
                              False, 0), 0)
        first = track.knots
        ticks = list(range(120))
        random.Random(7).shuffle(ticks)
        lerped = 0
        for k in ticks:
            want = _reference_position(first, k * dt)
            assert track.position_at(k * dt) == want, k
            assert track.ends(max(0, k - lead), k) == (
                _reference_position(first, max(0, k - lead) * dt), want), k
            lerped += all(want is not point for _, point in first)
        assert lerped > 20

        player.inject(JabPlan(1, Hand.RIGHT, 110, 3.0, (0.2, 1.3, 0.5),
                              False, 1), 70)
        second = track.knots
        assert second is not first and track._since == 70
        random.Random(8).shuffle(ticks)
        across = 0
        for k in ticks:
            if k < 70:
                continue
            start = k - lead
            held = first if start < 70 else second
            got = track.ends(start, k)
            assert got == (_reference_position(held, start * dt),
                           _reference_position(second, k * dt)), k
            across += start < 70 and got[0] != got[1]
        assert across > 0

    def test_a_point_off_the_lerp_is_a_knots_own_tuple(self) -> None:
        rest, launch, aim = (0.0, 1.0, 0.0), (0.1, 1.2, 0.3), (0.2, 1.4, 0.9)
        knots = [(1.0, rest), (1.5, launch), (2.0, launch), (2.5, aim)]
        times = [t for t, _ in knots]
        assert _point(knots, times, 0.25) is rest  # before the first knot
        assert _point(knots, times, 1.0) is rest  # on a knot
        assert _point(knots, times, 1.5) is launch
        assert _point(knots, times, 1.75) is launch  # on a hold
        assert _point(knots, times, 2.5) is aim  # on the last knot
        assert _point(knots, times, 9.0) is aim  # past it
        assert _point(knots, times, 1.25) == _lerp(rest, launch, 0.5)
        assert _point(knots, times, 2.25) == _lerp(launch, aim, 0.5)
