"""The session loop's shortcuts agree with the plain computations.

The loop looks the phase up only on boundary ticks, the jab detector
skips the speed arithmetic for a hand whose position object has not
changed, and the loop judges a hand from the two ends of its window
alone, on the ticks it can fire on.  Each shortcut is checked here against the computation it
replaces.
"""
from __future__ import annotations

import json
import random

import pytest

from per_tick_oracle import run_session_per_tick
from virusboxing.interaction import (
    VELOCITY_WINDOW,
    Calibration,
    Hand,
    JabDetector,
    PoseSample,
    hand_velocity,
)
from virusboxing.playersim import JabPlan, SyntheticPlayer, load_profile
from virusboxing.protocol import PhaseKind, phase_at, phase_boundary_ticks
from virusboxing.session import SessionConfig, run_session

DTS = (0.01, 0.02, 0.035, 0.07, 0.1)


def _ticks(dt: float) -> int:
    return round(420.0 / dt)


class TestPhaseBoundaries:
    @pytest.mark.parametrize("dt", DTS)
    def test_phase_is_constant_between_boundary_ticks(self, dt) -> None:
        boundaries = set(phase_boundary_ticks(dt))
        current = None
        for k in range(_ticks(dt) + 1):
            truth = phase_at(k * dt)
            if k in boundaries:
                current = truth
            assert (truth.kind, truth.index) == (current.kind, current.index), k

    @pytest.mark.parametrize("dt", DTS)
    def test_boundaries_are_first_ticks_of_a_phase(self, dt) -> None:
        for k in phase_boundary_ticks(dt)[1:]:
            before, at = phase_at((k - 1) * dt), phase_at(k * dt)
            assert (before.kind, before.index) != (at.kind, at.index), k

    def test_between_tick_boundary(self) -> None:
        # 30 / 0.035 = 857.14...: the sprint starts on tick 858.
        assert phase_boundary_ticks(0.035)[:2] == (0, 858)

    def test_bad_dt(self) -> None:
        with pytest.raises(ValueError):
            phase_boundary_ticks(0.0)

    @pytest.mark.parametrize("dt", DTS)
    def test_session_loop_uses_the_looked_up_phase(self, dt, monkeypatch) -> None:
        seen: list[tuple[int, object]] = []
        original = SyntheticPlayer.sample

        def sample(self, tick, phase_kind):
            seen.append((tick, phase_kind))
            return original(self, tick, phase_kind)

        monkeypatch.setattr(SyntheticPlayer, "sample", sample)
        config = SessionConfig(seed=0, profile=load_profile("novice"),
                               pid_enabled=False, dt=dt)
        # The per-tick loop samples every tick; the gated loop only some,
        # in order, each with the phase kind of its own tick.
        lines = run_session_per_tick(config).lines
        gameplay = _ticks(dt)
        assert [tick for tick, _ in seen[:gameplay]] == list(range(gameplay))
        for tick, kind in seen[:gameplay]:
            assert kind is phase_at(tick * dt).kind, tick
        seen.clear()
        assert run_session(config).lines == lines
        gated = [(tick, kind) for tick, kind in seen if tick < gameplay]
        assert 0 < len(gated) < gameplay
        assert [tick for tick, _ in seen] == sorted({tick for tick, _ in seen})
        for tick, kind in gated:
            assert kind is phase_at(tick * dt).kind, tick
        # One phase row per change of phase_at over the ticks, then the
        # closing row at the session end.
        expected = []
        for k in range(gameplay):
            phase = phase_at(k * dt)
            if not expected or expected[-1][1:] != (phase.kind.value, phase.index):
                expected.append((f"{k * dt:.6f}", phase.kind.value, phase.index))
        rows = [json.loads(line) for line in lines]
        logged = [(f"{r['t']:.6f}", r["phase"], r["index"])
                  for r in rows if r["type"] == "phase"]
        assert logged[:-1] == expected
        assert logged[-1][1] == "ended"


def _copied(samples: list[PoseSample]) -> list[PoseSample]:
    """The same stream with every position a fresh, equal tuple."""
    return [PoseSample(s.time, s.head, tuple(list(s.left_hand)),
                       tuple(list(s.right_hand)), s.buttons)
            for s in samples]


def _player_stream(ticks: int = 400) -> list[PoseSample]:
    """Pose samples from the synthetic player: hands resting at guard,
    repositioning, striking and retracting."""
    player = SyntheticPlayer(load_profile("expert"), Calibration(),
                             random.Random(0))
    plans = [
        JabPlan(0, Hand.RIGHT, 60, 2.5, (0.1, 1.4, 0.45), False, 0),
        JabPlan(1, Hand.LEFT, 60, 3.0, (-0.1, 1.4, 0.45), False, 1),
        JabPlan(2, Hand.RIGHT, 140, 1.2, (0.2, 1.5, 0.5), False, 2),
        JabPlan(3, Hand.LEFT, 250, 4.0, (0.0, 1.4, 0.6), True, 3),
        JabPlan(4, Hand.RIGHT, 330, 0.9, (0.15, 1.3, 0.45), False, 4),
    ]
    for plan in plans:
        player.inject(plan, 0)
    return [player.sample(tick, PhaseKind.LOW) for tick in range(ticks)]


def _hand_stream() -> list[PoseSample]:
    """Both hands at rest on one reused tuple each, with strikes between."""
    left, right, head = (-0.2, 1.35, 0.3), (0.2, 1.35, 0.3), (0.0, 1.7, 0.0)
    positions = []
    for burst in range(3):
        positions += [(left, right)] * 12
        for i in range(1, 6):
            step = 0.05 * i * (burst + 1)
            moved = (right[0], right[1], right[2] + step)
            positions.append((left if burst != 1 else moved, moved))
        right = positions[-1][1]  # rest on the last strike position
    positions += [(left, right)] * 12
    return [PoseSample(i * 0.02, head, lh, rh)
            for i, (lh, rh) in enumerate(positions)]


def _fire(samples: list[PoseSample], **kwargs: float) -> list:
    detector = JabDetector(**kwargs)
    return [event for sample in samples for event in detector.update(sample)]


class TestDetectorIdentityFastPath:
    @pytest.mark.parametrize("stream", [_hand_stream, _player_stream])
    @pytest.mark.parametrize("kwargs", [
        {},
        {"window": 0.06},
        {"window": 0.02},  # one tick: a strike's speed ends at once
        {"window": 0.2, "threshold": 0.8, "refractory": 0.1},
        {"window": 0.01},  # narrower than a tick: the window never fills
    ], ids=["default", "window0.06", "window0.02", "custom", "underfilled"])
    def test_reused_and_copied_positions_fire_alike(self, stream, kwargs) -> None:
        samples = stream()
        copies = _copied(samples)
        reused = sum(1 for a, b in zip(samples, samples[1:])
                     if a.right_hand is b.right_hand)
        assert reused > 0
        assert all(a.right_hand is not b.right_hand
                   for a, b in zip(copies, copies[1:]))
        fast = _fire(samples, **kwargs)
        slow = _fire(copies, **kwargs)
        assert fast == slow
        assert [(e.time, e.hand, e.hand_speed, e.direction) for e in fast] == \
            [(e.time, e.hand, e.hand_speed, e.direction) for e in slow]
        if kwargs.get("window") != 0.01:
            assert fast, "the stream should fire at least one jab"
        # Each fired speed is the reference finite difference over the window.
        window = kwargs.get("window", VELOCITY_WINDOW)
        for event in fast:
            history = [(s.time, s.hand(event.hand)) for s in samples
                       if event.time - window - 1e-9 <= s.time <= event.time]
            assert hand_velocity(history) == (event.hand_speed, event.direction)

    @pytest.mark.parametrize("stream", [_hand_stream, _player_stream])
    def test_judging_the_moving_hands_fires_as_update(self, stream) -> None:
        # Judged from the two ends of its window, and only on the ticks
        # where the hand moved within it, a hand fires as a detector fed
        # every tick fires it.
        samples = stream()
        fed, judged = JabDetector(), JabDetector()
        fired = 0
        for k, s in enumerate(samples):
            want = fed.update(s)
            horizon = s.time - VELOCITY_WINDOW - 1e-9
            j = next(j for j in range(k + 1) if samples[j].time >= horizon)
            got = []
            for i, hand in enumerate((Hand.LEFT, Hand.RIGHT)):
                start, end = samples[j].hand(hand), s.hand(hand)
                if start is end:
                    continue
                before = samples[k - 1].time if k else None
                jab = judged.judge(i, s.time, before, s.time - samples[j].time,
                                   start, end)
                if jab is not None:
                    got.append(jab)
            assert got == want, s.time
            fired += len(got)
        assert fired
