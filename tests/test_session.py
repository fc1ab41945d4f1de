"""Full-session orchestration: determinism, log format, replay, metrics."""
from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import json
import math
import os

import pytest

from virusboxing.interaction import (
    TargetingMode,
    TargetingPolicy,
    TargetingRange,
)
from virusboxing.physiology import HEART_PRESETS
from virusboxing.playersim import _strike_ticks, load_profile
from virusboxing import session
from virusboxing.protocol import LOW_INTENSITY_SPAWN, MODULATION_MIN
from virusboxing.session import (
    HeaderMismatchError,
    SessionConfig,
    TraceRow,
    config_digest,
    metrics_from_log,
    replay_verify,
    run_many,
    run_session,
    _drain_tick_cap,
    _plan,
    _schedule_key,
)
from virusboxing.world import CREATOR_DISTANCE


@pytest.fixture(scope="module")
def base_config() -> SessionConfig:
    return SessionConfig(seed=0, profile=load_profile("mid_skill"),
                         pid_enabled=False)


@pytest.fixture(scope="module")
def result(base_config):
    return run_session(base_config)


def _rows(lines):
    return [json.loads(line) for line in lines]


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, base_config, result) -> None:
        again = run_session(base_config)
        assert again.lines == result.lines
        assert again.metrics == result.metrics

    def test_seed_changes_the_log(self, base_config, result) -> None:
        other = run_session(dataclasses.replace(base_config, seed=1))
        assert other.lines != result.lines

    def test_run_many_matches_serial(self, base_config) -> None:
        configs = [dataclasses.replace(base_config, seed=s) for s in (0, 1)]
        # Short sessions of every profile and targeting mode, PID on: the
        # workers look up the enum members they unpickle in their dicts.
        configs += [
            SessionConfig(seed=seed, profile=load_profile(profile),
                          targeting=TargetingPolicy(mode, TargetingRange.MEDIUM),
                          duration=45.0)
            for seed, (profile, mode) in enumerate(itertools.product(
                ("expert", "mid_skill", "novice"), TargetingMode))
        ]
        serial = run_many(configs, jobs=1)
        parallel = run_many(configs, jobs=2)
        for a, b in zip(serial, parallel, strict=True):
            assert a.lines == b.lines
            assert a.trace == b.trace


class TestRunManyWorkers:
    CORES = 4

    @pytest.fixture
    def requested(self, monkeypatch) -> list[int]:
        """Worker counts asked of the pool, which maps in this process
        instead, so no worker is ever started, on a host of ``CORES``
        cores."""
        monkeypatch.setattr(os, "cpu_count", lambda: self.CORES)
        requested: list[int] = []

        class RecordingPool:
            def __init__(self, max_workers: int) -> None:
                requested.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self, cancel_futures: bool) -> None:
                return None

        # iter_sessions imports the pool class only when it starts one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        return requested

    @staticmethod
    def _configs(n: int) -> list[SessionConfig]:
        profile = load_profile("novice")
        return [SessionConfig(seed=s, profile=profile, pid_enabled=False,
                              duration=1.0) for s in range(n)]

    @pytest.mark.parametrize("jobs, sessions, workers", [
        (500, 2, 2), (4, 3, 3), (2, 5, 2), (3, 3, 3),
        (10000, 6, CORES),  # nor the cores
    ])
    def test_pool_never_outnumbers_the_sessions(self, requested, jobs,
                                                sessions, workers) -> None:
        results = run_many(self._configs(sessions), jobs=jobs)
        assert requested == [workers]
        assert [r.config.seed for r in results] == list(range(sessions))

    @pytest.mark.parametrize("jobs, sessions", [(1, 3), (8, 1), (8, 0)])
    def test_one_worker_or_less_runs_in_process(self, requested, jobs,
                                                sessions) -> None:
        results = run_many(self._configs(sessions), jobs=jobs)
        assert requested == []
        assert len(results) == sessions


class TestIterSessions:
    @staticmethod
    def _configs(n: int) -> list[SessionConfig]:
        profile = load_profile("mid_skill")
        return [SessionConfig(seed=s, profile=profile, duration=30.0)
                for s in range(n)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_yields_what_run_many_returns(self, jobs) -> None:
        configs = self._configs(3)
        streamed = list(session.iter_sessions(configs, jobs=jobs))
        listed = run_many(configs, jobs=1)
        assert [r.config for r in streamed] == configs
        for a, b in zip(streamed, listed, strict=True):
            assert a.lines == b.lines
            assert a.trace == b.trace
            assert a.metrics == b.metrics

    def test_closing_in_process_runs_no_later_session(self,
                                                      monkeypatch) -> None:
        seeds: list[int] = []

        def counted(config):
            seeds.append(config.seed)
            return run_session(config)

        monkeypatch.setattr(session, "run_session", counted)
        batch = session.iter_sessions(self._configs(5), jobs=1)
        assert next(batch).config.seed == 0
        batch.close()
        assert seeds == [0]

    def test_closing_a_pool_cancels_the_queued_sessions(self,
                                                        monkeypatch) -> None:
        # A one-thread pool stands in for the process pool, so the calls
        # can be counted: after the first result its worker may have
        # taken the second session, and no later one may start.
        seeds: list[int] = []

        def counted(config):
            seeds.append(config.seed)
            return run_session(config)

        monkeypatch.setattr(session, "run_session", counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor",
            lambda max_workers: concurrent.futures.ThreadPoolExecutor(1))
        batch = session.iter_sessions(self._configs(6), jobs=2)
        assert next(batch).config.seed == 0
        batch.close()
        assert seeds in ([0], [0, 1])


class TestLogFormat:
    def test_header_line(self, base_config, result) -> None:
        digest = config_digest(base_config)
        assert result.lines[0] == (
            '{"type":"header","version":"1","seed":0,"config":"%s"}' % digest
        )

    def test_opening_rows_are_frozen(self, result) -> None:
        assert result.lines[1] == \
            '{"type":"phase","t":0.000000,"phase":"low","index":0}'
        assert result.lines[2] == (
            '{"type":"hr","t":0.000000,"hr":60.000000,"kcal":0.000000,'
            '"phase":"low","energy":0,"empowered":false}'
        )
        # first draws of Random(0): flat cell, lane 0.2579544029403025
        assert result.lines[3] == (
            '{"type":"spawn","t":0.800000,"id":0,"kind":"flat_cell",'
            '"lane":0.257954,"speed":5.700000}'
        )

    def test_row_type_census(self, result) -> None:
        rows = _rows(result.lines)
        counts: dict[str, int] = {}
        for row in rows:
            counts[row["type"]] = counts.get(row["type"], 0) + 1
        assert counts["header"] == 1
        assert counts["hr"] == 421
        assert counts["phase"] == 8
        assert counts["end"] == 1
        assert counts["spawn"] == 727
        assert rows[-1]["type"] == "end"

    def test_phase_rows_mark_every_boundary(self, result) -> None:
        phases = [r for r in _rows(result.lines) if r["type"] == "phase"]
        assert [(r["t"], r["phase"]) for r in phases] == [
            (0.0, "low"), (30.0, "sprint"), (120.0, "low"),
            (150.0, "sprint"), (240.0, "low"), (270.0, "sprint"),
            (360.0, "cooldown"), (420.0, "ended"),
        ]

    def test_hr_rows_cover_each_second(self, result) -> None:
        hr = [r for r in _rows(result.lines) if r["type"] == "hr"]
        assert [r["t"] for r in hr] == [float(s) for s in range(421)]

    def test_empower_rows_alternate(self, result) -> None:
        emp = [r for r in _rows(result.lines) if r["type"] == "empower"]
        assert emp, "expected at least one activation in a full session"
        for i, row in enumerate(emp):
            assert row["action"] == ("start" if i % 2 == 0 else "end")
            if row["action"] == "start":
                assert row["until"] == pytest.approx(row["t"] + 10.0)
            else:
                assert row["until"] is None

    def test_no_spawns_after_session_end(self, result) -> None:
        spawns = [r for r in _rows(result.lines) if r["type"] == "spawn"]
        assert all(r["t"] < 420.0 for r in spawns)

    def test_write_log_round_trip(self, result, tmp_path) -> None:
        path = tmp_path / "session.jsonl"
        result.write_log(path)
        assert path.read_text(encoding="utf-8").splitlines() == \
            list(result.lines)


class TestMetrics:
    def test_conservation(self, result) -> None:
        m = result.metrics
        assert m.viruses_destroyed + m.viruses_missed == m.viruses_spawned
        assert m.cells_avoided + m.cells_collided == m.cells_spawned
        assert m.total_spawned == m.viruses_spawned + m.cells_spawned

    def test_log_reconstruction_matches_engine(self, result) -> None:
        assert metrics_from_log(result.lines) == result.metrics

    def test_end_row_repeats_the_counters(self, result) -> None:
        end = _rows(result.lines)[-1]
        m = result.metrics
        assert end["viruses_spawned"] == m.viruses_spawned
        assert end["cells_collided"] == m.cells_collided
        assert end["activations"] == m.activations

    def test_trace_shape(self, result) -> None:
        assert len(result.trace) == 421
        assert result.trace[0] == TraceRow(0.0, 60.0, 0.0, "low", 0, False)
        assert result.trace[-1].t == 420.0
        kcals = [row.kcal for row in result.trace]
        assert kcals == sorted(kcals)

    def test_trace_agrees_with_hr_rows(self, result) -> None:
        hr = [r for r in _rows(result.lines) if r["type"] == "hr"]
        for row, logged in zip(result.trace, hr):
            assert row.hr == logged["hr"]
            assert row.phase == logged["phase"]
            assert row.empowered == logged["empowered"]


class TestModulationPlumbing:
    def test_pid_off_leaves_stock_speeds(self, result) -> None:
        speeds = {r["speed"] for r in _rows(result.lines)
                  if r["type"] == "spawn"}
        assert speeds == {5.7, 8.0}

    def test_pid_on_varies_sprint_speeds(self, base_config) -> None:
        res = run_session(dataclasses.replace(base_config, pid_enabled=True))
        rows = _rows(res.lines)
        sprint = [r["speed"] for r in rows if r["type"] == "spawn"
                  and 30.0 <= r["t"] < 120.0]
        low = [r["speed"] for r in rows if r["type"] == "spawn"
               and r["t"] < 30.0]
        assert len(set(sprint)) > 1
        assert all(4.0 <= s <= 16.0 for s in sprint)
        assert set(low) == {5.7}


class TestConfigDigest:
    def test_digest_ignores_seed(self, base_config) -> None:
        other = dataclasses.replace(base_config, seed=123)
        assert config_digest(other) == config_digest(base_config)

    @pytest.mark.parametrize("field,value", [
        ("pid_enabled", True),
        ("hr_setpoint", 140.0),
        ("heart", HEART_PRESETS["sedentary"]),
        ("targeting", TargetingPolicy(TargetingMode.PRECISE,
                                      TargetingRange.SHORT)),
    ])
    def test_digest_tracks_config_fields(self, base_config, field, value) -> None:
        other = dataclasses.replace(base_config, **{field: value})
        assert config_digest(other) != config_digest(base_config)

    def test_digest_tracks_profile(self, base_config) -> None:
        other = dataclasses.replace(base_config,
                                    profile=load_profile("expert"))
        assert config_digest(other) != config_digest(base_config)


class TestValidation:
    def test_bad_dt(self, base_config) -> None:
        with pytest.raises(ValueError):
            dataclasses.replace(base_config, dt=0.0).validate()

    def test_duration_off_grid(self, base_config) -> None:
        with pytest.raises(ValueError):
            dataclasses.replace(base_config, duration=420.01).validate()

    def test_duration_of_no_whole_step(self, base_config) -> None:
        # On the step grid within its 1e-9 tolerance, but zero ticks long.
        with pytest.raises(ValueError, match="shorter than one"):
            dataclasses.replace(base_config, duration=1e-12).validate()

    def test_bad_setpoint(self, base_config) -> None:
        with pytest.raises(ValueError):
            dataclasses.replace(base_config, hr_setpoint=0.0).validate()


class TestReplayVerify:
    def test_fresh_log_verifies(self, base_config, result) -> None:
        report = replay_verify(result.lines, base_config)
        assert report.ok
        assert report.lines_checked == len(result.lines)
        assert report.divergence_line is None

    def test_verify_from_file(self, base_config, result, tmp_path) -> None:
        path = tmp_path / "log.jsonl"
        result.write_log(path)
        assert replay_verify(path, base_config).ok

    def test_crlf_log_verifies_by_path_and_as_lines(self, base_config, result,
                                                    tmp_path) -> None:
        path = tmp_path / "log.jsonl"
        path.write_bytes("".join(line + "\r\n" for line in result.lines)
                         .encode("utf-8"))
        assert replay_verify(path, base_config).ok
        # Lines read with their ends, "\r\n" included.
        with open(path, encoding="utf-8", newline="") as handle:
            report = replay_verify(handle, base_config)
        assert report.ok
        assert report.lines_checked == len(result.lines)

    def test_tampered_line_is_located(self, base_config, result) -> None:
        lines = list(result.lines)
        victim = next(i for i, l in enumerate(lines) if '"type":"hr"' in l
                      and '"t":100' in l)
        lines[victim] = lines[victim].replace('"hr":1', '"hr":9', 1)
        report = replay_verify(lines, base_config)
        assert not report.ok
        # line numbers are 1-based, as an editor would count them
        assert report.divergence_line == victim + 1
        assert report.expected != report.actual

    def test_truncated_log_diverges_at_eof(self, base_config, result) -> None:
        report = replay_verify(list(result.lines[:-5]), base_config)
        assert not report.ok
        assert report.actual == "<end of log>"

    def test_wrong_seed_rejected_up_front(self, base_config, result) -> None:
        other = dataclasses.replace(base_config, seed=99)
        with pytest.raises(HeaderMismatchError):
            replay_verify(result.lines, other)

    def test_wrong_config_rejected_up_front(self, base_config, result) -> None:
        other = dataclasses.replace(base_config, pid_enabled=True)
        with pytest.raises(HeaderMismatchError):
            replay_verify(result.lines, other)

    def test_empty_log_rejected(self, base_config) -> None:
        with pytest.raises(HeaderMismatchError):
            replay_verify([], base_config)

    def test_headerless_log_rejected(self, base_config, result) -> None:
        with pytest.raises(HeaderMismatchError):
            replay_verify(list(result.lines[1:]), base_config)

    @pytest.mark.parametrize("first", ["[1, 2]", '"x"', "3", "null"])
    def test_non_object_header_rejected(self, base_config, result,
                                        first) -> None:
        # Valid JSON, but no header row: not an attribute error.
        with pytest.raises(HeaderMismatchError, match="not a header row"):
            replay_verify([first, *result.lines[1:]], base_config)

    def test_non_utf8_log_rejected(self, base_config, tmp_path) -> None:
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(HeaderMismatchError, match="UTF-8"):
            replay_verify(path, base_config)


class TestConfigRejection:
    """Configs that cannot give a meaningful session fail validation."""

    @pytest.mark.parametrize("field, value", [
        ("tau_rise", 0.0), ("tau_decay", 0.0), ("tau_rise", -5.0),
        ("tau_decay", float("nan")), ("hr_max", float("inf")),
        ("hr_rest", -50.0), ("hr_rest", 0.0),
    ])
    def test_bad_heart(self, base_config, field, value) -> None:
        heart = dataclasses.replace(base_config.heart, **{field: value})
        with pytest.raises(ValueError):
            dataclasses.replace(base_config, heart=heart).validate()

    def test_heart_range_that_overflows(self, base_config) -> None:
        heart = dataclasses.replace(base_config.heart, hr_rest=-1e308,
                                    hr_max=1e308)
        with pytest.raises(ValueError, match="hr_rest must lie in"):
            dataclasses.replace(base_config, heart=heart).validate()

    @pytest.mark.parametrize("setpoint", [
        float("nan"), float("inf"), -float("inf"), 190.5,
    ])
    def test_bad_setpoint(self, base_config, setpoint) -> None:
        with pytest.raises(ValueError):
            dataclasses.replace(base_config, hr_setpoint=setpoint).validate()

    @pytest.mark.parametrize("gains", [
        (float("nan"), 0.005, 0.0), (0.06, float("inf"), 0.0),
    ])
    def test_bad_pid_gains(self, base_config, gains) -> None:
        with pytest.raises(ValueError):
            dataclasses.replace(base_config, pid_gains=gains).validate()

    @pytest.mark.parametrize("gains", [
        (1e308, 0.0, -1e308), (-1e307, 0.0, 0.0), (0.06, 0.005, 1e306),
    ])
    def test_gains_that_overflow_the_output(self, base_config, gains) -> None:
        # (1e308, 0, -1e308) makes the first output inf - inf = NaN, which
        # clamps to full slow-down.
        config = dataclasses.replace(base_config, pid_gains=gains)
        with pytest.raises(ValueError, match="overflow the controller"):
            config.validate()

    @pytest.mark.parametrize("gains", [
        (1e300, 1e300, 1e300), (-1e300, -1e300, -1e300), (0.0, 1e308, 0.0),
    ])
    def test_huge_gains_that_saturate_are_accepted(self, base_config,
                                                   gains) -> None:
        # The integral term is clamped for a positive ki and may be
        # infinite for a negative one: alone, it cannot make a NaN.
        dataclasses.replace(base_config, pid_gains=gains).validate()

    def test_duration_past_the_protocol(self, base_config) -> None:
        # Spawning past 420 s has no phase parameters to draw from.
        with pytest.raises(ValueError):
            dataclasses.replace(base_config, duration=430.0).validate()

    def test_setpoint_at_hr_max_is_accepted(self, base_config) -> None:
        dataclasses.replace(base_config,
                            hr_setpoint=base_config.heart.hr_max).validate()


class TestDrain:
    @pytest.mark.parametrize("dt", [0.001, 0.02, 0.035, 1.0])
    def test_cap_outlasts_the_slowest_flight(self, dt) -> None:
        slowest = LOW_INTENSITY_SPAWN.speed * MODULATION_MIN
        assert _drain_tick_cap(dt) * dt >= CREATOR_DISTANCE / slowest

    def test_fine_step_drains_every_entity(self) -> None:
        # A tick-counted drain cap ran out of ticks at dt = 0.001.
        config = SessionConfig(seed=0, profile=load_profile("mid_skill"),
                               dt=0.001, duration=10.0)
        m = run_session(config).metrics
        assert m.viruses_spawned > 0 and m.cells_spawned > 0
        assert m.viruses_destroyed + m.viruses_missed == m.viruses_spawned
        assert m.cells_avoided + m.cells_collided == m.cells_spawned

    def test_an_exhausted_cap_raises(self, monkeypatch) -> None:
        # With no drain ticks, the entities in flight at the end of the
        # protocol never reach a terminal state.
        monkeypatch.setattr(session, "_drain_tick_cap", lambda dt: 0)
        config = SessionConfig(seed=0, profile=load_profile("mid_skill"),
                               pid_enabled=False, duration=30.0)
        with pytest.raises(RuntimeError, match="still in flight after drain"):
            run_session(config)

    def test_the_cap_counts_every_drain_tick(self, monkeypatch) -> None:
        config = SessionConfig(seed=0, profile=load_profile("mid_skill"),
                               pid_enabled=False, duration=30.0)
        lines = run_session(config).lines
        end = json.loads(lines[-1])["t"]
        needed = round(end / config.dt) - round(config.duration / config.dt)
        assert needed > 0
        monkeypatch.setattr(session, "_drain_tick_cap", lambda dt: needed)
        assert run_session(config).lines == lines
        monkeypatch.setattr(session, "_drain_tick_cap", lambda dt: needed - 1)
        with pytest.raises(RuntimeError, match="still in flight after drain"):
            run_session(config)


class TestFineSteps:
    """A strike's scripted length is capped in seconds, so it fits the
    detector's velocity window at every dt."""

    @pytest.mark.parametrize("dt", [0.001, 0.002, 0.02])
    def test_slow_strike_cap_is_half_a_second(self, dt) -> None:
        # The cap binds only for a strike slower than 0.2 m/s.
        assert _strike_ticks(0.01, dt) == round(0.5 / dt)
        assert _strike_ticks(2.0, dt) == math.ceil(0.05 / dt - 1e-9)

    def test_miss_rate_does_not_depend_on_dt(self) -> None:
        # A cap counted in ticks would cut fine-step strikes short of the
        # detector's 0.1 s window, and most viruses would be missed.
        def metrics(dt):
            config = SessionConfig(seed=0, profile=load_profile("mid_skill"),
                                   pid_enabled=False, dt=dt, duration=60.0)
            return run_session(config).metrics
        reference = metrics(0.02)
        assert reference.miss_pct < 10.0
        for dt in (0.001, 0.002, 0.004, 0.01):
            m = metrics(dt)
            assert m.viruses_spawned == reference.viruses_spawned
            assert abs(m.miss_pct - reference.miss_pct) <= 2.0, dt


def _physiology(result) -> list[tuple[float, float]]:
    return [(row.hr, row.kcal) for row in result.trace]


def _spawns(result) -> list[tuple[float, float]]:
    rows = [json.loads(line) for line in result.lines]
    return [(row["t"], row["speed"]) for row in rows if row["type"] == "spawn"]


class TestPlanCache:
    """Heart rate, kcal and the spawn timeline come from one per-config
    cache."""

    @pytest.fixture(scope="class")
    def pid_config(self) -> SessionConfig:
        # Ends inside the first sprint, so the controller runs.
        return SessionConfig(seed=0, profile=load_profile("mid_skill"),
                             duration=60.0)

    def test_warm_cache_gives_the_cold_log(self, pid_config) -> None:
        _plan.cache_clear()
        cold = run_session(pid_config)
        hits = _plan.cache_info().hits
        warm = run_session(pid_config)
        assert _plan.cache_info().hits == hits + 1
        assert warm.lines == cold.lines
        assert warm.trace == cold.trace

    def test_one_plan_serves_every_seed_and_targeting(self, pid_config) -> None:
        _plan.cache_clear()
        reference = _physiology(run_session(pid_config))
        precise = TargetingPolicy(TargetingMode.PRECISE)
        for seed in (1, 7):
            for targeting in (pid_config.targeting, precise):
                other = dataclasses.replace(pid_config, seed=seed,
                                            targeting=targeting)
                assert _physiology(run_session(other)) == reference
        assert _plan.cache_info().misses == 1

    @pytest.mark.parametrize("changes", [
        {"profile": dataclasses.replace(load_profile("mid_skill"), effort=0.5)},
        {"heart": HEART_PRESETS["sedentary"]},
        {"pid_enabled": False},
        {"pid_gains": (0.01, 0.0, 0.0)},
        {"hr_setpoint": 120.0},
        # The same 3000 ticks as pid_config, so only dt tells them apart.
        {"dt": 0.01, "duration": 30.0},
        {"duration": 90.0},
    ], ids=["effort", "heart", "pid", "gains", "setpoint", "dt", "duration"])
    def test_every_key_field_gets_its_own_plan(self, pid_config,
                                               changes) -> None:
        # A key that left the field out would serve the variant the plan
        # cached for pid_config.
        variant = dataclasses.replace(pid_config, **changes)
        _plan.cache_clear()
        cold = run_session(variant)
        _plan.cache_clear()
        base = run_session(pid_config)
        after_base = run_session(variant)
        assert after_base.lines == cold.lines
        assert _plan.cache_info().misses == 2
        assert _physiology(cold) != _physiology(base)
        assert _spawns(cold) != _spawns(base)

    def test_runs_leave_the_shared_arrays_unchanged(self, pid_config) -> None:
        plan = _plan(*_schedule_key(pid_config))

        def snapshot() -> list:
            return [part.tobytes() if hasattr(part, "tobytes") else part
                    for part in plan]

        before = snapshot()
        for seed in range(4):
            run_session(dataclasses.replace(pid_config, seed=seed))
        assert _plan(*_schedule_key(pid_config)) is plan
        assert snapshot() == before


class TestNegativeSeeds:
    """random.Random seeds by absolute value, so a negative seed would
    replay its positive twin under another header."""

    @pytest.mark.parametrize("seed", [-1, -3])
    def test_a_negative_seed_is_rejected(self, base_config, seed) -> None:
        config = dataclasses.replace(base_config, seed=seed, duration=10.0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            config.validate()
        with pytest.raises(ValueError, match="seed must be non-negative"):
            run_session(config)

    def test_seed_zero_is_accepted(self, base_config) -> None:
        dataclasses.replace(base_config, seed=0).validate()
