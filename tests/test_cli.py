"""Command-line driver: flags, files, exit codes."""
from __future__ import annotations

import csv
import hashlib
import json

import pytest

from virusboxing import cli
from virusboxing.cli import build_parser, main


RUN_OFF = ["run", "--seed", "0", "--pid", "off"]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """One canonical pid-off run shared by the file-inspection tests."""
    path = tmp_path_factory.mktemp("run")
    assert main(RUN_OFF + ["--out", str(path)]) == 0
    return path


class TestRun:
    def test_stdout_summary(self, capsys) -> None:
        assert main(RUN_OFF) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 0
        assert payload["viruses_spawned"] + payload["cells_spawned"] == 727
        assert "config" in payload

    def test_out_writes_replay_trace_summary(self, out_dir) -> None:
        assert (out_dir / "replay_0.jsonl").is_file()
        assert (out_dir / "trace_0.csv").is_file()
        assert (out_dir / "summary_0.json").is_file()

    def test_replay_file_is_a_log(self, out_dir) -> None:
        first = (out_dir / "replay_0.jsonl").read_text().splitlines()[0]
        header = json.loads(first)
        assert header["type"] == "header" and header["seed"] == 0

    def test_trace_csv_shape(self, out_dir) -> None:
        with (out_dir / "trace_0.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "hr", "kcal", "phase", "energy",
                           "empowered"]
        assert len(rows) == 1 + 421
        assert rows[1][:2] == ["0.000000", "60.000000"]

    def test_summary_json_content(self, out_dir) -> None:
        payload = json.loads((out_dir / "summary_0.json").read_text())
        assert payload["seed"] == 0
        assert payload["viruses_destroyed"] + payload["viruses_missed"] == \
            payload["viruses_spawned"]

    def test_csv_format_switch(self, tmp_path) -> None:
        assert main(RUN_OFF + ["--out", str(tmp_path), "--format", "csv"]) == 0
        with (tmp_path / "summary_0.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "seed"
        assert len(rows) == 2

    def test_seed_range_writes_sweep(self, tmp_path, capsys) -> None:
        code = main(["run", "--seeds", "0..2", "--pid", "off",
                     "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        with (tmp_path / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["0", "1", "2", "mean"]
        per_seed = [float(r["miss_pct"]) for r in rows[:3]]
        assert float(rows[3]["miss_pct"]) == \
            pytest.approx(sum(per_seed) / 3, abs=5e-7)
        for seed in (0, 1, 2):
            assert (tmp_path / f"replay_{seed}.jsonl").is_file()

    def test_csv_files_keep_their_bytes(self, tmp_path, capsys) -> None:
        # Header, "\r\n" line ends, six-decimal floats, empty cells for
        # None and the mean row, all pinned by digest.
        pinned = {
            "trace_0.csv": "852a2905445389d953b51d992c1d921d"
                           "3be2241aeb3edcfb37cf2382b7211c8a",
            "trace_1.csv": "5d5ec37277a3a5fd374769a717d80a30"
                           "52450e6e7407262d27110b147468c8e0",
            "summary_0.csv": "1c2c70d77347268abf5ee5dd8bf5674c"
                             "5352fe0734c811f73ed90238b02aeb0a",
            "summary_1.csv": "d7410d1cc98b6636152e0e21289328eb"
                             "8d0969987216712ac0e61487802910fb",
            "sweep.csv": "060bab8d98a6a405eea3541c183fa1e7"
                         "48fc46a36c28c891e639e3b4779af023",
        }
        assert main(["run", "--seeds", "0..1", "--pid", "off", "--out",
                     str(tmp_path), "--format", "csv"]) == 0
        capsys.readouterr()
        for name, digest in pinned.items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_config_file_with_flag_override(self, tmp_path, capsys) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 5, "profile": "expert", "pid": False,
            "targeting": "pt", "range": "short",
        }))
        assert main(["run", "--config", str(cfg)]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["seed"] == 5
        # the flag beats the file
        assert main(["run", "--config", str(cfg), "--seed", "9"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["seed"] == 9
        assert second["config"] == first["config"]

    def test_inline_profile_dict(self, tmp_path, capsys) -> None:
        profile = {
            "name": "tweak", "reaction_time": 0.2,
            "punch_speed_mean": 2.5, "punch_speed_sd": 0.0,
            "aim_error_sd": 0.0, "correct_hand_prob": 1.0,
            "weave_reliability": 1.0,
            "empower_policy": "activate_immediately", "effort": 0.5,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": profile, "pid": False}))
        assert main(["run", "--config", str(cfg), "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0


class TestRunErrors:
    def test_unknown_profile(self, capsys) -> None:
        assert main(["run", "--seed", "0", "--profile", "nobody"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_heart_preset(self, capsys) -> None:
        assert main(["run", "--seed", "0", "--heart", "cyborg"]) == 2

    def test_bad_seed_range(self, capsys) -> None:
        assert main(["run", "--seeds", "5..1"]) == 2

    def test_bad_flag_exits_two(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["run", "--targeting", "xyz"])
        assert exc.value.code == 2

    def test_missing_config_file(self, capsys) -> None:
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    def test_nan_setpoint(self, capsys) -> None:
        assert main(["run", "--seed", "0", "--setpoint", "nan"]) == 2
        assert "hr_setpoint" in capsys.readouterr().err

    def test_setpoint_above_hr_max(self, capsys) -> None:
        assert main(["run", "--seed", "0", "--setpoint", "250"]) == 2

    def test_zero_heart_time_constant(self, tmp_path, capsys) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"heart": {
            "hr_rest": 60, "hr_max": 190, "tau_rise": 0, "tau_decay": 60,
        }}))
        assert main(["run", "--config", str(cfg), "--seed", "0"]) == 2
        assert "time constants" in capsys.readouterr().err


class TestVerify:
    def test_fresh_log_passes(self, out_dir, capsys) -> None:
        code = main(["verify", str(out_dir / "replay_0.jsonl"),
                     "--pid", "off"])
        assert code == 0
        assert "ok:" in capsys.readouterr().out

    def test_seed_comes_from_header(self, out_dir, capsys) -> None:
        # no --seed given: the header's seed drives the re-run
        assert main(["verify", str(out_dir / "replay_0.jsonl"),
                     "--pid", "off"]) == 0
        capsys.readouterr()

    def test_tampered_log_fails(self, out_dir, tmp_path, capsys) -> None:
        lines = (out_dir / "replay_0.jsonl").read_text().splitlines()
        victim = next(i for i, l in enumerate(lines) if '"type":"jab"' in l)
        lines[victim] = lines[victim].replace('"outcome"', '"outcomx"')
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad), "--pid", "off"]) == 1
        assert "divergence at line" in capsys.readouterr().err

    def test_truncated_log_fails(self, out_dir, tmp_path, capsys) -> None:
        lines = (out_dir / "replay_0.jsonl").read_text().splitlines()
        short = tmp_path / "short.jsonl"
        short.write_text("\n".join(lines[:100]) + "\n")
        assert main(["verify", str(short), "--pid", "off"]) == 1

    def test_wrong_config_is_header_mismatch(self, out_dir, capsys) -> None:
        code = main(["verify", str(out_dir / "replay_0.jsonl"),
                     "--pid", "on"])
        assert code == 2
        assert "header mismatch" in capsys.readouterr().err

    def test_wrong_seed_is_header_mismatch(self, out_dir, capsys) -> None:
        code = main(["verify", str(out_dir / "replay_0.jsonl"),
                     "--seed", "3", "--pid", "off"])
        assert code == 2

    def test_missing_log_file(self, capsys) -> None:
        assert main(["verify", "/nonexistent/replay.jsonl"]) == 2


def _run_with_file(tmp_path, settings: dict) -> int:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    return main(["run", "--config", str(cfg), "--seed", "0"])


class TestConfigFileValues:
    @pytest.mark.parametrize("value", ["off", "on", 0, 1, None, [False]])
    def test_pid_must_be_a_json_bool(self, tmp_path, capsys, value) -> None:
        # bool("off") is True, so reading the value loosely would run
        # "off" with the PID on.
        assert _run_with_file(tmp_path, {"pid": value}) == 2
        assert "'pid'" in capsys.readouterr().err

    def test_pid_false_turns_the_controller_off(self, tmp_path,
                                                capsys) -> None:
        assert _run_with_file(tmp_path, {"pid": False}) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(RUN_OFF) == 0
        assert from_file == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("key", ["setpiont", "dt", "duration"])
    def test_unknown_key_is_named(self, tmp_path, capsys, key) -> None:
        assert _run_with_file(tmp_path, {key: 120}) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("setpoint", "high"), ("setpoint", True), ("setpoint", None),
        ("pid_gains", [0.06, "x", 0.0]), ("pid_gains", [0.06, 0.005, None]),
        ("seed", "zero"), ("seed", 1.5), ("seed", False),
    ])
    def test_non_numeric_value_is_named(self, tmp_path, capsys, key,
                                        value) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        # No --seed flag, so the file's seed is read too.
        assert main(["run", "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_nan_gain_is_a_config_error(self, tmp_path, capsys) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pid_gains": [NaN, 0.005, 0.0]}')
        assert main(["run", "--config", str(cfg), "--seed", "0"]) == 2
        assert "pid_gains" in capsys.readouterr().err

    def test_overflowing_gains_are_a_config_error(self, tmp_path,
                                                  capsys) -> None:
        # Finite, but the first controller output would be inf - inf.
        assert _run_with_file(tmp_path, {"pid_gains": [1e308, 0.0, -1e308]}) == 2
        assert "pid_gains" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("targeting", ["pt"]), ("range", {"long": 1}),
    ])
    def test_unhashable_choice_is_a_config_error(self, tmp_path, capsys, key,
                                                 value) -> None:
        assert _run_with_file(tmp_path, {key: value}) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "60", None, [60]])
    def test_inline_heart_values_must_be_numbers(self, tmp_path, capsys,
                                                 value) -> None:
        # float(True) is 1.0: read loosely, it would mean a 1 bpm resting rate.
        heart = {"hr_rest": value, "hr_max": 190}
        assert _run_with_file(tmp_path, {"heart": heart, "pid": False}) == 2
        assert "hr_rest" in capsys.readouterr().err

    def test_inline_heart_with_a_negative_rest_is_a_config_error(
            self, tmp_path, capsys) -> None:
        # Accepted, it would log negative heart rates and kcal.
        heart = {"hr_rest": -50, "hr_max": 190}
        assert _run_with_file(tmp_path, {"heart": heart, "pid": False}) == 2
        assert "hr_rest" in capsys.readouterr().err

    def test_inline_heart_equal_to_a_preset_runs_as_it(self, tmp_path,
                                                       capsys) -> None:
        heart = {"hr_rest": 60, "hr_max": 190.0}
        assert _run_with_file(tmp_path, {"heart": heart, "pid": False}) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(RUN_OFF + ["--heart", "regular"]) == 0
        assert from_file == json.loads(capsys.readouterr().out)

    def test_verify_rejects_a_non_integer_file_seed(self, out_dir, tmp_path,
                                                    capsys) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "0", "pid": False}))
        assert main(["verify", str(out_dir / "replay_0.jsonl"),
                     "--config", str(cfg)]) == 2
        assert "'seed'" in capsys.readouterr().err


class TestSharedFlags:
    SESSION_FLAGS = ("--config", "--seed", "--profile", "--targeting",
                     "--range", "--heart", "--pid", "--setpoint")

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_help_lists_every_session_flag(self, capsys, command) -> None:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in self.SESSION_FLAGS:
            assert flag in text

    def test_seed_and_seeds_conflict(self, capsys) -> None:
        assert main(["run", "--seed", "0", "--seeds", "0..1"]) == 2
        assert "--seeds" in capsys.readouterr().err


class TestJobs:
    def test_jobs_defaults_to_one(self) -> None:
        assert build_parser().parse_args(["run"]).jobs == 1

    def test_environment_does_not_set_the_worker_count(self, monkeypatch,
                                                       capsys) -> None:
        # --jobs is the only worker-count setting: no environment
        # variable, however malformed, can end a run.
        monkeypatch.setenv("VIRUSBOXING_JOBS", "two")
        assert main(RUN_OFF) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_config_error(self, jobs, monkeypatch,
                                              capsys) -> None:
        def run_many(configs, jobs):
            raise AssertionError("no session may run")

        monkeypatch.setattr(cli, "run_many", run_many)
        assert main(RUN_OFF + ["--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestRuntimeFailure:
    def test_exit_3_prints_the_failure_and_its_traceback(self, monkeypatch,
                                                         capsys) -> None:
        def run_many(configs, jobs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(cli, "run_many", run_many)
        assert main(RUN_OFF) == 3
        err = capsys.readouterr().err
        assert "runtime failure: worker exploded" in err
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: worker exploded" in err


class TestNegativeSeeds:
    """A negative seed is a config error on every entry point, not seed
    3's session under seed -3's header."""

    def test_seed_flag(self, capsys) -> None:
        assert main(["run", "--seed", "-3", "--pid", "off"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_seed_range_with_equals(self, tmp_path, capsys) -> None:
        assert main(["run", "--seeds=-2..2", "--pid", "off",
                     "--out", str(tmp_path)]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_seed_range_as_its_own_argument(self, capsys) -> None:
        # argparse reads "-2..2" as a flag, so --seeds has no value.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--seeds", "-2..2"])
        assert exc.value.code == 2

    def test_config_file_seed(self, tmp_path, capsys) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1, "pid": False}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_verify_seed_flag(self, out_dir, capsys) -> None:
        assert main(["verify", str(out_dir / "replay_0.jsonl"), "--seed", "-1",
                     "--pid", "off"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
