"""Command-line driver: flags, files, exit codes."""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import virusboxing
from virusboxing import cli, playersim, session
from virusboxing.cli import build_parser, main


RUN_OFF = ["run", "--seed", "0", "--pid", "off"]
INLINE_PROFILE = {
    "name": "tweak", "reaction_time": 0.2,
    "punch_speed_mean": 2.5, "punch_speed_sd": 0.0,
    "aim_error_sd": 0.0, "correct_hand_prob": 1.0,
    "weave_reliability": 1.0,
    "empower_policy": "activate_immediately", "effort": 0.5,
}


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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": INLINE_PROFILE, "pid": False}))
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

    def test_config_file_that_is_a_directory(self, tmp_path, capsys) -> None:
        # The read's IsADirectoryError was once a runtime failure, exit 3.
        assert main(["run", "--seed", "0", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {tmp_path}" in err
        assert "runtime failure" not in err

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys) -> None:
        # As was the UnicodeDecodeError of a UTF-16 file.
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe" + '{"pid": false}'.encode("utf-16-le"))
        assert main(["run", "--seed", "0", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {cfg}" in err
        assert "runtime failure" not in err

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_that_is_a_file(self, tmp_path, capsys, below) -> None:
        # mkdir's FileExistsError, or NotADirectoryError for a path below
        # the file, was a runtime failure, exit 3.
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = taken / below if below else taken
        assert main(["run", "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot make output directory {out}" in err
        assert "runtime failure" not in err

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
        assert "heart tau_rise must lie in (0, inf)" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["tau_rise", "tau_decay"])
    def test_heart_time_constant_below_the_step(self, tmp_path, capsys,
                                                 field) -> None:
        # tau_rise 0.001 once ran: the Euler step overshot its target, and
        # the second hr row read 188.48 bpm, clamped at hr_max, in a low
        # phase aiming at about 96.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"heart": {
            "hr_rest": 60, "hr_max": 190, field: 0.001}, "pid": False}))
        assert main(["run", "--config", str(cfg), "--seed", "0"]) == 2
        assert (f"heart {field} 0.001 is below dt 0.02"
                in capsys.readouterr().err)


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

    def test_a_divergence_names_the_files_own_line(self, out_dir, tmp_path,
                                                   capsys) -> None:
        # A blank line after line 5 moves the later rows down a line: the
        # tampered row is file line 21, the log's row 20.
        lines = (out_dir / "replay_0.jsonl").read_text().splitlines()
        lines.insert(5, "")
        lines[20] = lines[20].replace('"t":', '"t":9', 1)
        bad = tmp_path / "padded.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad), "--pid", "off"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("divergence at line 21:\n")
        assert f"  actual:   {lines[20]}\n" in err

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

    @pytest.mark.parametrize("content", [b"[1, 2]\n", b'"x"\n',
                                         b"\xff\xfe{}\n"])
    @pytest.mark.parametrize("seed", [["--seed", "0"], []])
    def test_a_log_without_a_header_object_exits_2(
            self, tmp_path, capsys, content, seed) -> None:
        # A header line that is JSON but no object, or a log that is not
        # UTF-8: a config error without --seed, for the seed cannot be
        # read, and a header mismatch with it.
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(content)
        assert main(["verify", str(bad), "--pid", "off", *seed]) == 2
        err = capsys.readouterr().err
        assert ("header mismatch" if seed else "cannot read seed") in err


class TestConfigWalks:
    """``playersim.check_bounds`` walks a config's declared fields both to
    check them and to build the digest's payload, so each command walks
    a config once in ``_build_config`` and once per digest."""

    @pytest.fixture
    def walks(self, monkeypatch) -> list:
        # A walk over the config's fields reads its dt once, through
        # playersim.read_field; no CLI key sets dt.
        walked = []
        read_field = playersim.read_field

        def counted(cls, name, value, what):
            if cls is session.SessionConfig and name == "dt":
                walked.append(what)
            return read_field(cls, name, value, what)

        monkeypatch.setattr(playersim, "read_field", counted)
        return walked

    def test_run_session_walks_its_config_once(self, walks) -> None:
        profile = playersim.load_profile("mid_skill")
        session.run_session(session.SessionConfig(seed=0, profile=profile,
                                                  duration=10.0))
        assert len(walks) == 1

    @pytest.mark.parametrize("seeds, count", [
        (["--seed", "4"], 2), (["--seeds", "0..1"], 4)])
    def test_run_walks_each_config_twice(self, walks, capsys, seeds,
                                         count) -> None:
        # _build_config, then the session's digest.
        assert main(["run", *seeds, "--pid", "off"]) == 0
        assert len(walks) == count

    def test_verify_walks_its_config_three_times(self, walks, out_dir,
                                                 capsys) -> None:
        # _build_config, the log's digest and the re-run's digest.
        assert main(["verify", str(out_dir / "replay_0.jsonl"),
                     "--pid", "off"]) == 0
        assert len(walks) == 3


class TestVerifyHeaderSeed:
    """Without --seed, the seed comes from the header row, which is the
    log's first non-blank line, and must be a JSON integer."""

    @pytest.mark.parametrize("seed", ["1e400", "true", "4.0", '"4"'])
    def test_a_seed_that_is_no_integer_exits_2(self, out_dir, tmp_path,
                                               capsys, seed) -> None:
        lines = (out_dir / "replay_0.jsonl").read_text().splitlines()
        lines[0] = lines[0].replace('"seed":0', f'"seed":{seed}')
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad), "--pid", "off"]) == 2
        assert "header seed must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["false", "0.0"])
    def test_a_seed_that_is_no_integer_is_a_mismatch_before_any_rerun(
            self, out_dir, tmp_path, capsys, seed) -> None:
        # false and 0.0 equal 0, but neither is the integer a log writes.
        lines = (out_dir / "replay_0.jsonl").read_text().splitlines()
        lines[0] = lines[0].replace('"seed":0', f'"seed":{seed}')
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")

        def no_rerun(config):
            raise AssertionError("verify re-ran the session")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(session, "run_session", no_rerun)
            assert main(["verify", str(bad), "--seed", "0",
                         "--pid", "off"]) == 2
        assert "header mismatch" in capsys.readouterr().err

    def test_blank_lines_before_the_header_are_skipped(self, out_dir,
                                                       tmp_path,
                                                       capsys) -> None:
        text = (out_dir / "replay_0.jsonl").read_text()
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n  \n" + text)
        assert main(["verify", str(padded), "--pid", "off"]) == 0
        assert capsys.readouterr().out.startswith("ok: ")

    def test_a_log_of_blank_lines_exits_2(self, tmp_path, capsys) -> None:
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n")
        assert main(["verify", str(blank), "--pid", "off"]) == 2
        assert "cannot read seed" in capsys.readouterr().err


SWEEP_SEEDS = (0, 1, 2)


def _reference_outputs(results, out_dir, fmt: str) -> None:
    """The artefacts of a finished batch, written as the CLI wrote them
    when it held every result until the last seed ended."""

    def write_csv(path, header, rows) -> None:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def value(v):
        if v is None:
            return ""
        return f"{v:.6f}" if isinstance(v, float) else v

    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = []
    for result in results:
        seed = result.config.seed
        result.write_log(out_dir / f"replay_{seed}.jsonl")
        write_csv(out_dir / f"trace_{seed}.csv", cli.TRACE_FIELDS, (
            (f"{row.t:.6f}", f"{row.hr:.6f}", f"{row.kcal:.6f}", row.phase,
             row.energy, str(row.empowered).lower())
            for row in result.trace))
        summary = _reference_summary(result)
        summaries.append(summary)
        if fmt == "json":
            (out_dir / f"summary_{seed}.json").write_text(
                json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        else:
            write_csv(out_dir / f"summary_{seed}.csv", cli.SUMMARY_FIELDS,
                      [[value(summary[f]) for f in cli.SUMMARY_FIELDS]])
    means = ["mean"]
    for field in cli.SUMMARY_FIELDS[1:]:
        values = [row[field] for row in summaries if row[field] is not None]
        means.append(f"{sum(values) / len(values):.6f}" if values else "")
    write_csv(out_dir / "sweep.csv", cli.SUMMARY_FIELDS,
              [[value(row[f]) for f in cli.SUMMARY_FIELDS]
               for row in summaries] + [means])


def _reference_summary(result) -> dict:
    summary = {"seed": result.config.seed}
    summary.update(dataclasses.asdict(result.metrics))
    summary["config"] = result.digest
    return summary


@pytest.fixture(scope="module")
def sweep_results():
    """``run_many`` over the CLI's default config, seeds 0..2."""
    configs = [cli._build_config({}, seed) for seed in SWEEP_SEEDS]
    return session.run_many(configs, jobs=1)


@pytest.fixture(scope="module")
def reference_dirs(sweep_results, tmp_path_factory):
    dirs = {}
    for fmt in ("json", "csv"):
        dirs[fmt] = tmp_path_factory.mktemp(f"reference_{fmt}")
        _reference_outputs(sweep_results, dirs[fmt], fmt)
    return dirs


def _files(path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestStreamedRun:
    """``run`` writes each session as it finishes, with the bytes a run
    that held every result wrote."""

    SEEDS_ARG = f"{SWEEP_SEEDS[0]}..{SWEEP_SEEDS[-1]}"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_artefacts_match_the_reference(self, reference_dirs, tmp_path,
                                           capsys, fmt, jobs) -> None:
        assert main(["run", "--seeds", self.SEEDS_ARG, "--format", fmt,
                     "--jobs", jobs, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == \
            f"wrote {len(SWEEP_SEEDS)} session(s) to {tmp_path}\n"
        assert _files(tmp_path) == _files(reference_dirs[fmt])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_stdout_matches_the_reference(self, sweep_results, capsys,
                                          jobs) -> None:
        assert main(["run", "--seeds", self.SEEDS_ARG, "--jobs", jobs]) == 0
        assert capsys.readouterr().out == "".join(
            json.dumps(_reference_summary(r), indent=2) + "\n"
            for r in sweep_results)

    def test_a_failure_keeps_the_finished_seeds(self, monkeypatch,
                                                reference_dirs, tmp_path,
                                                capsys) -> None:
        run_session = session.run_session

        def failing(config):
            if config.seed == SWEEP_SEEDS[1]:
                raise RuntimeError("session exploded")
            return run_session(config)

        monkeypatch.setattr(session, "run_session", failing)
        assert main(["run", "--seeds", self.SEEDS_ARG, "--jobs", "1",
                     "--out", str(tmp_path)]) == 3
        assert "RuntimeError: session exploded" in capsys.readouterr().err
        first = SWEEP_SEEDS[0]
        reference = _files(reference_dirs["json"])
        assert _files(tmp_path) == {
            name: reference[name] for name in (
                f"replay_{first}.jsonl", f"summary_{first}.json",
                f"trace_{first}.csv")}

    def test_memory_does_not_grow_with_the_seed_count(self, tmp_path,
                                                      capsys) -> None:
        # Each result holds its log and trace, about 0.4 MB: a run that
        # kept all six would peak at several times a one-seed run.
        def peak(seeds: str, out) -> int:
            tracemalloc.start()
            try:
                assert main(["run", "--seeds", seeds, "--out", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The first run fills the plan cache the seeds share.
        assert main(["run", "--seed", "0", "--out", str(tmp_path / "warm")]) == 0
        one = peak("0..0", tmp_path / "one")
        six = peak("0..5", tmp_path / "six")
        capsys.readouterr()
        assert six < 1.5 * one, (one, six)

    def test_one_process_run_loads_no_pool(self, tmp_path) -> None:
        code = (
            "import contextlib, io, sys\n"
            "import virusboxing, virusboxing.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = virusboxing.cli.main(['run', '--seeds', '0..1',"
            " '--pid', 'off', '--jobs', '1', '--out', sys.argv[1]])\n"
            "print(code, sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        )
        src = str(Path(virusboxing.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, env=env,
                              check=True)
        assert done.stdout == "0 []\n"


class TestTextEncoding:
    def test_profiles_and_logs_name_their_encoding(self, tmp_path) -> None:
        # Under -X warn_default_encoding, each text read or write that
        # leaves its encoding to the locale warns, and -W makes that an
        # error.  Only this subprocess runs so: the tests' own files do
        # not all name an encoding.
        profile = tmp_path / "tweak.json"
        profile.write_text(json.dumps(INLINE_PROFILE), encoding="utf-8")
        code = (
            "import sys\n"
            "from virusboxing import cli, playersim\n"
            "for name in playersim.builtin_profiles():\n"
            "    playersim.load_profile(name)\n"
            "playersim.load_profile(sys.argv[1])\n"
            "out = sys.argv[2]\n"
            "assert cli.main(['run', '--seed', '0', '--out', out]) == 0\n"
            "assert cli.main(['verify', out + '/replay_0.jsonl']) == 0\n"
        )
        src = str(Path(virusboxing.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-c", code, str(profile),
             str(tmp_path / "out")],
            capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr


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
        # Past the float range: float() once raised OverflowError, a
        # runtime failure (exit 3).
        pytest.param("setpoint", 10**400, id="setpoint-10**400"),
        ("pid_gains", [10**400, 0.0, 0.0]),
    ])
    def test_non_numeric_value_is_named(self, tmp_path, capsys, key,
                                        value) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        # No --seed flag, so the file's seed is read too.
        assert main(["run", "--config", str(cfg)]) == 2
        # Named as the config key, or, for the seed, as the field
        # SessionConfig.validate holds to its type.
        err = capsys.readouterr().err
        assert repr(key) in err or err.startswith(f"error: {key} must")

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

    @pytest.mark.parametrize("value", [5, {"kp": 1}, [1, 2]])
    def test_gains_not_three_numbers_name_the_key(self, tmp_path, capsys,
                                                  value) -> None:
        assert _run_with_file(tmp_path, {"pid_gains": value}) == 2
        assert "config key 'pid_gains'" in capsys.readouterr().err

    def test_file_gains_make_a_hashable_config(self, tmp_path) -> None:
        # The file's JSON array is a list; the config holds a tuple.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pid_gains": [1, 0.005, 0]}))
        args = build_parser().parse_args(["run", "--config", str(cfg)])
        config = cli._build_config(cli._settings(args), 0)
        assert config.pid_gains == (1.0, 0.005, 0.0)
        assert config in {config}

    @pytest.mark.parametrize("key, value", [
        ("targeting", ["pt"]), ("range", {"long": 1}),
    ])
    def test_unhashable_choice_is_a_config_error(self, tmp_path, capsys, key,
                                                 value) -> None:
        assert _run_with_file(tmp_path, {key: value}) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", [
        True, "60", None, [60], pytest.param(10**400, id="10**400")])
    def test_inline_heart_values_must_be_numbers(self, tmp_path, capsys,
                                                 value) -> None:
        # float(True) is 1.0: read loosely, it would mean a 1 bpm resting rate.
        heart = {"hr_rest": value, "hr_max": 190}
        assert _run_with_file(tmp_path, {"heart": heart, "pid": False}) == 2
        assert "hr_rest" in capsys.readouterr().err

    @pytest.mark.parametrize("heart, key", [
        # Python's TypeError text once named the key only by chance.
        ({"hr_rest": 60, "hr_max": 190, "tau_rize": 5}, "unknown heart "
         "field 'tau_rize'"),
        ({"hr_rest": 60}, "heart field 'hr_max' is missing"),
    ], ids=["unknown", "missing"])
    def test_inline_heart_with_a_bad_key_is_named(self, tmp_path, capsys,
                                                  heart, key) -> None:
        assert _run_with_file(tmp_path, {"heart": heart, "pid": False}) == 2
        assert f"bad heart parameters: {key}" in capsys.readouterr().err

    def test_a_heart_rate_past_any_human_heart_is_a_config_error(
            self, tmp_path, capsys) -> None:
        # Accepted, the sum of the hr rows overflowed: avg_hr printed
        # Infinity, which is not JSON.
        heart = {"hr_rest": 1, "hr_max": 1.79e308}
        assert _run_with_file(tmp_path, {"heart": heart, "pid": False}) == 2
        assert "heart hr_max" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key, value", [
        # Non-finite: a crash on converting to a tick, or a session with
        # no jab and every virus missed.
        ("reaction_time", math.inf), ("reaction_time", math.nan),
        ("punch_speed_mean", math.inf), ("punch_speed_sd", math.nan),
        ("aim_error_sd", math.inf),
        # Past the float range: float() once raised OverflowError.
        pytest.param("reaction_time", 10**400, id="reaction_time-10**400"),
        # Negative, and checked inside the config error handling.
        ("reaction_time", -1.0),
        # At or past the longest flight no virus can be struck, and the
        # player's hot marks would grow with the reaction time.
        ("reaction_time", session._MAX_FLIGHT_SECONDS), ("reaction_time", 1e4),
        # Past the corridor's 15 m; from 1e154 run_session once raised
        # OverflowError.
        ("aim_error_sd", 1e200),
    ])
    def test_inline_profile_that_cannot_run_is_a_config_error(
            self, tmp_path, capsys, key, value) -> None:
        profile = dict(INLINE_PROFILE, **{key: value})
        assert _run_with_file(tmp_path, {"profile": profile, "pid": False}) == 2
        assert key in capsys.readouterr().err

    def test_an_integer_past_the_json_digit_limit_is_a_config_error(
            self, tmp_path, capsys) -> None:
        # json.loads raises a ValueError that is no JSONDecodeError.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"setpoint": ' + "1" * 5000 + "}")
        assert main(["run", "--config", str(cfg), "--seed", "0"]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        # float(None) raised TypeError, a runtime failure (exit 3).
        ("reaction_time", None), ("punch_speed_sd", "0.1"),
        # float(True) is 1.0, and str(None) is "None": both ran (exit 0).
        ("effort", True), ("correct_hand_prob", False), ("name", None),
        ("name", 7), ("empower_policy", "sometimes"),
        # A misspelt field once ran with the field spelt right (exit 0).
        ("reacton_time", 0.05),
    ])
    def test_inline_profile_field_of_the_wrong_type_is_named(
            self, tmp_path, capsys, key, value) -> None:
        profile = dict(INLINE_PROFILE, **{key: value})
        assert _run_with_file(tmp_path, {"profile": profile, "pid": False}) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [[1, 2], "mid_skill", 0.5, None])
    def test_profile_file_that_is_not_an_object(self, tmp_path, capsys,
                                                payload) -> None:
        # A list once raised TypeError on its first field, exit 3.
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(payload))
        assert main(RUN_OFF + ["--profile", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_profile_file_with_a_missing_field_is_named(self, tmp_path,
                                                         capsys) -> None:
        # It once printed only "error: 'effort'".
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(
            {k: v for k, v in INLINE_PROFILE.items() if k != "effort"}))
        assert main(RUN_OFF + ["--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "profile field 'effort' is missing" in err
        assert str(path) in err

    def test_profile_file_with_an_unknown_field_is_named(self, tmp_path,
                                                         capsys) -> None:
        # It once ran as an ordinary mid_skill session, exit 0.
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(dict(INLINE_PROFILE, reacton_time=0.05)))
        assert main(RUN_OFF + ["--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown profile field 'reacton_time'" in err
        assert str(path) in err

    def test_inline_profile_with_a_missing_field_is_named(self, tmp_path,
                                                          capsys) -> None:
        profile = {k: v for k, v in INLINE_PROFILE.items() if k != "effort"}
        assert _run_with_file(tmp_path, {"profile": profile, "pid": False}) == 2
        err = capsys.readouterr().err
        assert "bad inline profile: profile field 'effort' is missing" in err

    def test_a_reaction_just_below_the_longest_flight_is_accepted(self) -> None:
        profile = cli._resolve_profile(
            dict(INLINE_PROFILE, reaction_time=session._MAX_FLIGHT_SECONDS - 0.01))
        session.SessionConfig(seed=0, profile=profile).validate()

    def test_verify_rejects_a_non_integer_file_seed(self, out_dir, tmp_path,
                                                    capsys) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "0", "pid": False}))
        assert main(["verify", str(out_dir / "replay_0.jsonl"),
                     "--config", str(cfg)]) == 2
        assert "seed must be of type int" in capsys.readouterr().err


class TestFlagsOverFile:
    """A flag given lies over its config-file key, an empty value too."""

    @pytest.mark.parametrize("flag, message", [
        ("--profile", "no such profile: ''"),
        ("--heart", "unknown heart preset ''"),
    ])
    @pytest.mark.parametrize("with_file", [False, True])
    def test_an_empty_flag_is_a_config_error(self, tmp_path, capsys, flag,
                                             message, with_file) -> None:
        # Read as "not given", it once ran the file's value or the
        # default, exit 0.
        argv = RUN_OFF + [flag, ""]
        if with_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"profile": "expert",
                                       "heart": "sedentary"}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--pid", "off", "--seeds", ""], "--seeds"),
        (RUN_OFF + ["--seeds", ""], "--seeds"),
        (RUN_OFF + ["--out", ""], "--out"),
    ])
    def test_an_empty_run_flag_is_a_config_error(self, tmp_path, monkeypatch,
                                                 capsys, argv, flag) -> None:
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert flag in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["yes", "true", ""])
    def test_pid_flag_takes_only_on_or_off(self, capsys, value) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["run", "--seed", "0", "--pid", value])
        assert exc.value.code == 2
        assert "--pid" in capsys.readouterr().err


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
        def iter_sessions(configs, jobs):
            raise AssertionError("no session may run")
            yield

        monkeypatch.setattr(cli, "iter_sessions", iter_sessions)
        assert main(RUN_OFF + ["--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestFormat:
    def test_csv_without_out_is_a_config_error(self, monkeypatch,
                                               capsys) -> None:
        # It once printed the JSON summary and exited 0, the flag unread.
        def build_config(settings, seed):
            raise AssertionError("no config may be built")

        monkeypatch.setattr(cli, "_build_config", build_config)
        assert main(RUN_OFF + ["--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert "--out" in captured.err
        assert captured.out == ""


class TestRuntimeFailure:
    def test_exit_3_prints_the_failure_and_its_traceback(self, monkeypatch,
                                                         capsys) -> None:
        def iter_sessions(configs, jobs):
            raise RuntimeError("worker exploded")
            yield

        monkeypatch.setattr(cli, "iter_sessions", iter_sessions)
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
        assert "seed must lie in [0, inf)" in capsys.readouterr().err

    def test_seed_range_with_equals(self, tmp_path, capsys) -> None:
        assert main(["run", "--seeds=-2..2", "--pid", "off",
                     "--out", str(tmp_path)]) == 2
        assert "seed must lie in [0, inf)" in capsys.readouterr().err
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
        assert "seed must lie in [0, inf)" in capsys.readouterr().err

    def test_verify_seed_flag(self, out_dir, capsys) -> None:
        assert main(["verify", str(out_dir / "replay_0.jsonl"), "--seed", "-1",
                     "--pid", "off"]) == 2
        assert "seed must lie in [0, inf)" in capsys.readouterr().err


class TestUnreadableFiles:
    """A profile or a log that is there but cannot be read is a
    configuration error naming the file (exit 2), not a runtime failure
    (exit 3)."""

    @pytest.fixture(params=["permission denied", "/proc/self/mem"])
    def unreadable(self, request, tmp_path, monkeypatch) -> Path:
        if request.param == "/proc/self/mem":
            # A regular file on Linux whose read at offset 0 fails (EIO).
            path = Path(request.param)
            if not path.is_file():
                pytest.skip("no /proc/self/mem off Linux")
            return path
        path = tmp_path / "locked.json"
        path.write_text("{}\n", encoding="utf-8")
        real_open = Path.open

        def locked_open(self, *args, **kwargs):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", locked_open)
        return path

    def test_profile_file(self, unreadable, capsys) -> None:
        assert main(RUN_OFF + ["--profile", str(unreadable)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read profile file {unreadable}: " in err
        assert "runtime failure" not in err

    @pytest.mark.parametrize("seed", [["--seed", "0"], []])
    def test_log_file(self, unreadable, capsys, seed) -> None:
        # Without --seed the header read fails, with it replay_verify's;
        # passing --seed would not help, so the message does not ask for it.
        assert main(["verify", str(unreadable), "--pid", "off", *seed]) == 2
        err = capsys.readouterr().err
        assert f"cannot read log file {unreadable}: " in err
        assert "--seed" not in err
        assert "runtime failure" not in err
