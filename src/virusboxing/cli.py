"""Command line front end: run sessions and verify replay logs.

``virusboxing run`` executes one seed or a seed range and writes
summaries, replay logs, and per-second traces; ``virusboxing verify``
re-runs a config against a saved log and reports the first divergence.

``run`` builds and checks every config before any session starts.  It
then writes each session's artefacts, or prints its summary, as the
session finishes, and keeps only the summaries, for ``sweep.csv`` after
the last seed.  A failure part-way leaves the finished seeds' files on
disk and writes no ``sweep.csv``.

Exit codes: run returns 0 on success, 2 for configuration problems, 3
for runtime failures.  verify returns 0 on a byte-identical match, 1 on
divergence, 2 when the log header does not match the configuration.
Either command prints a runtime failure's traceback to standard error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

from .interaction import TargetingMode, TargetingPolicy, TargetingRange
from .physiology import DEFAULT_PID_GAINS, HEART_PRESETS, HeartRateParams
from .playersim import PlayerProfile, builtin_profiles, load_profile
from .session import (
    DEFAULT_SETPOINT,
    HeaderMismatchError,
    SessionConfig,
    SessionResult,
    iter_sessions,
    replay_verify,
    run_many,
)
# ``run`` streams its sessions through ``iter_sessions``, so nothing here
# calls ``run_many``; it stays bound because the benchmark's tracer wraps
# it by name in this namespace.

__all__ = ["main", "build_parser"]

_TARGETING_MODES = {"pt": TargetingMode.PRECISE, "rt": TargetingMode.ROUGH}
_RANGES = {
    "short": TargetingRange.SHORT,
    "medium": TargetingRange.MEDIUM,
    "long": TargetingRange.LONG,
}

TRACE_FIELDS = ("time", "hr", "kcal", "phase", "energy", "empowered")
SUMMARY_FIELDS = (
    "seed", "viruses_spawned", "cells_spawned", "viruses_destroyed",
    "viruses_missed", "cells_avoided", "cells_collided", "wrong_hand_jabs",
    "activations", "miss_pct", "cell_hit_pct", "avg_hr", "max_hr", "kcal",
)


# Every key a --config file may hold.
CONFIG_KEYS = ("seed", "profile", "targeting", "range", "heart", "pid",
               "setpoint", "pid_gains")


class ConfigError(Exception):
    """Bad flag combination, config file, or profile reference."""


def _session_flags() -> argparse.ArgumentParser:
    """The flags that choose a session, shared by run and verify."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", metavar="FILE",
                       help="JSON file with session settings; flags override it")
    flags.add_argument("--seed", type=int,
                       help="session seed (default: the config file's; "
                            "else 0 for run, the log header's for verify)")
    flags.add_argument("--profile", metavar="NAME",
                       help="built-in profile name or JSON path "
                            f"(built-ins: {', '.join(builtin_profiles())})")
    flags.add_argument("--targeting", choices=sorted(_TARGETING_MODES),
                       help="empowered targeting mode: pt (precise) or rt (rough)")
    flags.add_argument("--range", choices=sorted(_RANGES), dest="range_",
                       metavar="RANGE",
                       help="empowered targeting range: short, medium, or long")
    flags.add_argument("--heart", metavar="PRESET",
                       help=f"heart model preset ({', '.join(sorted(HEART_PRESETS))})")
    flags.add_argument("--pid", choices=("on", "off"),
                       help="difficulty controller during sprints")
    flags.add_argument("--setpoint", type=float,
                       help="controller heart-rate target in bpm")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virusboxing",
        description="Deterministic boxing exergame session simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = _session_flags()

    run = sub.add_parser("run", parents=[flags],
                         help="simulate one seed or a seed range")
    run.add_argument("--seeds", metavar="A..B",
                     help="inclusive seed range, e.g. 0..49 (not with --seed)")
    run.add_argument("--out", metavar="DIR",
                     help="write summaries, replay logs, and traces here")
    run.add_argument("--format", choices=("json", "csv"), default="json",
                     help="summary file format (default json)")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes for seed ranges (default 1)")

    verify = sub.add_parser("verify", parents=[flags],
                            help="check a replay log against a config")
    verify.add_argument("log", metavar="LOG", help="replay log to verify")
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(
            f"config file {path}: unknown key "
            f"{', '.join(repr(key) for key in unknown)} "
            f"(expected: {', '.join(CONFIG_KEYS)})"
        )
    return data


def _number(key: str, value: object) -> float:
    """A config-file value that must be a JSON number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _file_seed(file_cfg: dict) -> int:
    seed = file_cfg["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"config key 'seed' must be an integer, got {seed!r}")
    return seed


def _resolve_profile(ref: object) -> PlayerProfile:
    if isinstance(ref, dict):
        try:
            profile = PlayerProfile.from_dict(ref)
            profile.validate()
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad inline profile: {exc}") from exc
        return profile
    if isinstance(ref, str):
        try:
            return load_profile(ref)
        except (FileNotFoundError, ValueError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"profile must be a name or an object, got {type(ref).__name__}")


def _resolve_heart(ref: object) -> HeartRateParams:
    if isinstance(ref, str):
        try:
            return HEART_PRESETS[ref]
        except KeyError as exc:
            raise ConfigError(
                f"unknown heart preset {ref!r} "
                f"(expected one of: {', '.join(sorted(HEART_PRESETS))})"
            ) from exc
    if isinstance(ref, dict):
        values = {k: _number(f"heart.{k}", v) for k, v in ref.items()}
        try:
            return HeartRateParams(**values)
        except TypeError as exc:
            raise ConfigError(f"bad heart parameters: {exc}") from exc
    raise ConfigError("heart must be a preset name or a parameter object")


def _parse_seeds(args: argparse.Namespace, file_cfg: dict) -> list[int]:
    if getattr(args, "seeds", None):
        if args.seed is not None:
            raise ConfigError("--seed and --seeds cannot be combined")
        text = args.seeds
        parts = text.split("..")
        if len(parts) != 2:
            raise ConfigError(f"--seeds expects A..B, got {text!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"--seeds expects integers, got {text!r}") from exc
        if hi < lo:
            raise ConfigError(f"--seeds range is empty: {text}")
        return list(range(lo, hi + 1))
    if args.seed is not None:
        return [args.seed]
    if "seed" in file_cfg:
        return [_file_seed(file_cfg)]
    return [0]


def _build_config(args: argparse.Namespace, file_cfg: dict,
                  seed: int) -> SessionConfig:
    profile_ref = args.profile or file_cfg.get("profile", "mid_skill")
    profile = _resolve_profile(profile_ref)

    mode_key = args.targeting or file_cfg.get("targeting", "rt")
    if not isinstance(mode_key, str) or mode_key not in _TARGETING_MODES:
        raise ConfigError(f"unknown targeting mode {mode_key!r}")
    range_key = args.range_ or file_cfg.get("range", "long")
    if not isinstance(range_key, str) or range_key not in _RANGES:
        raise ConfigError(f"unknown targeting range {range_key!r}")
    targeting = TargetingPolicy(mode=_TARGETING_MODES[mode_key],
                                range=_RANGES[range_key])

    heart = _resolve_heart(args.heart or file_cfg.get("heart", "regular"))

    if args.pid is not None:
        pid_enabled = args.pid == "on"
    else:
        pid_enabled = file_cfg.get("pid", True)
        if not isinstance(pid_enabled, bool):
            raise ConfigError(
                f"config key 'pid' must be true or false, got {pid_enabled!r}"
            )
    setpoint = args.setpoint
    if setpoint is None:
        setpoint = _number("setpoint",
                           file_cfg.get("setpoint", DEFAULT_SETPOINT))
    gains = file_cfg.get("pid_gains", DEFAULT_PID_GAINS)
    if not (isinstance(gains, (list, tuple)) and len(gains) == 3):
        raise ConfigError("pid_gains must be a list of three numbers")

    config = SessionConfig(
        seed=seed,
        profile=profile,
        targeting=targeting,
        heart=heart,
        pid_enabled=pid_enabled,
        pid_gains=tuple(_number("pid_gains", g) for g in gains),
        hr_setpoint=setpoint,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _summary_dict(result: SessionResult) -> dict:
    data = {"seed": result.config.seed}
    data.update(asdict(result.metrics))
    data["config"] = result.digest
    return data


def _write_csv(path: Path, header: Sequence[str],
               rows: Iterable[Sequence[object]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_value(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def _summary_row(summary: dict) -> list[object]:
    return [_csv_value(summary[f]) for f in SUMMARY_FIELDS]


def _write_session(result: SessionResult, out_dir: Path, fmt: str) -> dict:
    """Write one session's replay log, trace and summary; return the
    summary."""
    seed = result.config.seed
    result.write_log(out_dir / f"replay_{seed}.jsonl")
    _write_csv(out_dir / f"trace_{seed}.csv", TRACE_FIELDS, (
        (f"{row.t:.6f}", f"{row.hr:.6f}", f"{row.kcal:.6f}", row.phase,
         row.energy, str(row.empowered).lower())
        for row in result.trace))
    summary = _summary_dict(result)
    if fmt == "json":
        (out_dir / f"summary_{seed}.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    else:
        _write_csv(out_dir / f"summary_{seed}.csv", SUMMARY_FIELDS,
                   [_summary_row(summary)])
    return summary


def _write_sweep(summaries: list[dict], path: Path) -> None:
    means = ["mean"]
    for field in SUMMARY_FIELDS[1:]:
        values = [row[field] for row in summaries if row[field] is not None]
        means.append(f"{sum(values) / len(values):.6f}" if values else "")
    _write_csv(path, SUMMARY_FIELDS,
               [_summary_row(row) for row in summaries] + [means])


def _cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    file_cfg = _load_config_file(args.config)
    seeds = _parse_seeds(args, file_cfg)
    configs = [_build_config(args, file_cfg, seed) for seed in seeds]
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    summaries = []
    # Each session is written, or printed, as it finishes, and dropped
    # before the next one runs: only the summaries stay, for sweep.csv.
    for result in iter_sessions(configs, jobs=args.jobs):
        if out_dir is None:
            print(json.dumps(_summary_dict(result), indent=2))
        else:
            summaries.append(_write_session(result, out_dir, args.format))
        del result
    if out_dir is not None:
        if len(summaries) > 1:
            _write_sweep(summaries, out_dir / "sweep.csv")
        print(f"wrote {len(summaries)} session(s) to {args.out}")
    return 0


def _header_seed(log_path: Path) -> int:
    """The seed of a log's header row: its first non-blank line, as
    ``replay_verify`` reads it, whose seed must be a JSON integer."""
    try:
        with log_path.open(encoding="utf-8") as fh:
            line = next((ln for ln in fh if ln.strip()), "")
        header = json.loads(line)
        seed = header["seed"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"cannot read seed from log header; pass --seed ({exc})"
        ) from exc
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(
            f"log header seed must be an integer, got {seed!r}; pass --seed"
        )
    return seed


def _cmd_verify(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    log_path = Path(args.log)
    if not log_path.is_file():
        raise ConfigError(f"no such log file: {log_path}")
    seed = args.seed
    if seed is None and "seed" not in file_cfg:
        seed = _header_seed(log_path)
    elif seed is None:
        seed = _file_seed(file_cfg)
    config = _build_config(args, file_cfg, seed)
    try:
        report = replay_verify(log_path, config)
    except HeaderMismatchError as exc:
        print(f"header mismatch: {exc}", file=sys.stderr)
        return 2
    if report.ok:
        print(f"ok: {report.lines_checked} lines match")
        return 0
    print(f"divergence at line {report.divergence_line}:", file=sys.stderr)
    print(f"  expected: {report.expected}", file=sys.stderr)
    print(f"  actual:   {report.actual}", file=sys.stderr)
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
