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
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterable, Sequence

from .interaction import TargetingMode, TargetingPolicy, TargetingRange
from .physiology import HEART_PRESETS, HeartRateParams
from .playersim import (
    PlayerProfile,
    builtin_profiles,
    load_profile,
    read_json_object,
    read_number,
)
from .progression import SummaryMetrics
from .session import (
    HeaderMismatchError,
    SessionConfig,
    SessionResult,
    iter_sessions,
    read_header,
    replay_verify,
    run_many,
)
# ``run`` streams its sessions through ``iter_sessions``, so nothing here
# calls ``run_many``; it stays bound because the benchmark's tracer wraps
# it by name in this namespace.

__all__ = ["main", "build_parser"]

# Each targeting key: the TargetingPolicy field it sets, and the member
# each of its values names.
_TARGETING = {
    "targeting": ("mode", {"pt": TargetingMode.PRECISE,
                           "rt": TargetingMode.ROUGH}),
    "range": ("range", {member.value: member for member in TargetingRange}),
}

TRACE_FIELDS = ("time", "hr", "kcal", "phase", "energy", "empowered")
SUMMARY_FIELDS = ("seed", *(field.name for field in fields(SummaryMetrics)))


# Every key a --config file may hold.
CONFIG_KEYS = ("seed", "profile", "targeting", "range", "heart", "pid",
               "setpoint", "pid_gains")


class ConfigError(Exception):
    """Bad flag combination, config file, or profile reference."""


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on or off, got {text!r}")
    return text == "on"


def _session_flags() -> argparse.ArgumentParser:
    """The flags that choose a session, shared by run and verify.  Each
    but --config is stored under the config-file key it overrides, and
    only when it is given."""
    flags = argparse.ArgumentParser(add_help=False,
                                    argument_default=argparse.SUPPRESS)
    flags.add_argument("--config", metavar="FILE", default=None,
                       help="JSON file with session settings; flags override it")
    flags.add_argument("--seed", type=int,
                       help="session seed (default: the config file's; "
                            "else 0 for run, the log header's for verify)")
    flags.add_argument("--profile", metavar="NAME",
                       help="built-in profile name or JSON path "
                            f"(built-ins: {', '.join(builtin_profiles())})")
    flags.add_argument("--targeting", choices=sorted(_TARGETING["targeting"][1]),
                       help="empowered targeting mode: pt (precise) or rt (rough)")
    flags.add_argument("--range", choices=sorted(_TARGETING["range"][1]),
                       metavar="RANGE",
                       help="empowered targeting range: short, medium, or long")
    flags.add_argument("--heart", metavar="PRESET",
                       help=f"heart model preset ({', '.join(sorted(HEART_PRESETS))})")
    flags.add_argument("--pid", type=_on_off, metavar="{on,off}",
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


def _settings(args: argparse.Namespace) -> dict:
    """The session settings: the config file's object, if any, with each
    session flag given laid over its key."""
    given = {key: value for key, value in vars(args).items()
             if key in CONFIG_KEYS}
    path = args.config
    if path is None:
        return given
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        # A missing file, a directory or a file that is not UTF-8.
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # an integer past json's digit limit too
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
    return {**data, **given}


def _seed(settings: dict) -> int:
    seed = settings["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"config key 'seed' must be an integer, got {seed!r}")
    return seed


def _resolve_profile(ref: object) -> PlayerProfile:
    if isinstance(ref, dict):
        try:
            return PlayerProfile.from_dict(ref)
        except ValueError as exc:
            raise ConfigError(f"bad inline profile: {exc}") from exc
    if isinstance(ref, str):
        try:
            return load_profile(ref)
        except FileNotFoundError as exc:
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(f"bad profile {ref!r}: {exc}") from exc
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
        try:
            return read_json_object(HeartRateParams, ref, "heart")
        except ValueError as exc:
            raise ConfigError(f"bad heart parameters: {exc}") from exc
    raise ConfigError("heart must be a preset name or a parameter object")


def _parse_seeds(args: argparse.Namespace, settings: dict) -> list[int]:
    if args.seeds:
        if "seed" in args:
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
    return [_seed(settings)] if "seed" in settings else [0]


def _build_config(settings: dict, seed: int) -> SessionConfig:
    """The config ``settings`` chooses at ``seed``: each key read by one
    rule, whichever of the flags and the file set it, and each field no
    key sets left at its declared default."""
    profile = _resolve_profile(settings.get("profile", "mid_skill"))
    targeting = {}
    for key, (field, members) in _TARGETING.items():
        if key in settings:
            value = settings[key]
            if not isinstance(value, str) or value not in members:
                raise ConfigError(f"unknown targeting {field} {value!r}")
            targeting[field] = members[value]
    chosen = {}
    if "heart" in settings:
        chosen["heart"] = _resolve_heart(settings["heart"])
    if "pid" in settings:
        if not isinstance(settings["pid"], bool):
            raise ConfigError(f"config key 'pid' must be true or false, "
                              f"got {settings['pid']!r}")
        chosen["pid_enabled"] = settings["pid"]

    # A value that is no number, or a number outside its field's
    # interval, is a configuration error naming it.
    try:
        if "setpoint" in settings:
            chosen["hr_setpoint"] = read_number(settings["setpoint"],
                                                "config key 'setpoint'")
        if "pid_gains" in settings:
            gains = settings["pid_gains"]
            if not (isinstance(gains, (list, tuple)) and len(gains) == 3):
                raise ConfigError("pid_gains must be a list of three numbers")
            chosen["pid_gains"] = tuple(
                read_number(gain, "config key 'pid_gains'") for gain in gains)
        config = SessionConfig(seed=seed, profile=profile,
                               targeting=TargetingPolicy(**targeting),
                               **chosen)
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
    if isinstance(value, bool):
        return "true" if value else "false"
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
    _write_csv(out_dir / f"trace_{seed}.csv", TRACE_FIELDS,
               ([_csv_value(value) for value in row] for row in result.trace))
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
    settings = _settings(args)
    configs = [_build_config(settings, seed)
               for seed in _parse_seeds(args, settings)]
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot make output directory {args.out}: {exc}") from exc
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
    """The seed of a log's header row, its first non-blank line, as
    ``replay_verify`` reads it (``session.read_header``)."""
    try:
        with log_path.open(encoding="utf-8") as fh:
            line = next((ln for ln in fh if ln.strip()), "")
        return read_header(line)["seed"]
    except (HeaderMismatchError, ValueError) as exc:  # not UTF-8 too
        raise ConfigError(
            f"cannot read seed from log header; pass --seed ({exc})"
        ) from exc


def _cmd_verify(args: argparse.Namespace) -> int:
    settings = _settings(args)
    log_path = Path(args.log)
    if not log_path.is_file():
        raise ConfigError(f"no such log file: {log_path}")
    seed = _seed(settings) if "seed" in settings else _header_seed(log_path)
    config = _build_config(settings, seed)
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
