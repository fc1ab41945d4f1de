"""The benchmark's workloads, the program's layers, and the output checks.

Every workload is a closed-loop series of batches: batch ``k`` starts when
batch ``k - 1`` has returned.  Session seeds are ``base + index`` where
``base`` is drawn from the workload seed, so a new workload seed gives new
sessions of exactly the same shape.  All sessions run the full 420 s
protocol at 50 Hz and in this process (``jobs=1``).

- ``sweep``: ``cli.main(["run", "--seeds", "A..B", "--jobs", "1", "--out",
  dir])`` over 20 seeds a call, the shape of the repository's own sweep
  example (``--seeds 0..19``), on the default config.  The paper's study
  shape: every session shares one config, and only this workload writes
  artefacts through ``cli``.
- ``grid``: ``run_many(configs, jobs=1)`` over 24 distinct configs (3
  profiles x pt/rt x PID on/off x regular/sedentary heart).  No two
  sessions share a config, and nothing is written to disk.
- ``replay``: logs for expert, pt, PID off, sedentary heart are written
  during set-up; the timed part is ``cli.main(["verify", log, ...])`` plus
  ``metrics_from_log`` on the log's lines.  The read side of ``session``.

``grid`` and ``replay`` re-import the program before every batch, outside
the timed part (``fresh_program``), so that no state kept in the process,
such as a cache, carries over from one batch to the next.  ``sweep`` keeps
one import: sharing across its sessions is what it is there to show.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import shutil
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from tracer import Stat, Target

PROGRAM_MODULES = ("cli", "session", "interaction", "physiology", "playersim",
                   "world")

SWEEP_BATCH = 20  # seeds per `cli run` call, as in the README's --seeds 0..19
REPLAY_LOGS = 4
GRID_PROFILES = ("mid_skill", "expert", "novice")
GRID_TARGETING = ("pt", "rt")
GRID_PID = (True, False)
GRID_HEART = ("regular", "sedentary")
REPLAY_FLAGS = ["--profile", "expert", "--targeting", "pt", "--pid", "off",
                "--heart", "sedentary"]

# Every callable bound in virusboxing.session's namespace that run_session
# calls on the tick path, by layer metric name.  Methods are wrapped on
# their classes (see layer_targets).
SESSION_CALLS = {
    "protocol.phase_at": "phase_at",
    "protocol.next_spawn": "next_spawn",
    "protocol.spawn_params": "spawn_params",
    "physiology.apply_modulation": "apply_modulation",
    "physiology.hr_step": "hr_step",
    "physiology.kcal_step": "kcal_step",
    "physiology.modulated_intensity": "modulated_intensity",
    "world.advance": "advance",
    "interaction.resolve_jab": "resolve_jab",
    "interaction.classify_weave_pose": "classify_weave_pose",
    "interaction.resolve_cell_pass": "resolve_cell_pass",
}
PROGRESSION_CALLS = (
    "is_empowered", "on_virus_destroyed", "on_virus_missed", "on_cell_avoided",
    "on_cell_collided", "on_wrong_hand", "activate_empowerment",
    "tick_empowerment", "summary",
)
# (layer metric name, module, class, method)
METHOD_CALLS = (
    ("physiology.pid_step", "physiology", "PidController", "step"),
    ("world.spawn", "world", "WorldState", "spawn"),
    ("world.retire", "world", "WorldState", "retire"),
    ("playersim.sample", "playersim", "SyntheticPlayer", "sample"),
    ("playersim.observe_spawn", "playersim", "SyntheticPlayer", "observe_spawn"),
    ("interaction.jab_detector_update", "interaction", "JabDetector", "update"),
)
# Stages reported as <name>.calls and <name>.us_per_tick.
STAGES = (
    "protocol.phase_at", "protocol.next_spawn", "protocol.spawn_params",
    "physiology.pid_step", "physiology.apply_modulation", "physiology.hr_step",
    "physiology.kcal_step", "physiology.modulated_intensity",
    "world.spawn", "world.retire", "world.advance",
    "playersim.sample", "playersim.observe_spawn",
    "interaction.jab_detector_update", "interaction.resolve_jab",
    "interaction.classify_weave_pose", "interaction.resolve_cell_pass",
    "progression",
)
ROOT_SPAN = "session.run_session"


def load_program(src: Path) -> SimpleNamespace:
    """Import the program from ``src`` afresh and return its modules.

    Any previously imported copy is dropped first, so the import is paid
    again; this is what set-up time measures.
    """
    for name in [m for m in sys.modules
                 if m == "virusboxing" or m.startswith("virusboxing.")]:
        del sys.modules[name]
    package = importlib.import_module("virusboxing")
    origin = Path(package.__file__).resolve()
    if origin.parent.parent != src.resolve():
        raise ImportError(f"virusboxing was imported from {origin}, not {src}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"virusboxing.{name}")
        for name in PROGRAM_MODULES
    })


def _count_stepped(stat: Stat, args: tuple, result: Any) -> None:
    # advance() leaves crossings in flight for the caller to resolve, so
    # after the call in_flight still holds every entity it stepped.
    stat.add("entities_stepped", len(args[0].in_flight))


def _track_peak(stat: Stat, args: tuple, result: Any) -> None:
    stat.peak("in_flight_peak", len(args[0].in_flight))


def _count_fired(stat: Stat, args: tuple, result: Any) -> None:
    stat.add("fired", len(result))


def _count_jab(stat: Stat, args: tuple, result: Any) -> None:
    stat.add("scanned", len(args[1].in_flight))
    if result.kind.value == "destroyed":
        stat.add("destroyed")


def _count_avoided(stat: Stat, args: tuple, result: Any) -> None:
    if result.value == "avoided":
        stat.add("avoided")


HOOKS = {
    "world.advance": _count_stepped,
    "world.spawn": _track_peak,
    "interaction.jab_detector_update": _count_fired,
    "interaction.resolve_jab": _count_jab,
    "interaction.resolve_cell_pass": _count_avoided,
}


def root_targets(vb: SimpleNamespace,
                 before: Callable[[], None] | None = None) -> list[Target]:
    """The session clock alone: one span per run_session call."""
    return [Target(ROOT_SPAN, vb.session, "run_session", keep_durations=True,
                   before=before)]


def layer_targets(vb: SimpleNamespace) -> list[Target]:
    """Every layer span the traced run records."""
    session, cli = vb.session, vb.cli
    targets = root_targets(vb)
    for name, attr in SESSION_CALLS.items():
        targets.append(Target(name, session, attr, HOOKS.get(name)))
    for name, module, cls, method in METHOD_CALLS:
        owner = getattr(getattr(vb, module), cls)
        targets.append(Target(name, owner, method, HOOKS.get(name)))
    targets += [Target("progression", session, attr)
                for attr in PROGRESSION_CALLS]
    # cli binds run_many and replay_verify by name, so both bindings are
    # wrapped to see the calls made from either module.
    for attr in ("run_many", "replay_verify"):
        targets += [Target(f"session.{attr}", session, attr),
                    Target(f"session.{attr}", cli, attr)]
    targets += [Target("session.metrics_from_log", session, "metrics_from_log"),
                Target("cli.main", cli, "main")]
    return targets


def session_base(workload: str, seed: int) -> int:
    """First session seed of a workload; later sessions count up from it."""
    return random.Random(f"virusboxing-bench/{workload}/{seed}").randrange(1 << 30)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Session:
    """One completed session as the benchmark saw it."""

    label: str
    config: Any
    log: str  # the replay log exactly as written: lines joined, final newline
    reported: dict  # the metrics the program reported for this session
    replay_ok: bool | None = None  # replay: the verify exit code was 0
    parsed: dict | None = None  # replay: metrics_from_log in the timed part

    @property
    def ticks(self) -> int:
        """Simulated ticks, drain included, read from the log's end row."""
        end = json.loads(self.log.rstrip("\n").rsplit("\n", 1)[-1])
        return round(end["t"] / self.config.dt)

    @property
    def drain_ticks(self) -> int:
        return self.ticks - round(self.config.duration / self.config.dt)

    @property
    def digest(self) -> str:
        return sha256(self.log)


class Workload:
    """Set-up in ``__init__``; ``run`` is timed; ``collect`` and ``check`` not."""

    name = ""
    # Session host times come from the session clock (one span per
    # run_session call, in batch order) unless the workload's timed
    # operation is itself one session.
    uses_session_clock = True

    # Re-import the program before every batch (see the module docstring).
    fresh_program = False

    def __init__(self, vb: SimpleNamespace, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.base = session_base(self.name, seed)
        self.bind(vb)

    def bind(self, vb: SimpleNamespace) -> None:
        """Use the program ``vb``, building every config from its modules."""
        self.vb = vb

    def plan(self, k: int) -> list[tuple[str, Any]]:
        """Labels and configs of the sessions in batch ``k``."""
        raise NotImplementedError

    def run(self, k: int) -> Any:
        """The timed operation for batch ``k``; returns its raw output."""
        raise NotImplementedError

    def collect(self, k: int, raw: Any) -> list[Session]:
        raise NotImplementedError

    def verify(self, session: Session) -> str | None:
        """Workload-specific replay check; a problem description or None."""
        try:
            report = self.vb.session.replay_verify(
                session.log.splitlines(), session.config)
        except self.vb.session.HeaderMismatchError as exc:
            return f"replay header mismatch: {exc}"
        if not report.ok:
            return f"replay diverges at line {report.divergence_line}"
        return None

    def check(self, session: Session,
              pinned: dict[str, str] | None) -> list[str]:
        """Every output check; an empty list means the session passed."""
        problems = []
        rebuilt = asdict(self.vb.session.metrics_from_log(session.log.splitlines()))
        if rebuilt != session.reported:
            problems.append("metrics_from_log differs from the reported metrics")
        r = session.reported
        if (r["viruses_destroyed"] + r["viruses_missed"] != r["viruses_spawned"]
                or r["cells_avoided"] + r["cells_collided"] != r["cells_spawned"]):
            problems.append("summary counters are not conserved")
        problem = self.verify(session)
        if problem:
            problems.append(problem)
        if pinned is not None:
            if session.label not in pinned:
                problems.append("no pinned digest for this session: pin more "
                                "batches with pin_digests.py on the parent")
            elif pinned[session.label] != session.digest:
                problems.append("log digest differs from the pinned digest")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class SweepWorkload(Workload):
    name = "sweep"

    def bind(self, vb: SimpleNamespace) -> None:
        super().bind(vb)
        self.profile = vb.playersim.load_profile("mid_skill")

    def seeds(self, k: int) -> range:
        first = self.base + k * SWEEP_BATCH
        return range(first, first + SWEEP_BATCH)

    def plan(self, k: int) -> list[tuple[str, Any]]:
        config = self.vb.session.SessionConfig
        return [(f"seed{s}", config(seed=s, profile=self.profile))
                for s in self.seeds(k)]

    def run(self, k: int) -> int:
        seeds = self.seeds(k)
        argv = ["run", "--seeds", f"{seeds[0]}..{seeds[-1]}", "--jobs", "1",
                "--out", str(self.workdir / f"batch{k}")]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.vb.cli.main(argv)

    def collect(self, k: int, raw: int) -> list[Session]:
        if raw != 0:
            raise RuntimeError(f"virusboxing run exited {raw}")
        out = self.workdir / f"batch{k}"
        sessions = []
        for label, config in self.plan(k):
            summary = json.loads(
                (out / f"summary_{config.seed}.json").read_text(encoding="utf-8"))
            reported = {key: value for key, value in summary.items()
                        if key not in ("seed", "config")}
            log = (out / f"replay_{config.seed}.jsonl").read_text(encoding="utf-8")
            sessions.append(Session(label, config, log, reported))
        shutil.rmtree(out)
        return sessions


class GridWorkload(Workload):
    name = "grid"
    fresh_program = True

    def bind(self, vb: SimpleNamespace) -> None:
        super().bind(vb)
        interaction, physiology = vb.interaction, vb.physiology
        modes = {"pt": interaction.TargetingMode.PRECISE,
                 "rt": interaction.TargetingMode.ROUGH}
        self.cells = []
        for profile in GRID_PROFILES:
            loaded = vb.playersim.load_profile(profile)
            for targeting in GRID_TARGETING:
                for pid in GRID_PID:
                    for heart in GRID_HEART:
                        label = (f"{profile}-{targeting}-pid_{'on' if pid else 'off'}"
                                 f"-{heart}")
                        self.cells.append((label, dict(
                            profile=loaded,
                            targeting=interaction.TargetingPolicy(mode=modes[targeting]),
                            heart=physiology.HEART_PRESETS[heart],
                            pid_enabled=pid,
                        )))

    def plan(self, k: int) -> list[tuple[str, Any]]:
        first = self.base + k * len(self.cells)
        return [(f"{label}/seed{first + i}",
                 self.vb.session.SessionConfig(seed=first + i, **fields))
                for i, (label, fields) in enumerate(self.cells)]

    def run(self, k: int) -> list:
        return self.vb.session.run_many([c for _, c in self.plan(k)], jobs=1)

    def collect(self, k: int, raw: list) -> list[Session]:
        return [Session(label, result.config, "\n".join(result.lines) + "\n",
                        asdict(result.metrics))
                for (label, _), result in zip(self.plan(k), raw, strict=True)]


class ReplayWorkload(Workload):
    name = "replay"
    uses_session_clock = False
    fresh_program = True

    def __init__(self, vb: SimpleNamespace, seed: int, workdir: Path) -> None:
        super().__init__(vb, seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        # (log text, reported metrics) per log, as written in set-up.
        self.written = []
        for config in self.configs:
            result = vb.session.run_session(config, log_path=self.path(config))
            self.written.append((self.path(config).read_text(encoding="utf-8"),
                                 asdict(result.metrics)))

    def bind(self, vb: SimpleNamespace) -> None:
        super().bind(vb)
        interaction, physiology = vb.interaction, vb.physiology
        profile = vb.playersim.load_profile("expert")
        self.configs = [vb.session.SessionConfig(
            seed=self.base + i,
            profile=profile,
            targeting=interaction.TargetingPolicy(
                mode=interaction.TargetingMode.PRECISE),
            heart=physiology.HEART_PRESETS["sedentary"],
            pid_enabled=False,
        ) for i in range(REPLAY_LOGS)]

    def path(self, config: Any) -> Path:
        return self.workdir / f"replay_{config.seed}.jsonl"

    def plan(self, k: int) -> list[tuple[str, Any]]:
        config = self.configs[k % len(self.configs)]
        return [(f"seed{config.seed}", config)]

    def run(self, k: int) -> tuple[int, dict]:
        path = self.path(self.configs[k % len(self.configs)])
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.vb.cli.main(["verify", str(path), *REPLAY_FLAGS])
        lines = path.read_text(encoding="utf-8").splitlines()
        return code, asdict(self.vb.session.metrics_from_log(lines))

    def collect(self, k: int, raw: tuple[int, dict]) -> list[Session]:
        (label, config), = self.plan(k)
        log, reported = self.written[k % len(self.written)]
        code, parsed = raw
        return [Session(label, config, log, reported,
                        replay_ok=code == 0, parsed=parsed)]

    def verify(self, session: Session) -> str | None:
        if not session.replay_ok:
            return "virusboxing verify did not report ok"
        if session.parsed != session.reported:
            return "metrics_from_log in the timed part differs from the run"
        return None


WORKLOADS = {w.name: w for w in (SweepWorkload, GridWorkload, ReplayWorkload)}
