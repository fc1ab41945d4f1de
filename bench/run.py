"""Benchmark of the virusboxing simulator.

Run from the repository root:

    python3 bench/run.py --workload sweep|grid|replay --seed N \
        --seconds S --trace 0|1

The workload seed fixes every session seed (see workloads.py).  Set-up
(import of ``src/virusboxing``, profile and config build, and any inputs
the workload writes) runs at least five times and until a second has
passed, up to 25 times, and its median is ``setup_s``.
Then batches run back to back until ``S`` seconds of timed work have
passed.  Every session is checked after its batch returns, outside the
timed part.  Untraced timings are scaled to a reference speed by a probe
run beside every session (calibrate.py); README.md explains why.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop with every layer wrapped (tracer.py), checks it, restores the
wrappers, then re-runs the same batches untraced: their logs must match
the traced ones byte for byte, and their time gives ``trace_overhead``.
It prints the per-layer metrics.

Earlier lines of standard output give a readable report; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when a result was printed, 2 when the
program cannot be imported from ``src``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import probe, scaled
from tracer import Target, Tracer
from workloads import (
    ROOT_SPAN,
    STAGES,
    WORKLOADS,
    Workload,
    layer_targets,
    load_program,
    root_targets,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 25


@dataclass
class Record:
    """What is kept of one session once its checks have run."""

    batch: int
    label: str
    digest: str
    ticks: int
    drain_ticks: int
    host_ns: int
    probe_ns: float  # mean probe time around this session; 0 if none
    log_lines: int
    log_bytes: int
    problems: list[str]

    @property
    def scaled_ns(self) -> float:
        return scaled(self.host_ns, self.probe_ns)


@dataclass
class Phase:
    """Every batch run by one timing loop."""

    op_ns: int = 0
    batches: int = 0
    attempted: int = 0
    # Per completed batch: sessions, host ns of work, probe ns beside it.
    batch_work: list[tuple[int, int, float]] = field(default_factory=list)
    records: list[Record] = field(default_factory=list)
    lost: int = 0  # sessions whose batch raised
    # Peak resident memory once the first batch's timed part has returned,
    # before the benchmark reads any output (see end_to_end).
    peak_rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        return self.lost + sum(1 for r in self.records if r.problems)


def set_up(name: str, seed: int, workdir: Path) -> tuple[float, Workload]:
    """Set the workload up SETUP_REPEATS times, and more while the set-ups
    have taken less than SETUP_SECONDS, up to SETUP_MAX_REPEATS.

    Each set-up is scaled by the mean of a probe before it and one after.
    Returns the median scaled set-up time and the last workload built.
    """
    times = []
    total = 0
    workload = None
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_REPEATS or total < SETUP_SECONDS * 1e9):
        if workload is not None:
            workload.close()
            # Free the last import now (see measure), not during timing.
            workload = vb = None
            gc.collect()
        before = probe()
        start = time.perf_counter_ns()
        vb = load_program(SRC)
        workload = WORKLOADS[name](vb, seed, workdir)
        elapsed = time.perf_counter_ns() - start
        total += elapsed
        times.append(scaled(elapsed, (before + probe()) / 2) / 1e9)
    return statistics.median(times), workload


def measure(workload: Workload, pinned: dict | None, *,
            traced: bool = False, seconds: float | None = None,
            batches: int | None = None,
            check: bool = True) -> tuple[Phase, Tracer]:
    """Run batches for ``seconds`` of timed work, or exactly ``batches``.

    A traced run wraps every layer (``layer_targets``).  Otherwise the run
    is calibrated: the session clock runs the probe before each session and
    once more after the batch, the probe's time is taken out of the
    batch's time, and each session is scaled by the mean of the probes on
    either side of it.  A workload with ``fresh_program`` gets a new import
    of the program before each batch, outside the timed part.
    """
    probes: list[int] = []

    def targets() -> list[Target]:
        if traced:
            return layer_targets(workload.vb)
        return root_targets(workload.vb, before=lambda: probes.append(probe()))

    tracer = Tracer(targets())
    phase = Phase()
    clock = tracer.stats[ROOT_SPAN].durations
    k = 0
    while (k < batches if batches is not None
           else k == 0 or phase.op_ns < seconds * 1e9):
        # Drop the last batch's output first, so that peak memory holds
        # one batch, as the program alone would.
        error = raw = sessions = None
        if workload.fresh_program:
            workload.bind(load_program(SRC))
            tracer.retarget(targets())
        # What was dropped (old modules too) is partly garbage in reference
        # cycles.  Left to the collector it piles up, and peak memory grows
        # with the batch count (about 0.3 MB an import), so collect it here,
        # outside the timed part.
        gc.collect()
        originals = [vars(t.owner)[t.attr] for t in tracer.targets]
        mark, probe_mark = len(clock), len(probes)
        start = time.perf_counter_ns()
        try:
            with tracer:
                raw = workload.run(k)
        except Exception:  # a failing batch is counted, and the run goes on
            error = traceback.format_exc()
        elapsed = time.perf_counter_ns() - start
        if k == 0:
            phase.peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if any(vars(t.owner)[t.attr] is not fn
               for t, fn in zip(tracer.targets, originals, strict=True)):
            raise RuntimeError("tracer left a wrapper in place")
        work_ns = elapsed - sum(probes[probe_mark:])
        if not traced:
            probes.append(probe())
        if error is None:
            try:
                sessions = workload.collect(k, raw)
            except Exception:
                error = traceback.format_exc()
        phase.op_ns += elapsed
        planned = len(workload.plan(k))
        phase.attempted += planned
        if error is not None:
            print(f"FAIL {workload.name} batch {k}:\n{error}", file=sys.stderr)
            phase.lost += planned
        else:
            batch_probes = probes[probe_mark:]
            phase.lost += max(0, planned - len(sessions))
            phase.batch_work.append((
                len(sessions), work_ns,
                0 if traced else statistics.mean(batch_probes)))
            for record in records(workload, k, sessions, clock[mark:], work_ns,
                                  [] if traced else batch_probes,
                                  pinned, check):
                if record is None:
                    phase.lost += 1
                else:
                    phase.records.append(record)
        k += 1
    phase.batches = k
    return phase, tracer


def records(workload: Workload, k: int, sessions: list, spans: list[int],
            work_ns: int, probes: list[int], pinned: dict | None,
            check: bool):
    """Check each session of batch ``k`` and yield its Record, or None for
    a session that could not even be read.

    ``spans`` are the session clock's spans in this batch and ``probes``
    the probe times in it (empty when traced).  Should the program not
    reach the module-level ``run_session`` once per session (a replay
    that stops at the header, or a runner that no longer calls it), the
    batch's time is shared out evenly and every session gets the batch's
    mean probe.
    """
    n = len(sessions)
    times = spans if workload.uses_session_clock else [work_ns]
    if n and len(times) != n:
        print(f"note {workload.name} batch {k}: {len(times)} session spans "
              f"for {n} sessions; the batch time is shared out", file=sys.stderr)
        times = [work_ns / n] * n
    if not probes:
        beside = [0] * n
    elif len(probes) == n + 1:
        beside = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    else:
        beside = [statistics.mean(probes)] * n
    for session, host_ns, probe_ns in zip(sessions, times, beside):
        try:
            problems = workload.check(session, pinned) if check else []
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {exc!r}"]
        for problem in problems:
            print(f"FAIL {workload.name} {session.label}: {problem}",
                  file=sys.stderr)
        try:
            record = Record(k, session.label, session.digest, session.ticks,
                            session.drain_ticks, host_ns, probe_ns,
                            session.log.count("\n"),
                            len(session.log.encode("utf-8")), problems)
        except Exception:
            print(f"FAIL {workload.name} {session.label}: unreadable log:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            record = None
        yield record


def us_per_tick(phase: Phase) -> float:
    """Host microseconds per simulated tick, over every session timed."""
    return (sum(r.host_ns for r in phase.records) / 1e3
            / sum(r.ticks for r in phase.records))


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """The bounded metrics, in host time scaled to the probe's reference
    speed (calibrate.py), except peak memory.

    Peak memory covers set-up and the first batch, the program's own
    work.  Later the benchmark's reading and checking of outputs leaves the
    allocator's heap in a state that varies from run to run, and later
    batches raised the peak by 2-4 MB in no repeatable way.
    """
    sessions = sum(n for n, _, _ in phase.batch_work)
    work_s = sum(scaled(ns, p) for _, ns, p in phase.batch_work) / 1e9
    return {
        "setup_s": (setup_s, "s"),
        "sessions_per_s": (sessions / work_s, "1/s"),
        "us_per_tick": (sum(r.scaled_ns for r in phase.records) / 1e3
                        / sum(r.ticks for r in phase.records), "us"),
        "session_ms.p50": (statistics.median(r.scaled_ns / 1e6
                                             for r in phase.records), "ms"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }


def unscaled(phase: Phase) -> dict:
    """The same timings in plain host time, for the readable report."""
    probes = [r.probe_ns for r in phase.records]
    return {
        "raw.sessions_per_s": (
            sum(n for n, _, _ in phase.batch_work)
            / (sum(ns for _, ns, _ in phase.batch_work) / 1e9), "1/s"),
        "raw.us_per_tick": (us_per_tick(phase), "us"),
        "raw.session_ms.p50": (statistics.median(r.host_ns / 1e6
                                                 for r in phase.records), "ms"),
        "probe_ms.p50": (statistics.median(probes) / 1e6, "ms"),
        "probe_ms.min": (min(probes) / 1e6, "ms"),
    }


def per_layer(traced: Phase, untraced: Phase, tracer: Tracer) -> dict:
    stats = tracer.stats
    sessions = len(traced.records)
    ticks = sum(r.ticks for r in traced.records)

    def self_ms(name: str) -> float:
        """Self time per call; the stages below it are wrapped too."""
        return ratio(stats[name].self_ns, stats[name].calls) / 1e6

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out = {}
    for name in STAGES:
        out[f"{name}.calls"] = (stats[name].calls / sessions, "count")
        out[f"{name}.us_per_tick"] = (stats[name].self_ns / 1e3 / ticks, "us")
    advance = stats["world.advance"].counts
    spawn = stats["world.spawn"].counts
    jab = stats["interaction.resolve_jab"]
    cell = stats["interaction.resolve_cell_pass"]
    fired = stats["interaction.jab_detector_update"].counts.get("fired", 0)
    out.update({
        "world.advance.entities_stepped": (
            advance.get("entities_stepped", 0) / sessions, "count"),
        "world.in_flight.peak": (spawn.get("in_flight_peak", 0), "count"),
        "interaction.jabs_fired": (fired / sessions, "count"),
        "interaction.resolve_jab.scanned": (
            ratio(jab.counts.get("scanned", 0), jab.calls), "count"),
        "interaction.jab_hit_ratio": (
            ratio(jab.counts.get("destroyed", 0), jab.calls), "ratio"),
        "interaction.jab_hit_ratio.base": (jab.calls / sessions, "count"),
        "interaction.cell_avoid_ratio": (
            ratio(cell.counts.get("avoided", 0), cell.calls), "ratio"),
        "interaction.cell_avoid_ratio.base": (cell.calls / sessions, "count"),
        "session.run_session.self_us_per_tick": (
            stats[ROOT_SPAN].self_ns / 1e3 / ticks, "us"),
        "session.log_lines": (
            statistics.mean(r.log_lines for r in traced.records), "count"),
        "session.log_bytes": (
            statistics.mean(r.log_bytes for r in traced.records), "B"),
        "session.drain_ticks": (
            statistics.mean(r.drain_ticks for r in traced.records), "count"),
        # metrics_from_log calls nothing wrapped: its self time is its time.
        "session.metrics_from_log.ms": (
            self_ms("session.metrics_from_log"), "ms"),
        "session.replay_verify.self_ms": (
            self_ms("session.replay_verify"), "ms"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "trace_overhead": (us_per_tick(traced) / us_per_tick(untraced), "ratio"),
    })
    return out


def report(name: str, metrics: dict, phase: Phase,
           also: dict | None = None) -> dict:
    """Print the readable report and return the contract's result object.

    ``also`` holds figures that are printed but are not result metrics.
    """
    failed = phase.failed
    print(f"workload {name}: {phase.attempted} sessions in {phase.batches} "
          f"batches, {len(phase.records)} timed")
    rows = {**metrics, **(also or {}),
            "failed_frac": (failed / phase.attempted, "ratio")}
    for key, (value, unit) in rows.items():
        print(f"  {key:42s} {value:14.6f} {unit}")
    return {
        "correct": failed == 0,
        "attempted": phase.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def plain_run(workload: Workload, seconds: float, pinned: dict | None,
              setup_s: float) -> dict:
    phase, _ = measure(workload, pinned, seconds=seconds)
    if not phase.records:
        raise RuntimeError("no session completed")
    return report(workload.name, end_to_end(phase, setup_s), phase,
                  unscaled(phase))


def traced_run(workload: Workload, seconds: float,
               pinned: dict | None) -> dict:
    traced, tracer = measure(workload, pinned, traced=True, seconds=seconds)
    # The same batches again, untraced (measure has checked that every
    # wrapper was put back): same sessions, same logs.
    untraced, _ = measure(workload, None, batches=traced.batches, check=False)
    if not traced.records or not untraced.records:
        raise RuntimeError("no session completed")
    plain = {(r.batch, r.label): r.digest for r in untraced.records}
    for record in traced.records:
        if plain.get((record.batch, record.label)) != record.digest:
            record.problems.append("traced log differs from the untraced log")
            print(f"FAIL {workload.name} {record.label}: tracing changed the log",
                  file=sys.stderr)
    return report(workload.name, per_layer(traced, untraced, tracer), traced)


def load_pins(name: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"][name]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, workload = set_up(args.workload, args.seed, workdir)
    except ImportError as exc:
        print(f"error: cannot import virusboxing from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    try:
        pinned = load_pins(args.workload) if args.seed == DEFAULT_SEED else None
        if args.trace:
            result = traced_run(workload, args.seconds, pinned)
        else:
            result = plain_run(workload, args.seconds, pinned, setup_s)
    finally:
        workload.close()
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
