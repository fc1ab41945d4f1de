"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench -q

They use short sessions, so they take a few seconds.
"""
from __future__ import annotations

import inspect
import sys
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest

from run import SRC, measure
from tracer import Target, Tracer
from workloads import (
    ROOT_SPAN,
    WORKLOADS,
    GridWorkload,
    ReplayWorkload,
    Session,
    SweepWorkload,
    Workload,
    layer_targets,
    load_program,
    root_targets,
    session_base,
)

SHORT = 20.0  # seconds of protocol per test session


@pytest.fixture(scope="module")
def vb():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return load_program(SRC)


def short_config(vb, seed, **fields):
    profile = vb.playersim.load_profile("mid_skill")
    return vb.session.SessionConfig(seed=seed, profile=profile,
                                    duration=SHORT, **fields)


def as_session(result, label="short"):
    return Session(label, result.config, "\n".join(result.lines) + "\n",
                   asdict(result.metrics))


def test_self_time_is_total_minus_children_with_a_scripted_clock():
    ticks = iter(range(100))
    owner = SimpleNamespace()
    owner.child = lambda: None
    owner.parent = lambda: (owner.child(), owner.child())
    tracer = Tracer([Target("parent", owner, "parent"),
                     Target("child", owner, "child")],
                    clock=lambda: next(ticks))
    with tracer:
        owner.parent()
    parent, child = tracer.stats["parent"], tracer.stats["child"]
    # Clock reads: parent 0..5, children 1..2 and 3..4.
    assert (child.calls, child.total_ns, child.self_ns) == (2, 2, 2)
    assert (parent.total_ns, parent.self_ns) == (5, 3)


def test_session_self_time_is_total_minus_its_stages(vb):
    tracer = Tracer(layer_targets(vb))
    with tracer:
        vb.session.run_session(short_config(vb, 1))
    for name, stat in tracer.stats.items():
        assert 0 <= stat.self_ns <= stat.total_ns, name
    # run_session calls every other wrapped stage directly, and no stage
    # calls another, so its self time is what its stages leave over.
    root = tracer.stats[ROOT_SPAN]
    children = sum(s.total_ns for n, s in tracer.stats.items() if n != ROOT_SPAN)
    assert root.self_ns == root.total_ns - children


def test_wrappers_are_removed_after_a_traced_run(vb):
    targets = layer_targets(vb)
    originals = [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in targets]
    phase_at = vb.session.phase_at
    tracer = Tracer(targets)
    with tracer:
        assert vb.session.phase_at is not phase_at
        vb.session.run_session(short_config(vb, 2))
    with pytest.raises(ZeroDivisionError), tracer:
        1 / 0
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn, attr


def test_tracing_does_not_change_the_log(vb):
    config = short_config(vb, 5, pid_enabled=True)
    plain = vb.session.run_session(config).lines
    with Tracer(layer_targets(vb)):
        traced = vb.session.run_session(config).lines
    assert traced == plain


def test_every_stage_session_imports_is_wrapped(vb):
    session = vb.session
    imported = {name for name, obj in vars(session).items()
                if inspect.isfunction(obj)
                and obj.__module__.startswith("virusboxing.")
                and obj.__module__ != session.__name__}
    wrapped = {t.attr for t in layer_targets(vb) if t.owner is session}
    assert imported <= wrapped


def test_session_passes_checks_and_tampered_log_fails(vb, tmp_path):
    workload = GridWorkload(vb, 0, tmp_path)
    session = as_session(vb.session.run_session(short_config(vb, 3)))
    assert workload.check(session, None) == []
    assert workload.check(session, {"short": session.digest}) == []
    assert workload.check(session, {"short": "0" * 64}) != []
    # At the default seed every session must have a pin.
    assert workload.check(session, {}) != []
    lines = session.log.split("\n")
    i = next(i for i, ln in enumerate(lines) if '"type":"hr"' in ln and i > 5)
    lines[i] = lines[i].replace('"energy":', '"energy":1')
    tampered = replace(session, log="\n".join(lines))
    assert workload.check(tampered, None) != []


class ShortGrid(GridWorkload):
    """Two short sessions per batch; the second one's log is tampered."""

    def plan(self, k):
        return [(f"s{i}", short_config(self.vb, 100 * k + i)) for i in range(2)]

    def collect(self, k, raw):
        sessions = super().collect(k, raw)
        last = sessions[-1]
        last.log = last.log.replace('"type":"spawn"', '"type":"spawn" ', 1)
        return sessions


def test_tampered_log_line_is_counted_as_failed(vb, tmp_path):
    workload = ShortGrid(vb, 0, tmp_path)
    phase, _ = measure(workload, None, batches=2)
    assert (phase.attempted, phase.failed) == (4, 2)
    assert [bool(r.problems) for r in phase.records] == [False, True] * 2


class CutLogGrid(ShortGrid):
    """The second session's log loses the end of its last line."""

    def collect(self, k, raw):
        sessions = GridWorkload.collect(self, k, raw)
        sessions[-1].log = sessions[-1].log[:-30]
        return sessions


def test_log_that_cannot_be_parsed_is_counted_as_failed(vb, tmp_path):
    phase, _ = measure(CutLogGrid(vb, 0, tmp_path), None, batches=1)
    assert (phase.attempted, phase.failed, len(phase.records)) == (2, 1, 1)


class InlineGrid(ShortGrid):
    """Runs its sessions without the module-level run_session, as a
    rewritten runner might, so the session clock sees none of them."""

    collect = GridWorkload.collect

    def bind(self, vb):
        super().bind(vb)
        self.run_session = vb.session.run_session  # before the clock wraps it

    def run(self, k):
        return [self.run_session(c) for _, c in self.plan(k)]


def test_sessions_the_clock_misses_share_the_batch_time(vb, tmp_path):
    phase, _ = measure(InlineGrid(vb, 0, tmp_path), None, batches=1)
    assert (phase.attempted, phase.failed) == (2, 0)
    first, second = phase.records
    assert first.host_ns == second.host_ns > 0


class ShortReplay(ReplayWorkload):
    """Short logs.  ``virusboxing verify`` has no duration flag, so it
    rejects their header and exits 2 without re-running the session."""

    def bind(self, vb):
        Workload.bind(self, vb)
        self.configs = [short_config(vb, 200 + i) for i in range(2)]


def test_replay_verify_that_stops_at_the_header_is_counted_as_failed(
        vb, tmp_path):
    workload = ShortReplay(vb, 0, tmp_path)
    phase, _ = measure(workload, None, batches=3)
    assert (phase.attempted, phase.failed, len(phase.records)) == (3, 3, 3)
    assert all("verify did not report ok" in r.problems[0]
               for r in phase.records)


class MarkingGrid(ShortGrid):
    """Notes whether a mark left on the program by an earlier batch is
    still there when the next batch starts."""

    seen: list

    def run(self, k):
        self.seen.append(hasattr(self.vb.session, "bench_mark"))
        self.vb.session.bench_mark = k
        return super().run(k)


def test_grid_and_replay_get_a_fresh_program_every_batch(vb, tmp_path):
    assert GridWorkload.fresh_program and ReplayWorkload.fresh_program
    assert not SweepWorkload.fresh_program
    workload = MarkingGrid(vb, 0, tmp_path)
    workload.seen = []
    phase, tracer = measure(workload, None, traced=True, batches=2)
    assert workload.seen == [False, False]
    # Stats gather over both imports.
    assert tracer.stats[ROOT_SPAN].calls == 4
    assert phase.failed == 2  # the tampered sessions only


def test_workload_seed_changes_session_seeds_not_shape(vb, tmp_path):
    for cls in (SweepWorkload, GridWorkload):
        first, second = cls(vb, 0, tmp_path), cls(vb, 1, tmp_path)
        for k in (0, 1):
            a, b = first.plan(k), second.plan(k)
            assert [replace(c, seed=0) for _, c in a] == \
                [replace(c, seed=0) for _, c in b]
            assert not {c.seed for _, c in a} & {c.seed for _, c in b}
        assert first.plan(0) == cls(vb, 0, tmp_path).plan(0)
    for name in WORKLOADS:
        assert session_base(name, 0) != session_base(name, 1)
