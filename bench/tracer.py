"""In-memory span tracing by temporarily wrapping callables.

A :class:`Tracer` replaces attributes on modules and classes with timing
wrappers for the duration of a ``with`` block and restores the original
objects on exit.  Spans nest through a stack of child-time accumulators,
so every stat gets both its total time and its self time (total minus the
time covered by wrapped callees).  Nothing is written out: the stats stay
on the tracer until the benchmark reads them.  A tracer may be entered
again after it exits; its stats keep accumulating.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Run after a wrapped call returns, as hook(stat, args, result), to keep
# counts at the same boundary as the span.
Hook = Callable[["Stat", tuple, Any], None]


@dataclass
class Stat:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    # Each span's duration, kept only when a target asks for it.
    durations: list[int] | None = None

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(value, self.counts.get(key, 0))


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` is recorded under ``name``.

    Targets that share a name share one stat.
    """

    name: str
    owner: Any
    attr: str
    hook: Hook | None = None
    keep_durations: bool = False
    # Called before each span opens; its time falls outside the span.
    before: Callable[[], None] | None = None


class Tracer:
    """Wrap targets on ``__enter__``; restore the originals on ``__exit__``."""

    def __init__(self, targets: list[Target],
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.retarget(targets)

    def retarget(self, targets: list[Target]) -> None:
        """Wrap ``targets`` from now on, as after a re-import of the program.

        Stats are kept by name, so spans keep accumulating across targets.
        """
        if self._saved:
            raise RuntimeError("tracer is active")
        self.targets = targets
        for target in targets:
            stat = self.stats.setdefault(target.name, Stat())
            if target.keep_durations and stat.durations is None:
                stat.durations = []

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already active")
        try:
            for target in self.targets:
                # Read the owner's own dict so that exactly this object,
                # not an inherited or bound one, is put back on exit.
                original = vars(target.owner)[target.attr]
                self._saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr,
                        self._wrap(self.stats[target.name], original,
                                   target.hook, target.before))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _wrap(self, stat: Stat, fn: Callable, hook: Hook | None,
              before: Callable[[], None] | None) -> Callable:
        clock = self.clock
        stack = self._stack
        durations = stat.durations

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - children
                if durations is not None:
                    durations.append(elapsed)
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(stat, args, result)
            return result

        return wrapper
