"""A fixed probe of how fast this host runs Python at this moment.

On shared hosts other tenants slow a process down by up to 2x for
stretches of seconds, which moves the median of a whole run by 20-40%.
The probe is a few milliseconds of the same kind of work the simulator
does (small objects, dict and list traffic, float arithmetic, calls).
The benchmark runs it right before every timed unit and scales that
unit's host time by ``(PROBE_REF_NS / probe time) ** SLOWDOWN_POWER``:
the result is the host time the unit would take at the speed where the
probe takes ``PROBE_REF_NS``.  The probe is part of the benchmark, so a
change to the program cannot change it.

Contention slows the probe more than the simulator.  Over 15 ``sweep``
runs on a shared 2-core Xeon, with median probe times from 20 to 44 ms,
the log of the run's unscaled us per tick rose by 0.70 per unit log of
its median probe time.  Scaling by the full ratio over-corrected (runs
with a slow probe read 10-15% fast, quartile spread 0.10); the power
0.75 gave the smallest spread over those runs (0.03).
"""
from __future__ import annotations

import time

# The probe's duration on an uncontended 2.0 GHz Xeon core, Python 3.11;
# scaled times read as host times on that core.
PROBE_REF_NS = 20_000_000
_PROBE_STEPS = 36_000
SLOWDOWN_POWER = 0.75


class _Item:
    __slots__ = ("x", "k")

    def __init__(self, x: float, k: int) -> None:
        self.x = x
        self.k = k


def _step(table: dict, recent: list, i: int, acc: float) -> float:
    item = _Item(i * 0.5, i & 15)
    table[i & 255] = item
    other = table.get((i * 7) & 255)
    if other is not None:
        acc += other.x * 0.001 + other.k
    recent.append((i, item))
    if len(recent) > 64:
        recent.pop(0)
    return acc


def probe() -> int:
    """Run the probe once; return its host time in nanoseconds."""
    table: dict = {}
    recent: list = []
    acc = 0.0
    start = time.perf_counter_ns()
    for i in range(_PROBE_STEPS):
        acc = _step(table, recent, i, acc)
    return time.perf_counter_ns() - start


def scaled(host_ns: float, probe_ns: float) -> float:
    """``host_ns`` at the reference speed, given the probe time beside it."""
    return host_ns * (PROBE_REF_NS / probe_ns) ** SLOWDOWN_POWER
