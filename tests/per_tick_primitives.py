"""Plain per-tick helpers that tests compare the package's fast paths to.

``hand_velocity`` is the backward finite difference a jab's speed and
direction are defined by: ``JabDetector`` and the session's hot-tick
judging work it out from a window's two ends in place, and
``tests/test_fastpaths.py`` holds each fired jab to it.  ``_lerp`` is the
interpolation between two knots that ``playersim._point`` and
``_HandTrack._rebuild`` write out term for term;
``tests/hand_track_reference.py`` lays its chains through it.

Neither runs in a session, so neither lives in the package.
"""
from __future__ import annotations

import math
from typing import Sequence

from virusboxing.playersim import Vec3


def hand_velocity(samples: Sequence[tuple[float, Vec3]]) -> tuple[float, Vec3]:
    """Backward finite difference across a sample window.

    Returns (speed, unit direction); an under-filled window or zero
    displacement yields speed 0 and a null direction.
    """
    if len(samples) < 2:
        return 0.0, (0.0, 0.0, 0.0)
    t0, p0 = samples[0]
    t1, p1 = samples[-1]
    elapsed = t1 - t0
    if elapsed <= 0.0:
        return 0.0, (0.0, 0.0, 0.0)
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    dz = p1[2] - p0[2]
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0:
        return 0.0, (0.0, 0.0, 0.0)
    return dist / elapsed, (dx / dist, dy / dist, dz / dist)


def _lerp(a: Vec3, b: Vec3, f: float) -> Vec3:
    return (
        a[0] + f * (b[0] - a[0]),
        a[1] + f * (b[1] - a[1]),
        a[2] + f * (b[2] - a[2]),
    )
