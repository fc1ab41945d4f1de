"""Every name the benchmark's tracer wraps is bound where it wraps it.

``bench/workloads.py`` wraps callables by name: functions in the
``session`` and ``cli`` namespaces, among them some that only the tracer
reads, and methods on their classes.  A name deleted from one of those
namespaces breaks every traced benchmark run; this test fails first, on
every Python the tests run on.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _layer_targets() -> list:
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    # The modules already imported, not workloads.load_program's fresh
    # copy: that drops virusboxing from sys.modules, so the later tests
    # would see new enum members.
    vb = SimpleNamespace(**{
        name: importlib.import_module(f"virusboxing.{name}")
        for name in workloads.PROGRAM_MODULES
    })
    return workloads.layer_targets(vb)


TARGETS = _layer_targets()


@pytest.mark.parametrize("target", TARGETS, ids=[
    f"{target.owner.__name__}.{target.attr}" for target in TARGETS])
def test_every_wrapped_name_is_bound_on_its_owner(target) -> None:
    assert target.attr in vars(target.owner), target.name

