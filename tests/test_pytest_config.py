"""A failing property reports its falsifying example under ``-W error``.

Tier-1 runs as ``python -X dev -W error -m pytest``.  With libcst
installed, Hypothesis imports it to write a failing property's patch, and
that import warns; ``pyproject.toml`` ignores that one message, so the
run fails as a test failure and prints its example rather than ending in
an INTERNALERROR.
"""
from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

# Looked up, not imported: importing libcst costs about a second.
pytestmark = pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                                reason="libcst is not installed")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_a_failing_property_prints_its_example(tmp_path: Path) -> None:
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    # The working directory is tmp_path, so Hypothesis writes its
    # database and patch there.
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest",
         "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
