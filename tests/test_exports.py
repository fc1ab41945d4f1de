"""Every exported name resolves, in the package and in each module."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import virusboxing

MODULES = sorted(info.name for info in pkgutil.iter_modules(virusboxing.__path__))


def test_every_module_is_checked() -> None:
    assert {"cli", "session", "world"} <= set(MODULES)


@pytest.mark.parametrize("name", ["virusboxing"] + [
    f"virusboxing.{module}" for module in MODULES
])
def test_all_names_resolve(name: str) -> None:
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate entries in __all__"
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []
