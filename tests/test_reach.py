"""``tools/reach.py``: which functions a run never calls."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _SCRIPT)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

TOY = '''"""A toy module: module-level code and a class body run on import."""
import functools

LIMIT = 3


def called():
    return Box().size()


def not_called():
    return LIMIT


class Box:
    @functools.cache
    def size(self):
        return LIMIT
'''


def test_only_the_function_no_frame_entered_is_unreached(tmp_path) -> None:
    package = tmp_path / "toy"
    package.mkdir()
    path = package / "mod.py"
    path.write_text(TOY, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("reach_toy_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    assert reach.functions(package) == {
        (str(path.resolve()), 7): "mod:called",
        (str(path.resolve()), 11): "mod:not_called",
        (str(path.resolve()), 16): "mod:Box.size",
    }
    assert reach.unreached(package, module.called) == ["mod:not_called"]
