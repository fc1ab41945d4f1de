"""The package runs on the standard library alone.

Every module under ``src/virusboxing`` may import absolutely only from
the standard library; anything of its own it imports relatively.  A
third-party import would be a runtime dependency, which the package
does not declare.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import virusboxing

PACKAGE = Path(virusboxing.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _absolute_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of every absolute import in ``tree``.

    Relative imports (``from . import x``, level above 0) are left out:
    they are the package's own modules.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_modules_are_found() -> None:
    names = {path.name for path in MODULES}
    assert {"__init__.py", "session.py", "cli.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        f"{path.name}:{line}: {module}"
        for line, module in _absolute_imports(tree)
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, outside


def test_guard_catches_a_third_party_import() -> None:
    tree = ast.parse("import json\nfrom numpy import array\n"
                     "from . import world\nimport os.path\n")
    modules = [module for _, module in _absolute_imports(tree)]
    assert modules == ["json", "numpy", "os.path"]
    assert "numpy" not in sys.stdlib_module_names
