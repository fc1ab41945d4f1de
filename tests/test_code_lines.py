"""``tools/code_lines.py``: what counts as a code line."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_docstrings_comments_and_blank_lines_do_not_count() -> None:
    source = '''"""Module docstring,
over two lines."""

# A comment.
X = 1  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return ("a string that is no docstring, "
                "over two lines")
'''
    # X = 1, class A:, def f, and the two lines of the return.
    assert code_lines.code_lines(source) == 5


def test_a_one_line_function_keeps_its_def() -> None:
    assert code_lines.code_lines('def f(): """Doc."""\n') == 1


def test_every_module_of_the_package_is_counted(capsys) -> None:
    assert code_lines.main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    names = [row.split()[0] for row in rows]
    package = sorted(p.name for p in code_lines.PACKAGE.glob("*.py"))
    assert names == package + ["total"]
    counts = [int(row.split()[1]) for row in rows]
    assert sum(counts[:-1]) == counts[-1] > 0
