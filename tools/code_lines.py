"""Print the code lines of each ``src/virusboxing`` module, and the total.

A code line is a line that holds a token other than a comment or a
docstring; blank lines and the lines of a docstring do not count.  The
count reads the source with ``tokenize`` and finds the docstrings with
``ast``, so it needs nothing outside the standard library::

    python tools/code_lines.py            # the package next to this script
    python tools/code_lines.py some/dir   # every .py file under some/dir

It only reports: no count fails the run.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "virusboxing"

# Tokens that hold no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """Where each module, class and function docstring starts, as the
    (row, column) of its token."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_starts(source)
    rows: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        rows.update(range(token.start[0], token.end[0] + 1))
    return len(rows)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(root).as_posix():<24} {count:>6}")
    print(f"{'total':<24} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
