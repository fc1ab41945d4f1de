"""Print each function of ``src/virusboxing`` that five CLI commands never call.

The commands run in this process, through ``cli.main``, in a temporary
directory ``D``, under a call tracer::

    run --seeds 0..1 --out D
    run --seed 5 --profile expert --targeting pt --range short
        --heart sedentary --pid off --format csv --out D/b
    run --seed 3 --profile novice --setpoint 140
    verify D/replay_0.jsonl
    verify D/b/replay_5.jsonl --seed 5 --profile expert --targeting pt
        --range short --heart sedentary --pid off

Each function and method the package's source defines that no command
called prints as ``module:qualname``, sorted.  Class bodies and
module-level code are not functions, and the package is imported before
the tracer starts.  It needs nothing outside the standard library, takes
no options, and only reports: an unreached function fails nothing::

    python tools/reach.py
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"

# The session D/b's run writes and its verify checks.
_SESSION_B = ["--seed", "5", "--profile", "expert", "--targeting", "pt",
              "--range", "short", "--heart", "sedentary", "--pid", "off"]


def functions(package: Path) -> dict[tuple[str, int], str]:
    """Every function and method the ``.py`` files under ``package``
    define, as ``module:qualname``, keyed by its file's resolved path and
    the first line of its code object (its first decorator's, if any)."""
    found = {}

    def walk(node: ast.AST, module: str, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                found[path, first] = f"{module}:{prefix}{child.name}"
                walk(child, module, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, f"{prefix}{child.name}.")
            else:
                walk(child, module, path, prefix)

    for file in sorted(package.rglob("*.py")):
        module = file.relative_to(package).with_suffix("").as_posix()
        walk(ast.parse(file.read_text(encoding="utf-8")),
             module.replace("/", "."), str(file.resolve()), "")
    return found


def unreached(package: Path, run: Callable[[], None]) -> list[str]:
    """The functions of ``package`` (as ``functions`` names them) that no
    Python frame entered while ``run()`` ran, sorted."""
    called = set()

    def tracer(frame, event, arg):
        called.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in called}
    return sorted(name for key, name in functions(package).items()
                  if key not in reached)


def _commands(out: str) -> list[list[str]]:
    b = os.path.join(out, "b")
    return [
        ["run", "--seeds", "0..1", "--out", out],
        ["run", *_SESSION_B, "--format", "csv", "--out", b],
        ["run", "--seed", "3", "--profile", "novice", "--setpoint", "140"],
        ["verify", os.path.join(out, "replay_0.jsonl")],
        ["verify", os.path.join(b, "replay_5.jsonl"), *_SESSION_B],
    ]


def main() -> int:
    sys.path.insert(0, str(SRC))
    from virusboxing import cli

    failed = []

    def run() -> None:
        with tempfile.TemporaryDirectory() as out:
            for argv in _commands(out):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    failed.append(f"{' '.join(argv)} exited {code}")

    names = unreached(SRC / "virusboxing", run)
    if failed:
        print("\n".join(failed), file=sys.stderr)
        return 1
    print("\n".join(names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
