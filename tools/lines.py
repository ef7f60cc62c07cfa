"""Statements of ``src/rispart`` that the Tier-1 tests never run.

Runs the test suite in this process under a ``sys.settrace`` line
collector that traces only frames of ``src/rispart`` files, then prints
``file:line`` for each statement whose first line never ran.  A statement
is one that compiles to code, so docstrings and ``global`` lines are left
out.  Needs only the standard library and pytest, which runs the tests::

    python tools/lines.py [pytest arguments]

The arguments default to the whole ``tests`` directory.  The exit status
is pytest's, so a failing test shows that the list is not complete.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "rispart").glob("*.py"))


def statements(path: Path) -> set[int]:
    """First lines of the statements of ``path`` that compile to code."""
    source = path.read_text()
    code_lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return code_lines & {node.lineno for node in ast.walk(ast.parse(source))
                         if isinstance(node, ast.stmt)}


def never_ran(run, files: list[Path]) -> list[tuple[Path, int]]:
    """``(file, line)`` of each statement of ``files`` that ``run()`` did
    not reach, in the order of ``files`` and then of lines."""
    hits = {os.path.realpath(f): set() for f in files}
    traced = {}  # a code object's file name -> its hit set, None if untraced

    def line(frame, event, arg):
        if event == "line":
            traced[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = hits.get(os.path.realpath(name))
        return None if traced[name] is None else line

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return [(f, n) for f in files
            for n in sorted(statements(f) - hits[os.path.realpath(f)])]


def main(argv: list[str]) -> int:
    args = argv or ["-q", "--continue-on-collection-errors",
                    str(ROOT / "tests")]
    status = []
    missed = never_ran(lambda: status.append(pytest.main(args)), SOURCES)
    print(f"{len(missed)} statements of src/rispart never ran")
    for path, lineno in missed:
        print(f"{path.relative_to(ROOT)}:{lineno}")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
