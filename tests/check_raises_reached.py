"""Fail unless tier-1 reaches every ``raise`` in ``src/bankscan`` outside ``fixtures/``.

Runs the tier-1 suite in this process under a ``sys.settrace`` line trace of
the package's own frames, then checks every ``ast.Raise`` line against the
lines the trace saw. An unreached ``raise`` is an error path no test drives.
It takes several times as long as plain tier-1, so it is kept out of it.
Standard library only, besides pytest itself. It puts this checkout's
``src`` first on ``sys.path`` itself, so it needs no ``PYTHONPATH``::

    python tests/check_raises_reached.py

It is not collected by pytest (its name does not start with ``test_``).
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bankscan"

# Raise lines that tier-1 may leave unreached, as (path under src/bankscan,
# the line's text without its indentation), each with a comment saying why
# no test can reach it. Empty: every raise is reached.
ALLOWED: frozenset[tuple[str, str]] = frozenset()


def raise_lines() -> dict[str, set[int]]:
    """The line of every ``raise`` statement, by absolute file path."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if "fixtures" in path.relative_to(PACKAGE).parts:
            continue
        tree = ast.parse(path.read_text("utf-8"), str(path))
        found[str(path)] = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return found


def main() -> int:
    wanted = raise_lines()
    by_filename: dict[str, set[int] | None] = {}  # a code object's co_filename -> its raise lines
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = wanted.get(os.path.realpath(filename))
        return local if by_filename[filename] else None

    sys.path.insert(0, str(ROOT / "src"))  # this checkout's bankscan, whatever else the environment holds
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"tier-1 did not pass (pytest exit {int(status)}), so no raise was checked", file=sys.stderr)
        return int(status)

    seen = {(os.path.realpath(filename), line) for filename, line in reached}
    unreached = []
    for path, lines in wanted.items():
        text = Path(path).read_text("utf-8").splitlines()
        relative = Path(path).relative_to(PACKAGE).as_posix()
        for line in sorted(lines):
            if (path, line) not in seen and (relative, text[line - 1].strip()) not in ALLOWED:
                unreached.append(f"src/bankscan/{relative}:{line}: {text[line - 1].strip()}")

    total = sum(map(len, wanted.values()))
    if unreached:
        print(f"{len(unreached)} of {total} raise lines are never reached by tier-1:", file=sys.stderr)
        print("\n".join(unreached), file=sys.stderr)
        return 1
    print(f"every one of {total} raise lines in {len(wanted)} files of src/bankscan is reached by tier-1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
