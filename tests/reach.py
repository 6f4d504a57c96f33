"""List the package lines that no toy-stack case of tests/test_cli.py runs.

Runs every test of tests/test_cli.py that uses the toy_stack fixture, traces
each cli.main call with sys.settrace, and prints every statement of a
src/anomgen function body that never ran, as path:line and its source. A
listed line is a check or a branch that no command-line case reaches: it
needs a case that reaches it, or it can go if no input can. The listing is
for reading, not a gate: the script exits 0 unless the tests cannot run.

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

from anomgen import cli

PACKAGE = os.path.dirname(os.path.abspath(cli.__file__))


def body_statements(path: str) -> dict[int, range]:
    """First line of each statement inside a function body -> the lines that count as running it.

    A simple statement runs when any of its lines does; a compound one (if,
    for, with, ...) when its header does.  Docstrings produce no line event
    and are left out.
    """
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}
    out = {}
    for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        for stmt in (s for b in func.body for s in ast.walk(b) if isinstance(s, ast.stmt)):
            if id(stmt) in docstrings or isinstance(stmt, ast.FunctionDef):
                continue
            body = getattr(stmt, "body", None)
            end = body[0].lineno if body else stmt.end_lineno + 1
            out[stmt.lineno] = range(stmt.lineno, max(end, stmt.lineno + 1))
    return out


class _ToyStackCases:
    """pytest plugin: keep only the tests that use the toy_stack fixture."""

    @staticmethod
    def pytest_collection_modifyitems(config, items):
        dropped = [item for item in items if "toy_stack" not in item.fixturenames]
        items[:] = [item for item in items if "toy_stack" in item.fixturenames]
        config.hook.pytest_deselected(items=dropped)


def main() -> int:
    ran: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(PACKAGE) else None

    untraced_main = cli.main

    def traced_main(argv=None):
        sys.settrace(trace_calls)
        try:
            return untraced_main(argv)
        finally:
            sys.settrace(None)

    cli.main = traced_main
    tests = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_cli.py")
    status = pytest.main(["-q", "-p", "no:cacheprovider", tests], plugins=[_ToyStackCases()])
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(status)

    unreached = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        source = Path(path).read_text(encoding="utf-8").splitlines()
        for first, lines in sorted(body_statements(path).items()):
            total += 1
            if not any((path, line) in ran for line in lines):
                unreached += 1
                print(f"src/anomgen/{name}:{first}  {source[first - 1].strip()}")
    print(f"{unreached} of {total} function-body statements in src/anomgen never ran "
          "under the toy-stack cases of tests/test_cli.py")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
