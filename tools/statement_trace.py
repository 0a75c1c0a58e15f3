"""Statement tracer: the function-body statements of ``src/fuzzpole`` that a
pytest run never executed.

A pytest plugin that needs only the standard library.  Run it from the root
of a checkout with

    python -m pytest -p tools.statement_trace

It records line events with ``sys.settrace`` in the package's files and, at
the end of the session, prints each statement inside a function body that
compiles to bytecode and never ran, as ``path:line: source``.  Tracing makes
the suite several times slower, so wall-time gates may fail under it; the
report is about which statements ran, not about the test outcomes.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fuzzpole"

_lines_of: dict[str, set[int]] = {}  # package file -> lines executed
_local_of: dict[str, object] = {}  # co_filename -> its line tracer, or None


def _line_tracer(lines: set[int]):
    def trace(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    return trace


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _local_of:
        lines = _lines_of.get(os.path.realpath(filename))
        _local_of[filename] = None if lines is None else _line_tracer(lines)
    return _local_of[filename]


def function_statements(path: Path) -> dict[int, str]:
    """First line -> source of each function-body statement of ``path``
    that has bytecode on its first line."""
    source = path.read_text(encoding="utf-8")
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            starts.update(
                stmt.lineno for stmt in ast.walk(node)
                if isinstance(stmt, ast.stmt) and stmt is not node
            )
    with_code = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    text = source.splitlines()
    return {line: text[line - 1].strip() for line in sorted(starts & with_code)}


def pytest_configure(config):
    for path in sorted(PACKAGE.rglob("*.py")):
        _lines_of[os.path.realpath(path)] = set()
    sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    root = PACKAGE.parent.parent
    missed = [
        f"{Path(name).relative_to(root)}:{line}: {text}"
        for name, executed in _lines_of.items()
        for line, text in function_statements(Path(name)).items()
        if line not in executed
    ]
    terminalreporter.section("statement trace")
    terminalreporter.write_line(
        f"{len(missed)} function-body statement(s) in src/fuzzpole never ran"
    )
    for entry in missed:
        terminalreporter.write_line(entry)
