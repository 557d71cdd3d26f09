#!/usr/bin/env python3
"""List the statements of src/evtrisk that no test executes.

Runs the test suite in this process under a ``sys.settrace`` line tracer
(standard library only, no coverage package needed), then prints one
``path:line`` per statement of ``src/evtrisk`` that never ran, in file and
line order.  Run from anywhere:

    python3 scripts/unreached_lines.py [pytest arguments]

With no arguments the whole suite under ``tests/`` runs, quietly.  A
statement counts as executed when the tracer saw any line of it ran; a
compound statement (def, if, for, with, try, ...) when any line of its
header or body did.  Docstrings and other bare constants run no code and are
not listed.  Code run only in a subprocess, as some CLI tests do, is not
traced.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evtrisk"


def statement_spans(path: Path) -> list:
    """(first line, last line) of each statement of a source file that runs code."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        spans.append((node.lineno, node.end_lineno))
    return sorted(spans)


def run_traced(pytest_args: list) -> tuple:
    """Run pytest under the line tracer: (exit status, {file: lines executed})."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    seen = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen[filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    status, seen = run_traced(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    for path in sorted(PACKAGE.glob("*.py")):
        lines = seen.get(str(path), set())
        for first, last in statement_spans(path):
            if not any(first <= line <= last for line in lines):
                print(f"{path.relative_to(ROOT)}:{first}")
    return status


if __name__ == "__main__":
    sys.exit(main())
