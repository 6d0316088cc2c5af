"""A pytest plugin that lists every ``raise`` in ``src/marginlab`` a run never executes.

It is not a test module (no ``test_`` prefix), so a plain ``pytest`` run never
collects it.  Run it by hand from the repository root:

    PYTHONPATH=tests python -m pytest -p trace_raises

From the start of the session to its end it line-traces, on every thread,
the frames whose code lives in ``src/marginlab`` (other frames get no local
tracer), then prints each ``ast.Raise`` statement none of whose lines ran.
Code run in a child process, such as the CLI tests that start
``python -m marginlab``, is not traced.  Tracing roughly doubles the wall
time, which is why it is not part of the default run.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "marginlab"

_ran: set[tuple[str, int]] = set()  # (real path, line) of every traced line event
_inside: dict[str, str | None] = {}  # co_filename -> its real path if in PACKAGE, else None


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((_inside[frame.f_code.co_filename], frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _inside:
        real = os.path.realpath(name)
        _inside[name] = real if Path(real).parent == PACKAGE else None
    return _lines if _inside[name] else None


def _raises() -> list[tuple[str, int, int]]:
    """(real path, first line, last line) of every raise statement in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(os.path.realpath(path), node.lineno, node.end_lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    return sorted(found)


def pytest_sessionstart(session) -> None:
    threading.settrace(_calls)
    sys.settrace(_calls)


def pytest_sessionfinish(session, exitstatus) -> None:
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter) -> None:
    unreached = [(path, first) for path, first, last in _raises()
                 if not any((path, line) in _ran for line in range(first, last + 1))]
    write = terminalreporter.write_line
    terminalreporter.section("unreached raise statements")
    root = PACKAGE.parents[1]
    for path, line in unreached:
        source = Path(path).read_text().splitlines()[line - 1].strip()
        write(f"{Path(path).relative_to(root)}:{line}: {source}")
    write(f"{len(unreached)} unreached raise statement(s) in src/marginlab")
