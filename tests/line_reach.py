"""Line-reach gate: a pytest plugin that fails the session when an executable
line of `src/eerpms` is never run and not in `ALLOWED`.

    PYTHONPATH=src:tests python -m pytest -q -m "not slow" -p line_reach

It traces with `sys.settrace` from `pytest_configure` on, before the tests
import the package. A line is executable when a code object compiled from
the file maps bytecode to it (`co_lines()`). `ALLOWED` keys a line by file
name and stripped source text, not by number, and gives the reason no test
reaches it; an entry that matches no unreached line fails the session too.
"""

import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eerpms"

# ("cli.py", "sys.exit(main())"): "why no test can reach that line",
ALLOWED: dict[tuple[str, str], str] = {}

_files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
_reached: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename in _files else None


def _executable(code):
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def pytest_configure(config):
    sys.settrace(_call)


def pytest_sessionfinish(session):
    sys.settrace(None)
    missed = {}
    for name, path in _files.items():
        source = path.read_text()
        text = source.splitlines()
        for line in _executable(compile(source, name, "exec")):
            if (name, line) not in _reached:
                missed[f"{path.name}:{line}"] = (path.name, text[line - 1].strip())
    unexplained = sorted(where for where, key in missed.items() if key not in ALLOWED)
    stale = sorted(set(ALLOWED) - set(missed.values()))
    report = session.config.pluginmanager.get_plugin("terminalreporter")
    report.write_line(f"line reach: {len(missed)} unreached lines in {PACKAGE}, "
                      f"{len(missed) - len(unexplained)} allowed")
    for where in unexplained:
        report.write_line(f"  unreached: {where}: {missed[where][1]}")
    for key in stale:
        report.write_line(f"  allowed but reached or gone: {key}")
    if unexplained or stale:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
