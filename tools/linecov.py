"""The lines of src/qtheta that the tests never run.

Runs pytest in this process with a ``sys.settrace`` hook that records the
lines executed in frames whose code lives under src/qtheta, then prints, for
each module and function, the executable lines (each code object's
``co_lines``) that were never reached, and the totals.  It needs nothing
beyond the standard library and pytest, and the tracing makes the run a few
times slower than plain pytest, so it is not part of the Tier-1 suite.

    PYTHONPATH=src python tools/linecov.py [pytest arguments]

The pytest arguments default to the whole tests/ directory.  The exit status
is pytest's: the report of a failing run still prints, but says so.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qtheta"


def _code_objects(code):
    """code and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def executable_lines(path: Path) -> dict:
    """{line: qualified name of the innermost code object that holds it}."""
    top = compile(path.read_text(), str(path), "exec")
    out = {}
    for code in _code_objects(top):
        name = getattr(code, "co_qualname", code.co_name)  # co_qualname is 3.11+
        for _start, _end, line in code.co_lines():
            if line:
                out[line] = name  # nested code comes later and wins
    return out


def _ranges(lines) -> str:
    """'3, 7-9, 12' for [3, 7, 8, 9, 12]."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def trace_tests(args) -> tuple[int, dict]:
    """(pytest's exit status, {filename: set of lines run}) for one in-process
    pytest run with the line hook on frames under the package."""
    prefix = str(PACKAGE) + "/"
    seen: dict = {}  # code object -> its set of lines run, or None outside the package

    def local(frame, event, _arg):
        if event == "line":
            seen[frame.f_code].add(frame.f_lineno)
        return local

    def hook(frame, event, _arg):
        code = frame.f_code
        lines = seen.get(code, False)
        if lines is False:
            lines = seen[code] = set() if code.co_filename.startswith(prefix) else None
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the call itself: a def or decorator line
        return local

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        import pytest

        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict = {}
    for code, lines in seen.items():
        if lines is not None:
            ran.setdefault(code.co_filename, set()).update(lines)
    return int(status), ran


def main(argv) -> int:
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    status, ran = trace_tests(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(set(lines) - ran.get(str(path), set()))
        total += len(lines)
        unreached += len(missed)
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(missed)} of {len(lines)} executable lines unreached")
        by_name: dict = {}
        for line in missed:
            by_name.setdefault(lines[line], []).append(line)
        for name, ls in sorted(by_name.items(), key=lambda kv: kv[1][0]):
            print(f"  {name}: {_ranges(ls)}")
    print(f"total: {unreached} of {total} executable lines unreached")
    if status:
        print(f"pytest exited with status {status}: the counts are of a failing run")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
