"""List the lines of `src/entpow` that the tier-1 test suite never runs.

    python3 scripts/uncovered_lines.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on ``tests``, quietly) under
`sys.settrace` and `threading.settrace`, recording only frames whose code lives
under ``src/entpow`` beside this script; the package is first imported under
the tracer, so its module-level lines count. A module's executable lines are
the line numbers of its compiled code objects (``co_lines()``, recursively
through nested functions, classes and comprehensions). Prints every executable
line that never ran, as ``path:line  source``, grouped by file, then the total
and pytest's exit code. Tests run slower under the tracer, so a wall-clock
budget may fail; the listing is still complete. Code run in subprocesses (the
installed entry point, the demos) is not seen.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "entpow"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the bytecode of `path` attributes instructions to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[dict[str, set[int]], int]:
    """Run pytest with `pytest_args`; the lines it ran per file of the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran, int(code)


def main() -> int:
    sys.path.insert(0, str(SRC))
    # the tests that start `python -m entpow.cli` need the package too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    pytest_args = sys.argv[1:] or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"]
    ran, code = run_traced(pytest_args)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        if not missed:
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(ROOT)
        print(f"\n{rel}: {len(missed)} line(s) never ran")
        for line in missed:
            print(f"  {rel}:{line}  {source[line - 1].strip()}")
        total += len(missed)
    print(f"\n{total} executable line(s) of {PACKAGE.relative_to(ROOT)} never ran "
          f"(pytest exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
