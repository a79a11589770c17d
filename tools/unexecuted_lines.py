"""List the executable lines of ``src/s2ml`` that the test suite never runs.

Runs pytest in this process under a ``sys.settrace`` (and
``threading.settrace``) line tracer that records only frames whose code
lives under ``src/s2ml``. The executable lines of each module are taken from
``co_lines()`` of its compiled code and every nested code object. Prints
``file:line: text`` for each line no test ran and exits 1 if there is any
(or with pytest's status if the suite fails), else exits 0.

Usage, from the repository root::

    python tools/unexecuted_lines.py [extra pytest arguments]

Lines run only in a subprocess that a test starts are not seen. The stdlib
``trace`` module is not used: its ``ignoredirs`` cache is keyed by module
basename, so a site-packages ``data.py`` or ``__init__.py`` hides
``s2ml/data.py`` and ``s2ml/__init__.py``.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "s2ml"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some instruction of the compiled file belongs to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        mine = ours.get(filename)
        if mine is None:
            mine = ours[filename] = os.path.realpath(filename).startswith(prefix)
            if mine:
                ran.setdefault(filename, set())
        if not mine:
            return None
        ran[filename].add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    hits: dict[Path, set[int]] = {}
    for filename, lines in ran.items():
        hits.setdefault(Path(os.path.realpath(filename)), set()).update(lines)
    missing = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits.get(path, set())):
            missing += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missing} unexecuted line(s) under {PACKAGE.relative_to(ROOT)}")
    if status != 0:
        print(f"pytest exited with status {int(status)}")
        return int(status)
    return 1 if missing else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
