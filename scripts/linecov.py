#!/usr/bin/env python3
"""List every statement of src/shooting/ that a pytest run never executes.

Runs pytest in this process under a sys.settrace line tracer that follows
only frames whose code lives in src/shooting/, then prints each line that
holds bytecode and never ran, with its source, file by file. The lines
that hold bytecode come from compiling each module and walking its code
objects, so docstrings, comments and declarations such as nonlocal, which
run no code, never show. Tests that run the package in a subprocess (the
CLI and acceptance checks that spawn python) are not seen: only this
process is traced. With no arguments it runs tier-1 as CI does (-q -W
error::RuntimeWarning, src/ on PYTHONPATH); any arguments go to pytest in
their place. On a 2-core Xeon tier-1 takes 100-140 s under the tracer,
against about 60 s plain, so this is a tool to run by hand, not a CI
step.

    python scripts/linecov.py [pytest arguments]

Exits 0 when every statement ran and 1 otherwise, whatever the tests'
own outcome, which pytest reports above the listing.
"""

import os
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "shooting"


def statements(path: Path) -> set[int]:
    """The lines of path that hold bytecode, in every code object."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        # a module's code starts at line 0, which holds no statement
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(argv or ["-q", "-W", "error::RuntimeWarning"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statements(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(REPO_ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} statement lines of {PACKAGE.relative_to(REPO_ROOT)} never ran")
    return int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
