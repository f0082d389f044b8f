"""Line gate: run the tier-1 tests under a line tracer and fail if any line
of src/toonmotion never ran.

    python scripts/line_coverage.py [extra pytest options]

The executable lines of a module are the lines its compiled code objects
map instructions to (``co_lines``). Lines inside an
``if __name__ == "__main__":`` block are exempt; no other line is, by pragma
or by list. Only this process is traced: a line that only a subprocess runs
counts as never run. Extra options go to pytest after the defaults, so
``--hypothesis-seed=1`` replaces the default seed 0.

Exit status: pytest's own when the tests fail, else 1 when some line never
ran (each is listed as ``path:line``), else 0. Standard library only.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toonmotion"


def executable_lines(path: Path) -> set[int]:
    """The lines of *path* that some instruction of its code maps to, minus
    the bodies of module-level ``if __name__ == "__main__":`` blocks."""
    source = path.read_text("utf-8")
    lines: set[int] = set()
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        # None marks an instruction with no line, and 0 a module's entry.
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.difference_update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in ran else None

    # The tracer is in place before the tests import toonmotion, so module
    # level lines count too.
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    import pytest

    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                              *argv, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)

    missed = [f"{path.relative_to(ROOT)}:{line}"
              for name, path in files.items()
              for line in sorted(executable_lines(path) - ran[name])]
    for entry in missed:
        print(entry)
    print(f"line gate: {len(missed)} line(s) of src/toonmotion never ran",
          file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
