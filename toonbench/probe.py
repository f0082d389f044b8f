"""Set-up probe: one fresh interpreter, one operation, its elapsed time.

Usage: python3 toonbench/probe.py <op.json>

<op.json> holds {"workload", "src", "inputs", "request", "out"}. The clock
starts before the package is imported and stops once the operation's files
are on disk; the elapsed seconds are printed as {"setup_s": ...}.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    op = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, op["src"])
    import ops

    ops.run(op["workload"], op["inputs"], op["request"], Path(op["out"]))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
