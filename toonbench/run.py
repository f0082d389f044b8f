"""Benchmark runner: one seeded workload, closed loop, one client.

Usage:
    python3 toonbench/run.py --workload short_turns --seed 1 --seconds 22 --trace 0

Workloads (README.md says why each exists):
    short_turns        load_config + synthesize of short turns on a large library
    long_monologue     load_config + synthesize of 30 s - 5 min monologues
    build_expressions  build_dataset over a directory of comic source fixtures

The run generates its inputs from the seed, runs one checked warm-up
operation, then runs whole rounds of operations, each starting when the
previous one has written its files, until the operations have taken
--seconds. Untraced runs also time set-up in three fresh interpreters,
spread between the rounds. On build_expressions each operation's time is
corrected for the machine's speed at that moment, measured by timing its
check (see CHECK_REF_S_PER_MB); the uncorrected figures go to stderr.
Every output is checked by check.py; an operation that raises or fails a
check counts as failed. One sampled request is run again at the end and
must give byte-identical files.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics from tracing.py and writes the spans under toonbench/_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

WORKLOADS = ("short_turns", "long_monologue", "build_expressions")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

# Machine-speed correction. The host's speed drifts by up to 1.5x over
# seconds to minutes, so an operation's raw wall time says as much about the
# machine at that moment as about the program. Right after each operation
# the run checks its outputs with check.py, fixed benchmark code whose work
# depends only on the output bytes, and times that check. Where the check
# does the same kind of work as the operation, its seconds per output
# megabyte over CHECK_REF_S_PER_MB, the same figure's median on the
# reference machine, is the machine's slowdown during that operation, and
# the operation's time is divided by it. That holds on build_expressions,
# where both parse, fuse and encode small JSON records: operation and check
# times move together, and in two sets of ten runs the correction cut the
# spread of the median latency from 0.34 to 0.05 and 0.03 (README.md). A
# synthesis check parses numbers where the operation formats them; their
# times hardly move together and the correction added noise, so those
# workloads are not corrected (their slowdown is 1). Set-up is never
# corrected: a fresh interpreter's imports do not slow down with the check.
CHECK_REF_S_PER_MB = {"build_expressions": 0.066}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="toonmotion benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Workload:
    """Inputs, one operation and its check, for one workload and seed."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        import check
        import gen

        self.name = name
        self.run_dir = run_dir
        self.spec = gen.generate(name, seed, run_dir / "inputs")
        self._gen = gen
        if name == "build_expressions":
            self.checker = check.BuildChecker(self.spec)
        else:
            self.checker = check.SynthChecker(self.spec)
        self._rounds: dict[int, list[dict]] = {}

    def round(self, r: int) -> list[dict]:
        """The operations of round r (the build workload repeats one build)."""
        if self.name == "build_expressions":
            return [{"images": self.spec["images"]}]
        if r not in self._rounds:
            self._rounds[r] = self._gen.round_requests(self.spec, r)
        return self._rounds[r]

    def outputs(self, out_dir: Path) -> list[Path]:
        if self.name == "build_expressions":
            return [out_dir / "expressions.jsonl", out_dir / "report.json"]
        return [out_dir / n for n in ("body.bvh", "face.json", "manifest.json")]

    def run(self, request: dict, out_dir: Path) -> None:
        import ops

        ops.run(self.name, self.spec, request, out_dir)

    def check(self, request: dict, out_dir: Path) -> list[str]:
        if self.name == "build_expressions":
            return self.checker.check(out_dir / "expressions.jsonl", out_dir / "report.json")
        return self.checker.check(out_dir, request)

    def work(self, request: dict) -> float:
        """Units of work in one operation: seconds of speech, or source images."""
        return request["images"] if "images" in request else request["duration"]


def setup_time(wl: Workload, request: dict, k: int) -> tuple[float, list[str]]:
    """Set-up in a fresh interpreter: import the package, run the first
    operation, stop once its files are on disk. The probe's files must
    match the in-process warm-up's byte for byte."""
    import check

    out_dir = wl.run_dir / f"probe{k}"
    op_file = wl.run_dir / f"probe{k}.json"
    inputs = {k: wl.spec[k] for k in ("config", "sources_dir") if k in wl.spec}
    op_file.write_text(json.dumps({"workload": wl.name, "src": str(SRC), "inputs": inputs,
                                   "request": request, "out": str(out_dir)}),
                       encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(op_file)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    elapsed = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    warm = wl.outputs(wl.run_dir / "warm")
    same = check.file_digests(wl.outputs(out_dir)) == check.file_digests(warm)
    shutil.rmtree(out_dir)
    return elapsed, [] if same else [f"probe {k}: files differ from the in-process run"]


def measure(args) -> dict:
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, run_dir: Path) -> dict:
    import check

    wl = Workload(args.workload, args.seed, run_dir)
    sys.path.insert(0, str(SRC))
    import ops  # noqa: F401  (the package is imported before any timing)

    out_dir = run_dir / "out"
    tracer = None
    attempted = failed = 0
    problems: list[str] = []

    def attempt(request, out_dir=out_dir) -> tuple[float, float] | None:
        """Run and check one operation; return its wall time and the
        machine's slowdown during it, or None if it failed."""
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                wl.run(request, out_dir)
            else:
                with tracer.op():
                    wl.run(request, out_dir)
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            problems.append(f"operation raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        t0 = time.perf_counter()
        found = wl.check(request, out_dir)
        checked = time.perf_counter() - t0
        if found:
            failed += 1
            problems.extend(found[:3])
            return None
        if wl.name not in CHECK_REF_S_PER_MB:
            return elapsed, 1.0
        mb = sum(path.stat().st_size for path in wl.outputs(out_dir)) / 1e6
        return elapsed, checked / mb / CHECK_REF_S_PER_MB[wl.name]

    first = wl.round(0)[0]
    if attempt(first, run_dir / "warm") is None:
        raise RuntimeError(f"the warm-up operation failed: {problems[0]}")

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # Set-up probes run between rounds, spread over the timed window, so
    # that both they and the rounds sample the machine at several moments.
    setup, probe_at = [], [] if args.trace else [
        k * args.seconds / SETUP_PROBES for k in range(SETUP_PROBES)]

    def probe():
        elapsed, found = setup_time(wl, first, len(setup))
        setup.append(elapsed)
        problems.extend(found)

    rng = random.Random(f"{args.workload}:{args.seed}:sample")
    sampled = rng.randrange(len(wl.round(0)))
    sampled_digests = None
    raw, latencies, slowdowns = [], [], []
    by_position: dict[int, list[float]] = {}
    busy = 0.0
    r = 0
    while busy < args.seconds:
        for k, request in enumerate(wl.round(r)):
            timed = attempt(request)
            if timed is not None:
                elapsed, slowdown = timed
                raw.append(elapsed)
                slowdowns.append(slowdown)
                latencies.append(elapsed / slowdown)
                by_position.setdefault(k, []).append(elapsed / slowdown)
                busy += elapsed
            if r == 0 and k == sampled:
                sampled_digests = check.file_digests(wl.outputs(out_dir))
        if not latencies:
            raise RuntimeError("every operation of the first round failed: "
                               + "; ".join(problems[:3]))
        if r == 0:
            # Every round has the same make-up, so the first one already
            # holds the largest operation; later rounds would only add
            # allocator drift that depends on how many rounds fit.
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        r += 1
        while probe_at and busy >= probe_at[0]:
            probe_at.pop(0)
            probe()
    while probe_at:
        probe_at.pop(0)
        probe()

    if tracer is not None:
        tracer.uninstall()
    det_dir = run_dir / "det"
    wl.run(wl.round(0)[sampled], det_dir)
    if check.file_digests(wl.outputs(det_dir)) != sampled_digests:
        problems.append(f"request {sampled} of round 0 is not byte-identical when rerun")

    for line in problems[:10]:
        print(f"check: {line}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    slowdown = statistics.median(slowdowns)
    if tracer is not None:
        tracer.dump(WORK / "results" / f"trace-{args.workload}.json")
        units = tracing.metric_units()
        result["metrics"] = {
            name: {"value": value / slowdown if units[name] == "ms" else value,
                   "unit": units[name]}
            for name, value in tracer.metrics().items()}
        return result
    # Throughput of a typical round: its work over the sum, across its
    # positions, of each position's median time, so that one slow stretch
    # of the machine moves it no more than it moves the median latency.
    round_work = sum(wl.work(wl.round(0)[k]) for k in by_position)
    print("uncorrected: " + json.dumps({
        "latency_p50_ms": 1000.0 * statistics.median(raw),
        "slowdown": slowdown}), file=sys.stderr)
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "latency_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
        "work_per_s": {"value": round_work / sum(statistics.median(v)
                                                 for v in by_position.values()),
                       "unit": "work/s"},
        "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
    }
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its files and stops its set-up probe.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "toonmotion" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
