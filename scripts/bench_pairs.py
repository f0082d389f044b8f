"""Alternating parent/change benchmark pairs, recorded to a BENCH file.

    python scripts/bench_pairs.py --parent REV [--change REV] --workload NAME \
        [--pairs 10] [--seed 1] --claim METRIC --out BENCH_N.json
    python scripts/bench_pairs.py --check BENCH_N.json

The first form exports both revisions with ``git archive`` into a temporary
directory and runs ``toonbench/run.py --trace 0`` once per side per pair
for the ``run_seconds`` of ``BENCHMARK.json``, the side that runs first
alternating from pair to pair. Pair ``i`` uses seed ``--seed + i`` on both
sides. Every run's metrics go to the BENCH file with
a summary per end-to-end metric of ``BENCHMARK.json`` (each side's median
and quartiles, and the pairs the change won), the two revisions, the CPU
count, a machine id and the Python, numpy and scipy versions (null for
one not installed).

``--check`` recomputes the summary from the stored runs and applies the
rule a speed claim must meet: runs of ``run_seconds``, at least 10 pairs,
every run correct with no failed operation, the change better on at least
9 of 10 pairs for the claimed metric (ties count for neither side), and the medians apart, in the
better direction, by more than the parent's interquartile range. It refuses
a file whose runs come from more than one machine. It also lists every
other end-to-end metric whose change median is worse than the parent's by
more than its ``BENCHMARK.json`` bound; such a metric fails the check too.

Exit status: 0 when the rule holds, 1 when it does not, 2 on a usage or
input fault. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def end_to_end_metrics() -> dict[str, dict]:
    return {m["name"]: m for m in benchmark_spec()["end_to_end"]}


def machine_id() -> str:
    """A short hash of /etc/machine-id (the node name where there is none),
    the CPU model and the CPU count."""
    try:
        host = Path("/etc/machine-id").read_text("utf-8").strip()
    except OSError:
        host = platform.node()
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text("utf-8").splitlines()
    except OSError:
        cpuinfo = [platform.processor()]
    model = next((line for line in cpuinfo if line.startswith("model name")), "")
    text = f"{host}\n{model}\n{os.cpu_count()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def installed_version(package: str) -> str | None:
    """The installed version of *package*, or None when it is not installed
    (scipy is a test dependency only)."""
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def usage_fault(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def resolve(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of *rev* under *dest*, through ``git archive``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "toonbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise usage_fault(f"run in {checkout} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def record(args) -> dict:
    revisions = {"parent": resolve(args.parent), "change": resolve(args.change)}
    seconds = benchmark_spec()["run_seconds"]
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    runs = []
    try:
        for side, rev in revisions.items():
            export(rev, work / side)
        host = machine_id()
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(work / side, args.workload, args.seed + i, seconds)
                runs.append({"pair": i, "side": side, "seed": args.seed + i,
                             "machine_id": host, **run})
                print(f"pair {i} {side}: " + json.dumps(run["metrics"]),
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench = {
        "workload": args.workload, "seconds": seconds, "claim": args.claim,
        "revisions": revisions, "cpu_count": os.cpu_count(), "machine_id": host,
        "python": platform.python_version(),
        "numpy": installed_version("numpy"), "scipy": installed_version("scipy"),
        "runs": runs,
    }
    bench["summary"] = summarize(bench)
    return bench


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(bench: dict) -> dict:
    """Per end-to-end metric: each side's quartiles, the parent IQR and the
    pairs the change won, from the stored runs."""
    sides: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
    for run in bench["runs"]:
        sides[run["side"]][run["pair"]] = run["metrics"]
    pairs = sorted(sides["parent"].keys() & sides["change"].keys())
    summary = {"pairs": len(pairs)}
    if len(pairs) < 2:
        return summary
    for name, spec in end_to_end_metrics().items():
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent = [sides["parent"][i][name] for i in pairs]
        change = [sides["change"][i][name] for i in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        summary[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent_quartiles": [p1, pm, p3], "change_quartiles": [c1, cm, c3],
            "parent_iqr": p3 - p1,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "losses": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "change_over_parent": cm / pm if pm else math.nan,
        }
    return summary


def check(bench: dict) -> list[str]:
    """The faults that keep the file's claim from holding; empty if it holds."""
    hosts = {run["machine_id"] for run in bench["runs"]} | {bench["machine_id"]}
    if len(hosts) != 1:
        raise usage_fault(f"runs from {len(hosts)} machines: {sorted(hosts)}")
    faults = [f"pair {run['pair']} {run['side']}: correct={run['correct']}, "
              f"failed={run['failed']}"
              for run in bench["runs"] if run["correct"] is not True or run["failed"]]
    seconds = benchmark_spec()["run_seconds"]
    if bench["seconds"] != seconds:
        faults.append(f"runs of {bench['seconds']} s, not the benchmark's {seconds} s")
    summary = summarize(bench)
    if summary["pairs"] < MIN_PAIRS:
        faults.append(f"{summary['pairs']} pairs, fewer than {MIN_PAIRS}")
        return faults
    claim = summary[bench["claim"]]
    sign = 1.0 if claim["better"] == "higher" else -1.0
    gap = sign * (claim["change_quartiles"][1] - claim["parent_quartiles"][1])
    if claim["wins"] < MIN_WIN_SHARE * summary["pairs"]:
        faults.append(f"{bench['claim']}: the change won {claim['wins']} of "
                      f"{summary['pairs']} pairs")
    if not gap > claim["parent_iqr"]:
        faults.append(f"{bench['claim']}: medians {gap:+.6g} apart in the better "
                      f"direction, not more than the parent IQR {claim['parent_iqr']:.6g}")
    for name, metric in summary.items():
        if name in ("pairs", bench["claim"]):
            continue
        sign = 1.0 if metric["better"] == "higher" else -1.0
        parent_median, change_median = metric["parent_quartiles"][1], metric["change_quartiles"][1]
        if sign * (change_median - parent_median) < -metric["bound"] * abs(parent_median):
            faults.append(f"{name}: median {change_median:.6g} is worse than the "
                          f"parent's {parent_median:.6g} by more than {metric['bound']:.0%}")
    return faults


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE", type=Path)
    parser.add_argument("--parent", metavar="REV")
    parser.add_argument("--change", metavar="REV", default="HEAD")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", default="work_per_s", choices=end_to_end_metrics())
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.check is not None:
        try:
            bench = json.loads(args.check.read_text("utf-8"))
        except (OSError, ValueError) as exc:
            raise usage_fault(f"{args.check}: {exc}") from None
        faults = check(bench)
        summary = summarize(bench)
        for name, metric in summary.items():
            if name != "pairs":
                print(f"{name}: parent {metric['parent_quartiles']}, change "
                      f"{metric['change_quartiles']}, wins {metric['wins']}/"
                      f"{summary['pairs']}")
        for fault in faults:
            print(f"FAIL {fault}")
        print("claim holds" if not faults else "claim does not hold")
        return 1 if faults else 0
    if not (args.parent and args.workload and args.out):
        parser.error("recording needs --parent, --workload and --out")
    bench = record(args)
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", "utf-8")
    return 1 if check(bench) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
