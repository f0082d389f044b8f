"""The claim rule and the recorder of scripts/bench_pairs.py on made-up runs."""

import argparse
import importlib.util

import pytest

from conftest import FIXTURES

SCRIPT = FIXTURES.parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def bench(parent_work, change_work, *, machines=("m",), change_rss=100.0, seconds=40):
    runs = []
    for i, (p, c) in enumerate(zip(parent_work, change_work)):
        for side, work, rss in (("parent", p, 100.0), ("change", c, change_rss)):
            runs.append({"pair": i, "side": side, "seed": 1 + i, "correct": True,
                         "attempted": 10, "failed": 0,
                         "machine_id": machines[i % len(machines)],
                         "metrics": {"setup_s": 1.0, "latency_p50_ms": 1000.0 / work,
                                     "work_per_s": work, "peak_rss_mb": rss}})
    return {"claim": "work_per_s", "machine_id": machines[0], "seconds": seconds,
            "runs": runs}


PARENT = [300.0, 320.0, 310.0, 290.0, 305.0, 315.0, 295.0, 300.0, 310.0, 305.0]


def test_clear_gain_holds():
    assert bench_pairs.check(bench(PARENT, [v * 1.5 for v in PARENT])) == []


def test_eight_wins_of_ten_fail():
    change = [v * 1.5 for v in PARENT[:8]] + [v * 0.9 for v in PARENT[8:]]
    faults = bench_pairs.check(bench(PARENT, change))
    assert faults == ["work_per_s: the change won 8 of 10 pairs"]


def test_gain_inside_the_parent_spread_fails():
    faults = bench_pairs.check(bench(PARENT, [v + 1.0 for v in PARENT]))
    assert len(faults) == 1 and "not more than the parent IQR" in faults[0]


def test_too_few_pairs_fail():
    faults = bench_pairs.check(bench(PARENT[:9], [v * 1.5 for v in PARENT[:9]]))
    assert faults == ["9 pairs, fewer than 10"]


def test_runs_shorter_than_the_benchmark_fail():
    faults = bench_pairs.check(bench(PARENT, [v * 1.5 for v in PARENT], seconds=1.0))
    assert faults == ["runs of 1.0 s, not the benchmark's 40 s"]


def test_other_metric_past_its_bound_fails():
    faults = bench_pairs.check(bench(PARENT, [v * 1.5 for v in PARENT], change_rss=111.0))
    assert len(faults) == 1 and faults[0].startswith("peak_rss_mb:")


def test_mixed_machines_are_refused(capsys):
    with pytest.raises(SystemExit) as info:
        bench_pairs.check(bench(PARENT, [v * 1.5 for v in PARENT], machines=("a", "b")))
    assert info.value.code == 2
    assert "runs from 2 machines" in capsys.readouterr().err


def test_record_without_scipy_stores_a_null_version(monkeypatch):
    def version(package):
        if package == "scipy":
            raise bench_pairs.metadata.PackageNotFoundError(package)
        return "9.9"

    monkeypatch.setattr(bench_pairs.metadata, "version", version)
    monkeypatch.setattr(bench_pairs, "resolve", lambda rev: rev)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "machine_id", lambda: "m")
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed, seconds: {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"setup_s": 1.0, "latency_p50_ms": 3.0, "work_per_s": 300.0,
                    "peak_rss_mb": 100.0}})
    args = argparse.Namespace(parent="p", change="c", workload="long_monologue",
                              pairs=2, seed=1, claim="setup_s")
    recorded = bench_pairs.record(args)
    assert recorded["scipy"] is None and recorded["numpy"] == "9.9"
    assert [(run["pair"], run["side"]) for run in recorded["runs"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")]
