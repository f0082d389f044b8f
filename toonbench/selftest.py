"""Checker self-test: clean outputs pass, deliberately corrupted ones fail.

Usage: python3 toonbench/selftest.py

Runs one long_monologue request and one build_expressions operation through
the package, checks the clean outputs, then applies each corruption to a
copy and requires the checker to report it. Exits 1 if a clean output fails
or a corruption goes unnoticed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import check
import gen

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work" / "selftest"
SEED = 7


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")


def _face_over_one(bundle: Path, spec: dict) -> None:
    def edit(face):
        face["frames"][10][face["channels"].index("jawOpen")] = 1.5
    _edit_json(bundle / "face.json", edit)


def _drop_body_row(bundle: Path, spec: dict) -> None:
    lines = (bundle / "body.bvh").read_text(encoding="utf-8").splitlines()
    (bundle / "body.bvh").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def _worst(query_sims: dict, exclude: str) -> str:
    return min((s, eid) for eid, s in query_sims.items() if eid != exclude)[1]


def _swap_gesture_id(bundle: Path, spec: dict) -> None:
    scored = sorted(g for g, e in spec["gestures"].items() if not e["neutral"])
    matrix = np.stack([check.ref_embed(spec["gestures"][g]["phrase"]) for g in scored])

    def edit(manifest):
        match = next(g for g in manifest["gestures"] if not g["fallback"])
        sims = dict(zip(scored, matrix @ check.ref_embed(match["query_phrase"])))
        match["entry_id"] = _worst(sims, match["entry_id"])
    _edit_json(bundle / "manifest.json", edit)


def _swap_expression_id(bundle: Path, spec: dict) -> None:
    def edit(manifest):
        query = manifest["dialogue_emotions"]
        sims = {eid: check.sparse_cosine(query, e["emotions"])
                for eid, e in spec["expressions"].items()}
        manifest["expression"]["entry_id"] = _worst(sims, manifest["expression"]["entry_id"])
    _edit_json(bundle / "manifest.json", edit)


def _shift_blink(bundle: Path, spec: dict) -> None:
    def edit(manifest):
        manifest["blink_onsets"][0] += 0.05
    _edit_json(bundle / "manifest.json", edit)


def _extra_reject(out: Path, spec: dict) -> None:
    def edit(report):
        report["rejects"].append({"file": "p99999.json", "error": "planted"})
    _edit_json(out / "report.json", edit)


SYNTH_CASES = {
    "face value set to 1.5": _face_over_one,
    "row dropped from body.bvh": _drop_body_row,
    "swapped gesture entry_id": _swap_gesture_id,
    "swapped expression entry_id": _swap_expression_id,
    "shifted blink onset": _shift_blink,
}
BUILD_CASES = {"extra reject": _extra_reject}


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import ops

    shutil.rmtree(WORK, ignore_errors=True)
    ok = True
    try:
        spec = gen.generate("long_monologue", SEED, WORK / "synth")
        request = gen.round_requests(spec, 0)[1]
        clean = WORK / "synth_out"
        ops.synthesize(spec["config"], request, clean)
        checker = check.SynthChecker(spec)

        bspec = gen.generate("build_expressions", SEED, WORK / "build")
        bclean = WORK / "build_out"
        ops.build_expressions(bspec["sources_dir"], bclean / "expressions.jsonl",
                              bclean / "report.json")
        bchecker = check.BuildChecker(bspec)

        def synth_check(d):
            return checker.check(d, request)

        def build_check(d):
            return bchecker.check(d / "expressions.jsonl", d / "report.json")

        cases = [("clean bundle", clean, spec, None, synth_check)]
        cases += [(n, clean, spec, fn, synth_check) for n, fn in SYNTH_CASES.items()]
        cases.append(("clean build", bclean, bspec, None, build_check))
        cases += [(n, bclean, bspec, fn, build_check) for n, fn in BUILD_CASES.items()]

        for name, source, case_spec, corrupt, run_check in cases:
            target = WORK / "case"
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(source, target)
            if corrupt is not None:
                corrupt(target, case_spec)
            problems = run_check(target)
            if corrupt is None:
                passed = not problems
                print(f"{'PASS' if passed else 'FAIL'}  {name} passes the checks"
                      + ("" if passed else f": {problems[:2]}"))
            else:
                passed = bool(problems)
                print(f"{'PASS' if passed else 'FAIL'}  {name} is caught"
                      + (f": {problems[0]}" if passed else ""))
            ok &= passed
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
