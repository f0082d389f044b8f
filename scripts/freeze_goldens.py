"""Freeze golden files used by the regression tests.

Run once after fixtures change; outputs are committed. Each golden captures
the first verified output of a deterministic routine so later regressions
show up as byte diffs.

Usage: python scripts/freeze_goldens.py
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from toonmotion.bvh import GestureClip, Joint, Skeleton, serialize_bvh
from toonmotion.cli import main as cli_main
from toonmotion.face_engine import schedule_blinks
from toonmotion.pipeline import Config
from toonmotion.text_semantics import reference_embed

FIXTURES = REPO / "tests" / "fixtures"
GOLDENS = FIXTURES / "goldens"
BUNDLE_GOLDENS = GOLDENS / "bundles"
QUESTIONNAIRE_GOLDEN = GOLDENS / "questionnaire"

# Full synthesize requests on the fixture config. Each golden directory holds
# the request (phoneme path relative to tests/fixtures) next to the three
# bundle members, so the test replays exactly what was frozen.
BUNDLE_REQUESTS = {
    "short_en": {"text": "Hello there. That is wonderful!", "duration": 4.5,
                 "seed": 7, "phonemes": None},
    "multi_phrase": {
        "text": "Hello there. It was this big, really truly important! "
                "Look over there. I see, go on. Zqxv jkwp. That is wonderful!",
        "duration": 10.0, "seed": 3, "phonemes": None,
    },
    "cjk": {"text": "こんにちは。本当にすごいですね！", "duration": 3.0,
            "seed": 1, "phonemes": None},
    "overlay_eyes": {"text": "Wow, I cannot believe it, amazing!", "duration": 3.0,
                     "seed": 5, "phonemes": "phonemes_wow.json"},
    # Overlay eyes are on from half the transition: the seed draws three
    # blinks, and every one of them is dropped.
    "overlay_blinks": {"text": "Wow, I cannot believe it, amazing!",
                       "duration": 8.0, "seed": 6, "phonemes": None},
    # Retiming clamps the time scale at 2: the motion ends early and the
    # final pose is held to the end of the speech.
    "hold": {"text": "Hello there.", "duration": 6.0, "seed": 2, "phonemes": None},
    # Retiming clamps the time scale at 0.5: the motion is cut at speech end.
    "truncate": {
        "text": "Hello there. It was this big, really truly important! "
                "Look over there. I see, go on. Zqxv jkwp. That is wonderful!",
        "duration": 3.0, "seed": 4, "phonemes": None,
    },
    "long_phonemes": {
        "text": "Hello there. It was this big, really truly important! "
                "Look over there. I see, go on. That is wonderful! "
                "Really? Look at that. It was this big. Hello there, "
                "I see. That is wonderful, go on!",
        "duration": 20.0, "seed": 6, "phonemes": "phonemes_long.json",
    },
}


def freeze_reference_embedding():
    vec = reference_embed("こんにちは")
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    (GOLDENS / "ref_embed_konnichiwa.json").write_text(
        json.dumps([float(v) for v in vec]) + "\n", encoding="utf-8"
    )


def freeze_blink_onsets():
    onsets = schedule_blinks(10.0, random.Random(42),
                             mean_gap_s=Config.blink_mean_gap_s,
                             min_gap_s=Config.blink_min_gap_s)

    # Independent re-derivation of the documented sampling contract.
    rng = random.Random(42)
    expected = []
    t = 0.0
    while True:
        onset = t + max(1.0, rng.expovariate(0.25))
        if onset + 0.30 > 10.0:
            break
        expected.append(onset)
        t = onset + 0.30
    assert onsets == expected, "sampler drifted from its contract"

    (GOLDENS / "blink_onsets_seed42_10s.json").write_text(
        json.dumps(onsets) + "\n", encoding="utf-8"
    )


def freeze_zero_pose_bvh():
    skeleton = Skeleton([
        Joint("Hips", -1, np.array([0.0, 90.0, 0.0]), "ZXY"),
        Joint("Spine", 0, np.array([0.0, 10.0, 0.0]), "ZXY",
              end_offset=np.array([0.0, 5.0, 0.0])),
    ])
    rotations = np.zeros((2, 2, 4))
    rotations[:, :, 0] = 1.0
    root = np.tile(np.array([0.0, 90.0, 0.0]), (2, 1))
    clip = GestureClip(skeleton, 30.0, root, rotations, "zero_pose")
    (GOLDENS / "zero_pose.bvh").write_bytes(serialize_bvh(clip))


def freeze_retrieve_cli():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main([
            "retrieve",
            "--text", "Hello there. That is wonderful!",
            "--config", str(REPO / "tests" / "fixtures" / "config.json"),
            "--seed", "0",
        ])
    assert code == 0
    (GOLDENS / "retrieve_cli.json").write_text(buffer.getvalue(), encoding="utf-8")


def freeze_bundles():
    for name, req in BUNDLE_REQUESTS.items():
        out = BUNDLE_GOLDENS / name
        argv = [
            "synthesize", "--text", req["text"], "--duration", str(req["duration"]),
            "--seed", str(req["seed"]), "--config", str(FIXTURES / "config.json"),
            "--out", str(out),
        ]
        if req["phonemes"] is not None:
            argv += ["--phonemes", str(FIXTURES / req["phonemes"])]
        with redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        assert code == 0, f"synthesize failed for golden bundle {name!r}"
        (out / "request.json").write_text(
            json.dumps(req, ensure_ascii=False, indent=1) + "\n", encoding="utf-8"
        )


# One questionnaire answer set per source. Every source shares a face whose
# geometry and tags set every answered channel group, so each answer's
# override shows in the built record; the "x_" sources are rejected.
QUESTIONNAIRE_ANSWERS = {
    **{f"eye_{o}": {"eye_state": o} for o in ("open", "half", "closed", "circle", "angle")},
    **{f"mouth_{o}": {"mouth": o} for o in ("open", "closed", "smile", "frown", "pucker")},
    **{f"brow_{o}": {"brow": o} for o in ("neutral", "raised", "furrowed")},
    "overlays_empty": {"overlays": []},
    "overlays_none": {"overlays": ["none"]},
    **{"overlays_" + "_".join(combo): {"overlays": list(combo)} for combo in (
        ("sweat",), ("blush",), ("shock",), ("sweat", "blush"), ("sweat", "shock"),
        ("blush", "shock"), ("shock", "blush", "sweat"), ("blush", "blush"))},
    "all_answered": {"eye_state": "closed", "mouth": "pucker", "brow": "raised",
                     "overlays": ["sweat", "blush"]},
    "all_null": {"eye_state": None, "mouth": None, "brow": None},
    "unanswered": {},
    "x_unknown_question": {"nostrils": "flared"},
    "x_unknown_question_before_option": {"eye_state": "squint", "zz": 1, "aa": 2},
    "x_eye_option": {"eye_state": "squint"},
    "x_eye_non_string": {"eye_state": True},
    "x_mouth_option": {"mouth": "grin"},
    "x_mouth_non_string": {"mouth": {"open": 1}},
    "x_brow_option": {"brow": "wiggle"},
    "x_brow_non_string": {"brow": ["raised"]},
    "x_overlays_option": {"overlays": ["sparkle"]},
    "x_overlays_non_string": {"overlays": [["blush"]]},
    "x_overlays_option_before_none": {"overlays": ["none", "sparkle"]},
    "x_overlays_none_with_blush": {"overlays": ["none", "blush"]},
    "x_overlays_none_twice": {"overlays": ["none", "none"]},
    "x_first_bad_in_question_order": {"overlays": ["sparkle"], "brow": "wiggle",
                                      "eye_state": "squint"},
    "x_answers_not_object": [],
}
QUESTIONNAIRE_DIALOGUES = ("That is wonderful", "I am so worried about the exam",
                           "What?! That is shocking news!", None)


def freeze_questionnaire():
    from gen_fixtures import _with_eyes, _with_mouth, neutral_landmarks

    # Half-shut eyes, an open frowning mouth and raised brows.
    face = _with_mouth(_with_eyes(neutral_landmarks(), 8.0), 233, 257, corner_dy=8.0)
    tags = [{"tag": name, "confidence": conf} for name, conf in
            (("blush", 0.9), ("sweat", 0.8), ("shock", 0.6), ("smile", 0.7))]
    sources = QUESTIONNAIRE_GOLDEN / "sources"
    sources.mkdir(parents=True, exist_ok=True)
    for i, (name, answers) in enumerate(QUESTIONNAIRE_ANSWERS.items()):
        source = {"image_id": name, "dialogue": QUESTIONNAIRE_DIALOGUES[i % 4],
                  "tags": tags, "landmarks": face, "answers": answers}
        (sources / f"{name}.json").write_text(json.dumps(source) + "\n",
                                              encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        code = cli_main([
            "build-expressions", "--sources", str(sources),
            "--out", str(QUESTIONNAIRE_GOLDEN / "expressions.jsonl"),
            "--report", str(QUESTIONNAIRE_GOLDEN / "report.json"),
        ])
    assert code == 0, "build-expressions failed for the questionnaire golden"


def freeze_neutral_draw():
    # Two neutral entries sorted by id; a forced fallback with seed 7 must
    # pick the same one forever.
    rng = random.Random(7)
    index = rng.randrange(2)
    chosen = sorted(["n_idle1", "n_idle2"])[index]
    (GOLDENS / "neutral_draw_seed7.json").write_text(
        json.dumps({"index": index, "entry_id": chosen}) + "\n", encoding="utf-8"
    )


def main():
    GOLDENS.mkdir(parents=True, exist_ok=True)
    freeze_reference_embedding()
    freeze_blink_onsets()
    freeze_zero_pose_bvh()
    freeze_retrieve_cli()
    freeze_neutral_draw()
    freeze_bundles()
    freeze_questionnaire()
    print(f"goldens written to {GOLDENS}")


if __name__ == "__main__":
    main()
