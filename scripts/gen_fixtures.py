"""Regenerate the committed test fixtures.

Produces the gesture BVH clips + JSONL index, the expression source
fixtures, the built expression dataset, and the demo config. Everything is
seeded, so rerunning the script reproduces identical bytes.

Usage: python scripts/gen_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from toonmotion.bvh import GestureClip, Joint, Skeleton, serialize_bvh
from toonmotion.expression_dataset import build_dataset
from toonmotion.jsonutil import canonical_json
from toonmotion.providers import LexiconEmotionProvider, load_emotion_categories
from toonmotion.quat import euler_deg_to_quat

FIXTURES = REPO / "tests" / "fixtures"
FPS = 30.0

# Motion is zero (exact rest pose) for this long at both ends of every clip.
# It must exceed half the stitching blend window (0.15 s at the 0.3 s
# default) so crossfades only ever interpolate between identical rest poses.
REST_LEAD_S = 0.2
EASE_S = 0.3

REST_ROOT = np.array([0.0, 90.0, 0.0])


def fixture_skeleton() -> Skeleton:
    def j(name, parent, offset):
        return Joint(name, parent, np.array(offset, dtype=np.float64), "ZXY")

    return Skeleton([
        j("Hips", -1, (0.0, 90.0, 0.0)),
        j("Spine", 0, (0.0, 12.0, 0.0)),
        j("Chest", 1, (0.0, 14.0, 0.0)),
        j("LArm", 2, (14.0, 4.0, 0.0)),
        j("RArm", 2, (-14.0, 4.0, 0.0)),
        j("Neck", 2, (0.0, 10.0, 0.0)),
        j("Head", 5, (0.0, 8.0, 0.0)),
    ])


def envelope(t: np.ndarray, duration: float) -> np.ndarray:
    """Zero within REST_LEAD_S of both ends, smoothstep ramps inside."""
    up = np.clip((t - REST_LEAD_S) / EASE_S, 0.0, 1.0)
    down = np.clip((duration - REST_LEAD_S - t) / EASE_S, 0.0, 1.0)
    w = np.minimum(up, down)
    return w * w * (3.0 - 2.0 * w)


def make_clip(seed: int, duration_s: float, amp_deg: float, source_id: str) -> GestureClip:
    skeleton = fixture_skeleton()
    n_joints = len(skeleton.joints)
    frame_count = int(round(duration_s * FPS)) + 1
    t = np.arange(frame_count) / FPS
    env = envelope(t, duration_s)

    rng = np.random.RandomState(seed)
    amps = rng.uniform(0.2 * amp_deg, amp_deg, size=(n_joints, 3))
    freqs = rng.uniform(0.4, 1.2, size=(n_joints, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_joints, 3))

    rotations = np.empty((frame_count, n_joints, 4))
    for j in range(n_joints):
        angles = (
            amps[j][np.newaxis, :]
            * np.sin(2.0 * np.pi * freqs[j][np.newaxis, :] * t[:, np.newaxis]
                     + phases[j][np.newaxis, :])
            * env[:, np.newaxis]
        )
        rotations[:, j, :] = euler_deg_to_quat(angles, "ZXY")

    sway = rng.uniform(0.5, 2.0, size=3)
    sway_f = rng.uniform(0.3, 0.8, size=3)
    sway_p = rng.uniform(0.0, 2.0 * np.pi, size=3)
    root = REST_ROOT[np.newaxis, :] + (
        sway[np.newaxis, :]
        * np.sin(2.0 * np.pi * sway_f[np.newaxis, :] * t[:, np.newaxis]
                 + sway_p[np.newaxis, :])
        * env[:, np.newaxis]
    )

    return GestureClip(skeleton, FPS, root, rotations, source_id)


GESTURES = [
    # (id, phrase, category, seed, duration_s, amplitude_deg)
    ("g_big", "It was this big", "iconic", 101, 1.8, 25.0),
    ("g_hello", "Hello there.", "greeting", 102, 1.2, 22.0),
    ("g_konnichiwa", "こんにちは", "greeting", 103, 1.4, 20.0),
    ("g_listen", "I see, go on", "active_listening", 104, 1.0, 12.0),
    ("g_look", "Look over there", "gaze_guidance", 105, 1.2, 18.0),
    ("g_really", "Really truly important", "emphasis", 106, 1.4, 24.0),
    ("g_wonderful", "That is wonderful", "emotion", 107, 1.6, 23.0),
    ("n_idle1", "idle sway", "neutral", 108, 1.0, 5.0),
    ("n_idle2", "idle shift", "neutral", 109, 1.2, 6.0),
]


def write_gesture_fixtures():
    gdir = FIXTURES / "gestures"
    (gdir / "clips").mkdir(parents=True, exist_ok=True)
    lines = []
    for gid, phrase, category, seed, duration, amp in GESTURES:
        clip = make_clip(seed, duration, amp, gid)
        rel = f"clips/{gid}.bvh"
        (gdir / rel).write_bytes(serialize_bvh(clip))
        lines.append(json.dumps({
            "id": gid,
            "phrase": phrase,
            "category": category,
            "neutral": category == "neutral",
            "clip": rel,
            "duration_s": duration,
        }, ensure_ascii=False))
    (gdir / "gestures.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(GESTURES)} gesture fixtures")


def neutral_landmarks() -> dict:
    """A symmetric open-eyed face inside a 200x200 box."""
    pts = [
        [120, 260], [150, 290], [200, 300], [250, 290], [280, 260],  # contour
        [135, 150], [155, 143], [175, 146],                          # left brow
        [225, 146], [245, 143], [265, 150],                          # right brow
        [135, 180], [155, 172], [175, 180], [155, 188],              # left eye
        [225, 180], [245, 172], [265, 180], [245, 188],              # right eye
        [195, 195], [200, 205], [205, 215], [195, 220], [205, 220],  # nose
        [170, 245], [200, 240], [230, 245], [200, 250],              # mouth
    ]
    return {"points": pts, "bbox": [100, 100, 300, 320]}


def _with_mouth(base: dict, top_y: float, bottom_y: float,
                corner_dy: float = 0.0) -> dict:
    out = json.loads(json.dumps(base))
    out["points"][25][1] = top_y
    out["points"][27][1] = bottom_y
    out["points"][24][1] += corner_dy
    out["points"][26][1] += corner_dy
    return out


def _with_eyes(base: dict, gap: float) -> dict:
    out = json.loads(json.dumps(base))
    for top, bottom, center in ((12, 14, 180), (16, 18, 180)):
        out["points"][top][1] = center - gap / 2.0
        out["points"][bottom][1] = center + gap / 2.0
    return out


def expression_sources() -> list[dict]:
    base = neutral_landmarks()
    smiling = _with_mouth(base, 238, 252, corner_dy=-8.0)
    frowning = _with_mouth(base, 238, 252, corner_dy=9.0)
    open_mouth = _with_mouth(base, 228, 262)
    nearly_closed = _with_eyes(base, 3.0)

    return [
        {
            "image_id": "img01",
            "dialogue": "That is wonderful",
            "tags": [{"tag": "smile", "confidence": 0.8}],
            "landmarks": smiling,
            "answers": {"mouth": "smile"},
        },
        {
            "image_id": "img02",
            "dialogue": "I love you, this is so embarrassing",
            "tags": [{"tag": "blush", "confidence": 0.9},
                     {"tag": "smile", "confidence": 0.5}],
            "landmarks": smiling,
            "answers": {},
        },
        {
            "image_id": "img03",
            "dialogue": "I am so tired today",
            "tags": [],
            "landmarks": nearly_closed,
            "answers": {"eye_state": "half", "brow": "neutral"},
        },
        {
            "image_id": "img04",
            "dialogue": "I am so worried about the exam",
            "tags": [{"tag": "sweat", "confidence": 0.85},
                     {"tag": "frown", "confidence": 0.6}],
            "landmarks": frowning,
            "answers": {"brow": "furrowed"},
        },
        {
            "image_id": "img05",
            "dialogue": None,
            "tags": [],
            "landmarks": base,
            "answers": {"eye_state": "open", "mouth": "closed", "brow": "neutral"},
        },
        {
            "image_id": "img06",
            "dialogue": "What?! That is shocking news!",
            "tags": [{"tag": "shock", "confidence": 0.95}],
            "landmarks": open_mouth,
            "answers": {"eye_state": "open", "mouth": "open",
                        "overlays": ["shock"]},
        },
        {
            "image_id": "img07",
            "dialogue": "I am sad and lonely tonight",
            "tags": [{"tag": "frown", "confidence": 0.7}],
            "landmarks": frowning,
            "answers": {"mouth": "frown", "brow": "furrowed"},
        },
        {
            "image_id": "img08",
            "dialogue": "Wow, amazing, I cannot believe it!",
            "tags": [],
            "landmarks": open_mouth,
            "answers": {"eye_state": "circle", "mouth": "open"},
        },
        {
            "image_id": "img09",
            "dialogue": "How interesting, tell me more",
            "tags": [],
            "landmarks": base,
            "answers": {"brow": "raised"},
        },
        {
            "image_id": "img10",
            "dialogue": "I hate this, I am furious!",
            "tags": [{"tag": "frown", "confidence": 0.8}],
            "landmarks": frowning,
            "answers": {"eye_state": "angle", "brow": "furrowed",
                        "overlays": ["none"]},
        },
    ]


def write_expression_fixtures():
    sdir = FIXTURES / "expression_sources"
    sdir.mkdir(parents=True, exist_ok=True)
    for source in expression_sources():
        path = sdir / f"{source['image_id']}.json"
        path.write_text(
            json.dumps(source, ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8",
        )
    entries, report = build_dataset(
        sdir, LexiconEmotionProvider(), out_path=FIXTURES / "expressions.jsonl",
        categories=load_emotion_categories()
    )
    print(f"built expression dataset: {report.to_json_dict()}")


def write_config():
    config = {
        "gesture_dataset": "gestures/gestures.jsonl",
        "expression_dataset": "expressions.jsonl",
        "provider_mode": "offline",
    }
    (FIXTURES / "config.json").write_text(
        canonical_json(config) + "\n", encoding="utf-8"
    )


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    write_gesture_fixtures()
    write_expression_fixtures()
    write_config()


if __name__ == "__main__":
    main()
