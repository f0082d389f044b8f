"""Seeded input generators for the three benchmark workloads.

Everything the program reads during a run is written here: configs, the
gesture library (a 60-joint skeleton and BVH clips with exact rest poses at
both ends, in the style of ``scripts/gen_fixtures.py``), expression
datasets, dialogue texts, timed phoneme files and comic source fixtures.
The generators use no code from the package, so a fault in the program
cannot leak into its own inputs. The same workload and seed always give the
same bytes.

Each generator also returns a *spec*: what the inputs are meant to contain
(phrases, neutral ids, emotion vectors, planted malformed files). The
checker compares the program's outputs against the spec, never against the
program.

Regenerate the inputs of one run (round 0 for the synthesis workloads):

    python3 toonbench/gen.py --workload short_turns --seed 1 --out toonbench/_work/inputs
"""

from __future__ import annotations

import argparse
import io
import json
import random
from pathlib import Path

import numpy as np

import check

FPS = 30.0
FRAME_TIME = "0.03333333"
REST_LEAD_S = 0.2
EASE_S = 0.3
REST_ROOT = np.array([0.0, 90.0, 0.0])
CLIP_DURATIONS = (1.0, 1.2, 1.4, 1.6, 1.8)

LARGE_LIBRARY_CLIPS = 100
LARGE_LIBRARY_NEUTRAL = 8
LARGE_EXPRESSIONS = 1000
SMALL_LIBRARY_CLIPS = 16
SMALL_LIBRARY_NEUTRAL = 3
SMALL_EXPRESSIONS = 60
SOURCE_FIXTURES = 1000

# Round make-up. Durations are spread evenly with antisymmetric jitter, so
# every round requests the same total speech and the mean request equals the
# median one; phrase counts and phoneme files sit at fixed positions.
TURN_BASE_S = (2.5, 4.0, 5.5)
TURN_PHRASES = (1, 2, 3)
TURN_PHONEMES = (True, False, True)
MONOLOGUE_BASE_S = (30.0, 165.0, 165.0, 300.0)
MONOLOGUE_PHONEMES = (False, True, False, True)
# Each monologue carries a signature sentence whose emotion vector retrieves
# a planted expression; the shortest and longest have overlay eyes.
MONOLOGUE_OVERLAY = ("circleEyes", None, None, "angleEyes")
MONOLOGUE_PHRASES_PER_S = 0.5
MAX_PHRASE_CHARS = 40

GESTURE_PHRASES = {
    "greeting": [
        "hello there", "good morning", "hi everyone", "nice to meet you",
        "welcome back", "good evening friends", "hey how are you",
        "long time no see", "こんにちは", "おはようございます", "はじめまして",
        "お久しぶりです", "ようこそ",
    ],
    "emotion": [
        "that is wonderful", "i am so happy", "this is terrible news",
        "i feel so sad today", "that makes me angry", "what a relief",
        "i love this place", "how embarrassing", "嬉しいです", "悲しいな",
        "すごいね", "楽しかった",
    ],
    "emphasis": [
        "really truly important", "listen to this carefully",
        "this is the key point", "absolutely no doubt", "never ever again",
        "remember this one thing", "that is exactly right", "本当に大事です",
        "絶対にだめ",
    ],
    "iconic": [
        "it was this big", "a tiny little box", "round like a ball",
        "the tower was so tall", "waves going up and down",
        "a long winding road", "spinning around and around", "こんなに大きい",
        "小さな箱",
    ],
    "active_listening": [
        "i see go on", "mm hmm i understand", "right that makes sense",
        "tell me more", "oh really", "i am listening", "なるほど",
        "そうですね", "うんうん",
    ],
    "gaze_guidance": [
        "look over there", "over on the left", "check this out",
        "see that building", "up in the sky", "right behind you",
        "down by the river", "あそこを見て", "こっちだよ",
    ],
}
NEUTRAL_PHRASES = [
    "idle sway", "idle shift", "idle breathe", "idle rest", "idle settle",
    "idle lean", "idle weight shift", "idle look around",
]
VARIANT_WORDS = ["again", "now", "today", "my friend", "everyone", "okay"]
NOVEL_PHRASES = [
    "the train leaves at noon", "my cat sleeps all day", "we bought new chairs",
    "the printer is out of paper", "it might rain later", "send me the file",
    "the meeting moved to friday", "turn left at the bakery",
    "the soup needs more salt", "our bus was late", "駅は遠いです",
    "明日は雨です", "電車が遅れた", "会議は金曜日です",
]
EMOTIONAL_PHRASES = [
    "i was so worried about it", "that was hilarious", "we laughed a lot",
    "i am proud of you", "it was boring", "i miss my home",
    "thank you so much", "i am tired", "that is disgusting",
    "心配です", "怖かった", "ありがとう", "疲れました",
]
SIGNATURES = {
    "circleEyes": "wow that was amazing and such a shock",
    "angleEyes": "i am furious and i hate this",
    None: "i feel calm and grateful",
}

TAGS = ["smile", "frown", "blush", "sweat", "sweat_drop", "sweatdrop", "shock",
        "shock_lines", "sparkle", "Smile"]
EYE_STATES = ["open", "half", "closed", "circle", "angle"]
MOUTHS = ["open", "closed", "smile", "frown", "pucker"]
BROWS = ["neutral", "raised", "furrowed"]
OVERLAY_SETS = [[], ["none"], ["sweat"], ["blush"], ["shock"],
                ["sweat", "blush"], ["blush", "shock"], ["sweat", "blush", "shock"]]
MALFORMED_KINDS = [
    "bad_json", "not_object", "missing_image_id", "unknown_eye_state",
    "short_landmarks", "degenerate_bbox", "confidence_out_of_range",
    "unknown_question",
]

FACE_CHANNEL_NAMES = [c for c in check.CHANNELS if c not in check.EXAGGERATION]


# --------------------------------------------------------------- skeleton

def _tree():
    def arm(side, s):
        fingers = []
        for k, finger in enumerate(("Thumb", "Index", "Middle", "Ring", "Pinky")):
            chain = None
            for seg in (3, 2, 1):
                chain = (f"{side}Hand{finger}{seg}", (s * 2.5, 0.0, 0.0),
                         [chain] if chain else [])
            first = (chain[0], (s * 3.0, 0.0, 2.0 - k), chain[2])
            fingers.append(first)
        hand = (f"{side}Hand", (s * 13.0, 0.0, 0.0), fingers)
        roll = (f"{side}ForeArmRoll", (s * 13.0, 0.0, 0.0), [hand])
        fore = (f"{side}ForeArm", (s * 26.0, 0.0, 0.0), [roll])
        upper = (f"{side}Arm", (s * 12.0, 0.0, 0.0), [fore])
        return (f"{side}Shoulder", (s * 4.0, 6.0, 0.0), [upper])

    def leg(side, s):
        toe = (f"{side}ToeBase", (0.0, -6.0, 12.0), [])
        foot = (f"{side}Foot", (0.0, -40.0, 0.0), [toe])
        lower = (f"{side}Leg", (0.0, -42.0, 0.0), [foot])
        return (f"{side}UpLeg", (s * 9.0, -4.0, 0.0), [lower])

    head = ("Head", (0.0, 6.0, 0.0), [
        ("HeadTop", (0.0, 12.0, 0.0), []),
        ("Jaw", (0.0, -2.0, 4.0), []),
        ("LeftEye", (3.0, 4.0, 6.0), []),
        ("RightEye", (-3.0, 4.0, 6.0), []),
    ])
    neck = ("Neck", (0.0, 8.0, 0.0), [("Neck1", (0.0, 4.0, 0.0), [head])])
    spine3 = ("Spine3", (0.0, 8.0, 0.0), [neck, arm("Left", 1.0), arm("Right", -1.0)])
    spine = ("Spine", (0.0, 10.0, 0.0), [
        ("Spine1", (0.0, 10.0, 0.0), [("Spine2", (0.0, 10.0, 0.0), [spine3])])])
    return ("Hips", tuple(REST_ROOT), [spine, leg("Left", 1.0), leg("Right", -1.0)])


def skeleton_joints() -> list[str]:
    """Joint names in BVH (depth-first) order; 60 joints."""
    names = []

    def walk(node):
        names.append(node[0])
        for child in node[2]:
            walk(child)

    walk(_tree())
    return names


def _hierarchy_text() -> str:
    lines = ["HIERARCHY"]

    def walk(node, depth):
        name, offset, children = node
        ind = "\t" * depth
        inner = ind + "\t"
        lines.append(f"{ind}{'ROOT' if depth == 0 else 'JOINT'} {name}")
        lines.append(f"{ind}{{")
        lines.append(f"{inner}OFFSET {offset[0]:.6f} {offset[1]:.6f} {offset[2]:.6f}")
        if depth == 0:
            lines.append(f"{inner}CHANNELS 6 Xposition Yposition Zposition "
                         "Zrotation Xrotation Yrotation")
        else:
            lines.append(f"{inner}CHANNELS 3 Zrotation Xrotation Yrotation")
        for child in children:
            walk(child, depth + 1)
        if not children:
            lines.extend([f"{inner}End Site", f"{inner}{{",
                          f"{inner}\tOFFSET 0.000000 2.000000 0.000000", f"{inner}}}"])
        lines.append(f"{ind}}}")

    walk(_tree(), 0)
    return "\n".join(lines) + "\n"


def _envelope(t: np.ndarray, duration: float) -> np.ndarray:
    up = np.clip((t - REST_LEAD_S) / EASE_S, 0.0, 1.0)
    down = np.clip((duration - REST_LEAD_S - t) / EASE_S, 0.0, 1.0)
    w = np.minimum(up, down)
    return w * w * (3.0 - 2.0 * w)


def clip_text(nrng: np.random.Generator, duration_s: float, amp_deg: float,
              n_joints: int, header: str) -> str:
    """A BVH clip: sinusoidal ZXY Euler motion, exact rest pose at both ends."""
    frames = int(round(duration_s * FPS)) + 1
    t = np.arange(frames) / FPS
    env = _envelope(t, duration_s)
    amps = nrng.uniform(0.2 * amp_deg, amp_deg, size=(n_joints, 3))
    freqs = nrng.uniform(0.4, 1.2, size=(n_joints, 3))
    phases = nrng.uniform(0.0, 2.0 * np.pi, size=(n_joints, 3))
    angles = amps * np.sin(2.0 * np.pi * freqs * t[:, None, None] + phases)
    angles *= env[:, None, None]
    sway = nrng.uniform(0.5, 2.0, size=3)
    sway_f = nrng.uniform(0.3, 0.8, size=3)
    sway_p = nrng.uniform(0.0, 2.0 * np.pi, size=3)
    root = REST_ROOT + sway * np.sin(2.0 * np.pi * sway_f * t[:, None] + sway_p) * env[:, None]
    table = np.hstack([root, angles.reshape(frames, -1)])
    table = np.round(table, 6) + 0.0
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.6f", delimiter=" ")
    return (header + f"MOTION\nFrames: {frames}\nFrame Time: {FRAME_TIME}\n"
            + buf.getvalue())


# ---------------------------------------------------------------- helpers

def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join([workload, str(seed), *map(str, parts)]))


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n",
                    encoding="utf-8")


def _emotionless(phrases, lexicon, categories):
    return [p for p in phrases
            if check.lexicon_emotions(p, lexicon, categories) == check.NO_HIT]


def _assemble(phrases: list[str], rng: random.Random) -> tuple[str, list[str]]:
    """Join phrases into dialogue text; returns the text and the phrases
    the segmenter should find (ASCII marks stay attached, CJK marks do not)."""
    parts, expected = [], []
    for phrase in phrases:
        if phrase.isascii():
            mark = rng.choice([".", "!", "?", ","])
            parts.append(phrase + mark + " ")
            expected.append(phrase + mark)
        else:
            parts.append(phrase + rng.choice(["。", "、", "！"]))
            expected.append(phrase)
    return "".join(parts).strip(), expected


def _phoneme_events(rng: random.Random, duration_s: float) -> list[dict]:
    events, t = [], 0.0
    names = ["a", "i", "u", "e", "o", "MBP", "FV", "L", "k", "sil"]
    while True:
        t = round(t + (rng.uniform(0.0, 0.05) if rng.random() < 0.3 else 0.0), 4)
        end = round(t + rng.uniform(0.06, 0.18), 4)
        if end > duration_s - 0.05:
            return events
        events.append({"ph": rng.choice(names), "start": t, "end": end})
        t = end


def _jittered(bases, rng: random.Random, spread: float) -> list[float]:
    """Antisymmetric jitter in 0.1 s steps: the sum and the middle stay put.
    The outer pair only moves inward, so the range never widens."""
    out = list(bases)
    n = len(out)
    steps = int(spread * 10)
    for k in range(n // 2):
        j = rng.randint(0 if k == 0 else -steps, steps) / 10.0
        out[k] = round(out[k] + j, 1)
        out[n - 1 - k] = round(out[n - 1 - k] - j, 1)
    return out


# ---------------------------------------------------------- gesture library

def _library_phrases(rng: random.Random, n_clips: int, n_neutral: int):
    """Distinct (phrase, category) pairs covering all seven categories; the
    large library adds variants of the English phrases."""
    bases = [(p, c) for c, ps in GESTURE_PHRASES.items() for p in ps]
    n_scored = n_clips - n_neutral
    if n_scored >= len(bases):
        chosen = list(bases)
        english = [b for b in bases if b[0].isascii()]
        while len(chosen) < n_scored:
            p, c = rng.choice(english)
            variant = (f"{p} {rng.choice(VARIANT_WORDS)}", c)
            if variant not in chosen:
                chosen.append(variant)
    else:
        chosen = [rng.choice([(p, c) for p in ps]) for c, ps in GESTURE_PHRASES.items()]
        chosen += rng.sample([b for b in bases if b not in chosen], n_scored - len(chosen))
    return chosen + [(p, "neutral") for p in NEUTRAL_PHRASES[:n_neutral]]


def write_gesture_library(root: Path, rng: random.Random, n_clips: int,
                          n_neutral: int) -> dict:
    gdir = root / "gestures"
    (gdir / "clips").mkdir(parents=True, exist_ok=True)
    pairs = _library_phrases(rng, n_clips, n_neutral)
    ids = rng.sample(range(1000), len(pairs))
    n_joints = len(skeleton_joints())
    header = _hierarchy_text()
    nrng = np.random.default_rng(rng.getrandbits(64))
    lines, gestures = [], {}
    for k, ((phrase, category), num) in enumerate(zip(pairs, ids)):
        neutral = category == "neutral"
        gid = f"{'n' if neutral else 'g'}{num:03d}"
        duration = CLIP_DURATIONS[k % len(CLIP_DURATIONS)]
        amp = 5.0 if neutral else 12.0 + 13.0 * nrng.random()
        rel = f"clips/{gid}.bvh"
        (gdir / rel).write_text(clip_text(nrng, duration, amp, n_joints, header),
                                encoding="utf-8")
        lines.append(json.dumps({"id": gid, "phrase": phrase, "category": category,
                                 "neutral": neutral, "clip": rel,
                                 "duration_s": duration}, ensure_ascii=False))
        gestures[gid] = {"phrase": phrase, "neutral": neutral}
    (gdir / "gestures.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return gestures


# ------------------------------------------------------- expression dataset

def _emotion_pool(rng: random.Random, lexicon: dict, categories: list[str],
                  extra: int) -> list[dict]:
    """Emotion vectors whose largest value is exactly 1.0, so no two distinct
    vectors point the same way (a cosine tie then means equal vectors)."""
    pool = {}
    for emotions in lexicon.values():
        top = max(emotions.values())
        vec = {k: round(v / top / 0.05) * 0.05 for k, v in emotions.items()}
        pool[json.dumps(vec, sort_keys=True)] = vec
    while len(pool) < len(lexicon) + extra:
        names = rng.sample(categories, rng.randint(1, 8))
        vec = {n: rng.choice([0.25, 0.5, 0.75]) for n in names}
        vec[names[0]] = 1.0
        pool[json.dumps(vec, sort_keys=True)] = vec
    return [pool[k] for k in sorted(pool)]


def _blendshapes(rng: random.Random, overlay: str | None) -> dict:
    shapes = {n: (round(rng.random(), 6) if rng.random() < 0.4 else 0.0)
              for n in FACE_CHANNEL_NAMES}
    for name in ("shockLines", "sweatDrop", "blush"):
        shapes[name] = 1.0 if rng.random() < 0.1 else 0.0
    shapes["circleEyes"] = shapes["angleEyes"] = 0.0
    if overlay is None:
        draw = rng.random()
        overlay = "circleEyes" if draw < 0.08 else "angleEyes" if draw < 0.16 else None
    if overlay is not None:
        shapes[overlay] = 1.0
        for name in check.EYELID_CHANNELS:
            shapes[name] = 0.0
    return shapes


def write_expression_dataset(path: Path, rng: random.Random, n_entries: int,
                             planted: dict | None = None) -> dict:
    """JSONL expression dataset; *planted* maps id -> (emotions, overlay)."""
    lexicon, categories = check.load_lexicon(), check.load_categories()
    pool = _emotion_pool(rng, lexicon, categories, extra=max(60, n_entries // 4))
    rows = [(f"e{k:04d}", rng.choice(pool), None) for k in range(n_entries)]
    rows += [(eid, emo, overlay) for eid, (emo, overlay) in (planted or {}).items()]
    lines, spec = [], {}
    for eid, emotions, overlay in rows:
        shapes = _blendshapes(rng, overlay)
        lines.append(json.dumps({"id": eid, "blendshapes": shapes, "emotions": emotions,
                                 "source": {"image_id": eid, "dialogue": None}},
                                sort_keys=True))
        spec[eid] = {"emotions": emotions,
                     "overlay": shapes["circleEyes"] > 0 or shapes["angleEyes"] > 0}
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return spec


# ------------------------------------------------------ synthesis workloads

def _write_config(root: Path) -> dict:
    config = {"gesture_dataset": "gestures/gestures.jsonl",
              "expression_dataset": "expressions.jsonl",
              "provider_mode": "offline"}
    _write_json(root / "config.json", config)
    return {"config": str(root / "config.json"), "threshold": 0.55,
            "transition_s": 0.4, "blink_mean_gap_s": 4.0, "blink_min_gap_s": 1.0,
            "fps": FPS}


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the per-run inputs of *workload* under *root*; return the spec."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    if workload == "build_expressions":
        return _generate_sources(rng, root)
    spec = {"workload": workload, "seed": seed, "root": str(root),
            "joints": skeleton_joints(), "frame_time": float(FRAME_TIME)}
    spec.update(_write_config(root))
    large = workload == "short_turns"
    spec["gestures"] = write_gesture_library(
        root, rng,
        LARGE_LIBRARY_CLIPS if large else SMALL_LIBRARY_CLIPS,
        LARGE_LIBRARY_NEUTRAL if large else SMALL_LIBRARY_NEUTRAL)
    planted = {}
    if not large:
        lexicon, categories = check.load_lexicon(), check.load_categories()
        for overlay, sentence in SIGNATURES.items():
            emotions = check.lexicon_emotions(sentence, lexicon, categories)
            planted[f"a_{overlay or 'plain'}"] = (emotions, overlay)
    spec["expressions"] = write_expression_dataset(
        root / "expressions.jsonl", rng,
        LARGE_EXPRESSIONS if large else SMALL_EXPRESSIONS, planted)
    return spec


def round_requests(spec: dict, r: int) -> list[dict]:
    """The requests of round *r*; writes their phoneme files."""
    workload, root = spec["workload"], Path(spec["root"])
    rng = _rng(workload, spec["seed"], "round", r)
    hits = [g["phrase"] for g in spec["gestures"].values() if not g["neutral"]]
    lexicon, categories = check.load_lexicon(), check.load_categories()
    if workload == "short_turns":
        durations = _jittered(TURN_BASE_S, rng, 0.4)
        counts, with_ph = TURN_PHRASES, TURN_PHONEMES
    else:
        durations = _jittered(MONOLOGUE_BASE_S, rng, 10.0)
        counts = [round(d * MONOLOGUE_PHRASES_PER_S) for d in durations]
        with_ph = MONOLOGUE_PHONEMES
        hits = _emotionless(hits, lexicon, categories)
        novel = _emotionless(NOVEL_PHRASES, lexicon, categories)
    requests = []
    for k, (duration, count, ph) in enumerate(zip(durations, counts, with_ph)):
        phrases = []
        for _ in range(count - (0 if workload == "short_turns" else 1)):
            draw = rng.random()
            if draw < 0.5:
                phrases.append(rng.choice(hits))
            elif draw < 0.75:
                word = rng.choice(VARIANT_WORDS)
                # The segmenter re-chunks phrases over 40 characters.
                base = rng.choice([h for h in hits if h.isascii()
                                   and len(h) + len(word) + 2 <= MAX_PHRASE_CHARS])
                phrases.append(f"{base} {word}")
            elif workload == "short_turns":
                phrases.append(rng.choice(NOVEL_PHRASES + EMOTIONAL_PHRASES))
            else:
                phrases.append(rng.choice(novel))
        if workload == "long_monologue":
            phrases.insert(rng.randrange(len(phrases) + 1),
                           SIGNATURES[MONOLOGUE_OVERLAY[k]])
        text, expected = _assemble(phrases, rng)
        ph_path = None
        if ph:
            ph_path = root / f"round{r:03d}_{k}_phonemes.json"
            _write_json(ph_path, _phoneme_events(rng, duration))
            ph_path = str(ph_path)
        requests.append({"text": text, "duration": duration,
                         "seed": rng.randrange(2**31), "phonemes": ph_path,
                         "phrases": expected})
    return requests


# ------------------------------------------------------- comic source fixtures

def _landmarks(rng: random.Random) -> dict:
    """A perturbed copy of the neutral face used by the package fixtures."""
    pts = [
        [120, 260], [150, 290], [200, 300], [250, 290], [280, 260],
        [135, 150], [155, 143], [175, 146], [225, 146], [245, 143], [265, 150],
        [135, 180], [155, 172], [175, 180], [155, 188],
        [225, 180], [245, 172], [265, 180], [245, 188],
        [195, 195], [200, 205], [205, 215], [195, 220], [205, 220],
        [170, 245], [200, 240], [230, 245], [200, 250],
    ]
    pts = [[float(x), float(y)] for x, y in pts]
    brow = rng.uniform(-8.0, 8.0)
    for i in range(5, 11):
        pts[i][1] += brow
    for top, bottom in ((12, 14), (16, 18)):
        gap = rng.uniform(1.0, 18.0)
        pts[top][1] = 180.0 - gap / 2.0
        pts[bottom][1] = 180.0 + gap / 2.0
    opening = rng.uniform(2.0, 30.0)
    pts[25][1] = 245.0 - opening / 2.0
    pts[27][1] = 245.0 + opening / 2.0
    corner = rng.uniform(-10.0, 10.0)
    pts[24][1] += corner
    pts[26][1] += corner
    pts = [[round(x, 3), round(y, 3)] for x, y in pts]
    return {"points": pts, "bbox": [100, 100, 300, 320]}


def _dialogue(rng: random.Random) -> str | None:
    draw = rng.random()
    if draw < 0.1:
        return None
    pool = EMOTIONAL_PHRASES + NOVEL_PHRASES + [p for ps in GESTURE_PHRASES.values() for p in ps]
    return " ".join(rng.sample(pool, rng.randint(1, 3)))


def _source(rng: random.Random, k: int, image_id: str) -> dict:
    tags = [{"tag": rng.choice(TAGS), "confidence": round(rng.uniform(0.1, 1.0), 3)}
            for _ in range(rng.randint(0, 3))]
    answers = {}
    # Each question is left unanswered a quarter of the time; over 1,000
    # fixtures the seeded offsets reach every option of every question.
    for key, options in (("eye_state", EYE_STATES), ("mouth", MOUTHS),
                         ("brow", BROWS), ("overlays", OVERLAY_SETS)):
        if k % 4 != rng.randrange(4):
            answers[key] = options[(k + rng.randrange(len(options))) % len(options)]
    return {"image_id": image_id, "dialogue": _dialogue(rng), "tags": tags,
            "landmarks": _landmarks(rng), "answers": answers}


def _malformed(kind: str, src: dict) -> str | dict:
    if kind == "bad_json":
        return json.dumps(src)[:-7]
    if kind == "not_object":
        return [src]
    if kind == "missing_image_id":
        del src["image_id"]
    elif kind == "unknown_eye_state":
        src["answers"]["eye_state"] = "sideways"
    elif kind == "short_landmarks":
        src["landmarks"]["points"] = src["landmarks"]["points"][:27]
    elif kind == "degenerate_bbox":
        src["landmarks"]["bbox"] = [100, 100, 100, 320]
    elif kind == "confidence_out_of_range":
        src["tags"].append({"tag": "smile", "confidence": 1.5})
    elif kind == "unknown_question":
        src["answers"]["hair"] = "long"
    return src


def _generate_sources(rng: random.Random, root: Path) -> dict:
    sdir = root / "sources"
    sdir.mkdir(parents=True, exist_ok=True)
    bad = dict(zip(sorted(rng.sample(range(SOURCE_FIXTURES), len(MALFORMED_KINDS))),
                   MALFORMED_KINDS))
    nums = rng.sample(range(100000), SOURCE_FIXTURES)
    sources = {}
    for k, num in enumerate(nums):
        name = f"p{num:05d}.json"
        src = _source(rng, k, f"img{num:05d}")
        if k in bad:
            body = _malformed(bad[k], src)
            text = body if isinstance(body, str) else json.dumps(body, ensure_ascii=False)
            (sdir / name).write_text(text + "\n", encoding="utf-8")
            continue
        (sdir / name).write_text(json.dumps(src, ensure_ascii=False) + "\n",
                                 encoding="utf-8")
        sources[name] = {"image_id": src["image_id"], "dialogue": src["dialogue"],
                         "answers": src["answers"]}
    return {"workload": "build_expressions", "root": str(root),
            "sources_dir": str(sdir), "sources": sources,
            "malformed": sorted(f"p{nums[k]:05d}.json" for k in bad),
            "images": SOURCE_FIXTURES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("short_turns", "long_monologue", "build_expressions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = generate(args.workload, args.seed, args.out)
    if args.workload != "build_expressions":
        spec["requests"] = round_requests(spec, 0)
    _write_json(args.out / "spec.json", spec)
    print(f"inputs written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
