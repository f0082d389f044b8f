"""Correctness checks made apart from the program.

Every check either recomputes what the program should have produced from
the documented behaviour (hashed n-gram embedding, cosine argmax, lexicon
emotions, the seeded-draw order) or tests a property the method must have
(frame counts, channel ranges, overlay exclusivity). Nothing here imports
the package, and nothing compares against a stored copy of earlier output.
The tolerances are the ones listed in README.md.

Each checker's ``check`` method returns a list of problems; empty means
the operation passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

import numpy as np

# Tolerances (README "Check tolerances").
DECISION_TOL = 1e-9   # argmax membership and threshold decisions
REPORTED_TOL = 1e-6   # values printed with 6 decimals in the outputs

DATA = Path(__file__).resolve().parent.parent / "src" / "toonmotion" / "data"

# Documented reference embedder (text_semantics.py): character 1..3-grams,
# SHA-256 over seed + NUL + UTF-8 gram, bucket from digest bytes 0..3 (big
# endian) mod 256, sign from the parity of byte 4, L2-normalized; an empty
# accumulation maps to the first basis vector.
EMBED_SEED = b"toonmotion-ref-embed-v1"
EMBED_DIM = 256

NO_HIT = {"Calmness": 0.5}
MAX_EMOTIONS = 8

CHANNELS = (
    "browDownL", "browDownR", "browUpL", "browUpR", "eyeBlinkL", "eyeBlinkR",
    "eyeWideL", "eyeWideR", "squintL", "squintR", "lidTightL", "lidTightR",
    "cheekPuff", "noseSneerL", "noseSneerR", "jawOpen", "mouthSmileL",
    "mouthSmileR", "mouthFrownL", "mouthFrownR", "mouthPucker",
    "mouthStretchL", "mouthStretchR", "mouthPressL", "mouthPressR",
    "shockLines", "sweatDrop", "blush", "circleEyes", "angleEyes",
)
EXAGGERATION = ("shockLines", "sweatDrop", "blush", "circleEyes", "angleEyes")
EYELID_CHANNELS = ("eyeBlinkL", "eyeBlinkR", "eyeWideL", "eyeWideR",
                   "lidTightL", "lidTightR")

# The documented questionnaire pose table: an answered question sets its
# whole channel group to exactly these values (zero elsewhere in the group).
ANSWER_GROUPS = {
    "eye_state": EYELID_CHANNELS + ("squintL", "squintR", "circleEyes", "angleEyes"),
    "mouth": ("jawOpen", "mouthSmileL", "mouthSmileR", "mouthFrownL", "mouthFrownR",
              "mouthPucker", "mouthStretchL", "mouthStretchR", "mouthPressL",
              "mouthPressR"),
    "brow": ("browUpL", "browUpR", "browDownL", "browDownR"),
    "overlays": ("sweatDrop", "blush", "shockLines"),
}
ANSWER_POSES = {
    "eye_state": {
        "open": {}, "half": {"eyeBlinkL": 0.5, "eyeBlinkR": 0.5},
        "closed": {"eyeBlinkL": 1.0, "eyeBlinkR": 1.0},
        "circle": {"circleEyes": 1.0}, "angle": {"angleEyes": 1.0},
    },
    "mouth": {
        "open": {"jawOpen": 0.7}, "closed": {},
        "smile": {"mouthSmileL": 0.8, "mouthSmileR": 0.8},
        "frown": {"mouthFrownL": 0.8, "mouthFrownR": 0.8},
        "pucker": {"mouthPucker": 0.8},
    },
    "brow": {
        "neutral": {}, "raised": {"browUpL": 0.7, "browUpR": 0.7},
        "furrowed": {"browDownL": 0.7, "browDownR": 0.7},
    },
}
OVERLAY_TARGETS = {"sweat": "sweatDrop", "blush": "blush", "shock": "shockLines"}

BLINK_TOTAL_S = 0.10 + 0.05 + 0.15

_WORD_RE = re.compile(r"[a-z']+")


# ---------------------------------------------------------------- oracles

def load_lexicon() -> dict:
    return json.loads((DATA / "emotion_lexicon.json").read_text(encoding="utf-8"))


def load_categories() -> list[str]:
    return json.loads((DATA / "emotion_categories.json").read_text(encoding="utf-8"))


def ref_embed(text: str) -> np.ndarray:
    acc = np.zeros(EMBED_DIM)
    data = [text[i:i + n] for n in (1, 2, 3) for i in range(len(text) - n + 1)]
    for gram in data:
        digest = hashlib.sha256(EMBED_SEED + b"\x00" + gram.encode("utf-8")).digest()
        acc[int.from_bytes(digest[:4], "big") % EMBED_DIM] += -1.0 if digest[4] & 1 else 1.0
    norm = math.sqrt(float(acc @ acc))
    if norm == 0.0:
        acc[0] = 1.0
        return acc
    return acc / norm


def lexicon_emotions(text: str, lexicon: dict, categories) -> dict:
    """Documented offline emotion rule: ASCII stems match word tokens by
    prefix, other stems by substring; max per category; no hit gives
    Calmness 0.5; keep known categories, clamp to 1, top 8 by value then name."""
    tokens = _WORD_RE.findall(text.lower())
    found: dict[str, float] = {}
    for stem, emotions in lexicon.items():
        hit = (any(t.startswith(stem) for t in tokens) if stem.isascii()
               else stem in text)
        if hit:
            for name, value in emotions.items():
                found[name] = max(found.get(name, 0.0), value)
    if not found:
        found = dict(NO_HIT)
    known = set(categories)
    kept = {k: min(v, 1.0) for k, v in found.items() if k in known and v > 0.0}
    return dict(sorted(kept.items(), key=lambda kv: (-kv[1], kv[0]))[:MAX_EMOTIONS])


def sparse_cosine(a: dict, b: dict) -> float:
    dot = sum(v * b[k] for k, v in a.items() if k in b)
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    return 0.0 if na == 0.0 or nb == 0.0 else dot / (na * nb)


def blink_replay(rng: random.Random, duration: float, mean_gap: float,
                 min_gap: float, suppressed: list[tuple[float, float]]) -> list[float]:
    """Exponential gaps floored at min_gap, whole blinks only; the full
    schedule is drawn before suppressed blinks are dropped."""
    onsets, t = [], 0.0
    while True:
        onset = t + max(min_gap, rng.expovariate(1.0 / mean_gap))
        if onset + BLINK_TOTAL_S > duration:
            break
        onsets.append(onset)
        t = onset + BLINK_TOTAL_S
    for s0, s1 in suppressed:
        onsets = [o for o in onsets if not (o < s1 and o + BLINK_TOTAL_S > s0)]
    return onsets


def file_digests(paths) -> list[str]:
    return [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]


# ------------------------------------------------------- synthesis bundles

class SynthChecker:
    """Checks synthesize bundles against a generator spec."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.lexicon = load_lexicon()
        self.categories = load_categories()
        gestures = spec["gestures"]
        self.scored_ids = sorted(g for g, e in gestures.items() if not e["neutral"])
        self.neutral_ids = sorted(g for g, e in gestures.items() if e["neutral"])
        self.matrix = np.stack([ref_embed(gestures[g]["phrase"]) for g in self.scored_ids])
        self.row = {g: i for i, g in enumerate(self.scored_ids)}

    def check(self, out_dir: Path, request: dict) -> list[str]:
        problems: list[str] = []
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            face = json.loads((out_dir / "face.json").read_text(encoding="utf-8"))
            body = (out_dir / "body.bvh").read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            return [f"bundle unreadable: {exc}"]
        rng = random.Random(request["seed"])
        for step in (self._phrases, self._gestures, self._expression, self._blinks):
            try:
                problems += step(manifest, request, rng)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems.append(f"{step.__name__}: malformed manifest ({exc!r})")
        try:
            frames = self._body(body, request, problems)
            self._face(face, manifest, frames, problems)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed body or face track ({exc!r})")
        return problems

    def _phrases(self, manifest, request, rng):
        got = [g["query_phrase"] for g in manifest["gestures"]]
        problems = []
        pos = 0
        for phrase in got:
            at = request["text"].find(phrase, pos)
            if at < 0:
                problems.append(f"query phrase {phrase!r} is not in the text in order")
                break
            pos = at + len(phrase)
        if got != request["phrases"]:
            problems.append(f"phrases {got} != expected {request['phrases']}")
        return problems

    def _gestures(self, manifest, request, rng):
        thr = self.spec["threshold"]
        problems = []
        for g in manifest["gestures"]:
            sims = self.matrix @ ref_embed(g["query_phrase"])
            best = float(np.max(sims))
            eid, fallback = g["entry_id"], g["fallback"]
            if abs(g["similarity"] - best) > REPORTED_TOL:
                problems.append(f"{eid}: similarity {g['similarity']} != best {best:.6f}")
            if fallback != (best < thr):
                if abs(best - thr) > DECISION_TOL:
                    problems.append(f"{eid}: fallback={fallback} but best {best:.9f}")
            if fallback:
                if eid not in self.neutral_ids:
                    problems.append(f"fallback entry {eid} is not neutral")
                drawn = self.neutral_ids[rng.randrange(len(self.neutral_ids))]
                if eid != drawn:
                    problems.append(f"neutral draw gave {eid}, replay gives {drawn}")
                continue
            if eid not in self.row:
                problems.append(f"match {eid} is not a scored library entry")
                continue
            if sims[self.row[eid]] < best - DECISION_TOL:
                problems.append(f"{eid} is not the cosine argmax for {g['query_phrase']!r}")
        return problems

    def _expression(self, manifest, request, rng):
        problems = []
        query = lexicon_emotions(request["text"], self.lexicon, self.categories)
        got = manifest["dialogue_emotions"]
        if set(got) != set(query) or any(abs(got[k] - query[k]) > REPORTED_TOL for k in query):
            problems.append(f"dialogue emotions {got} != lexicon {query}")
        entries = self.spec["expressions"]
        sims = {eid: sparse_cosine(query, e["emotions"]) for eid, e in entries.items()
                if e["emotions"]}
        best = max(sims.values())
        chosen = manifest["expression"]["entry_id"]
        if chosen not in sims:
            return problems + [f"expression {chosen} is not in the dataset"]
        if sims[chosen] < best - DECISION_TOL:
            problems.append(f"expression {chosen} scores {sims[chosen]:.9f} < best {best:.9f}")
        if abs(manifest["expression"]["similarity"] - sims[chosen]) > REPORTED_TOL:
            problems.append("expression similarity misreported")
        twins = sorted(e for e in entries if entries[e]["emotions"] == entries[chosen]["emotions"])
        if chosen != twins[0]:
            problems.append(f"expression tie should go to {twins[0]}, got {chosen}")
        return problems

    def _blinks(self, manifest, request, rng):
        spec = self.spec
        entry = spec["expressions"].get(manifest["expression"]["entry_id"], {})
        suppressed = ([(spec["transition_s"] / 2.0, request["duration"])]
                      if entry.get("overlay") else [])
        want = blink_replay(rng, request["duration"], spec["blink_mean_gap_s"],
                            spec["blink_min_gap_s"], suppressed)
        got = manifest["blink_onsets"]
        if len(got) != len(want) or any(abs(a - b) > REPORTED_TOL for a, b in zip(got, want)):
            return [f"blink onsets {got[:4]}... != replay {[round(w, 6) for w in want[:4]]}..."]
        return []

    def _body(self, body: str, request: dict, problems: list[str]) -> int:
        head, sep, motion = body.partition("\nMOTION\n")
        if not sep:
            problems.append("body.bvh has no MOTION section")
            return -1
        tokens = head.split()
        joints = [tokens[i + 1] for i, t in enumerate(tokens) if t in ("ROOT", "JOINT")]
        if joints != self.spec["joints"]:
            problems.append("body.bvh joint names or order differ from the library skeleton")
        lines = motion.split("\n")
        declared = int(lines[0].split(":")[1])
        frame_time = float(lines[1].split(":")[1])
        if abs(frame_time - self.spec["frame_time"]) > 1e-8:
            problems.append(f"frame time {frame_time} != {self.spec['frame_time']}")
        expected = int(round(request["duration"] * (1.0 / self.spec["frame_time"]))) + 1
        if declared != expected:
            problems.append(f"Frames: {declared}, expected {expected}")
        rows = [r for r in lines[2:] if r]
        if len(rows) != declared:
            problems.append(f"{len(rows)} motion rows for Frames: {declared}")
        width = 3 + 3 * len(self.spec["joints"])
        for start in range(0, len(rows), 512):
            chunk = rows[start:start + 512]
            if any(r.count(" ") != width - 1 for r in chunk):
                problems.append(f"a motion row near frame {start} lacks {width} values")
                break
            values = np.array(" ".join(chunk).split(), dtype=np.float64)
            if values.size != width * len(chunk) or not np.all(np.isfinite(values)):
                problems.append(f"non-finite or missing motion values near frame {start}")
                break
        return len(rows)

    def _face(self, face: dict, manifest: dict, body_frames: int, problems: list[str]):
        if face["fps"] != self.spec["fps"]:
            problems.append(f"face fps {face['fps']} != {self.spec['fps']}")
        if sorted(face["channels"]) != sorted(CHANNELS):
            problems.append("face channels differ from the 30 documented channels")
            return
        frames = np.array(face["frames"], dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != len(CHANNELS):
            problems.append(f"face frames have shape {frames.shape}")
            return
        if frames.shape[0] != body_frames:
            problems.append(f"face has {frames.shape[0]} frames, body {body_frames}")
        if manifest["body_frames"] != body_frames or manifest["face_frames"] != frames.shape[0]:
            problems.append("manifest frame counts disagree with the files")
        if not (np.all(np.isfinite(frames)) and frames.min() >= 0.0 and frames.max() <= 1.0):
            problems.append("a face channel leaves [0, 1]")
        col = {name: i for i, name in enumerate(face["channels"])}
        overlay = (frames[:, col["circleEyes"]] > 0) | (frames[:, col["angleEyes"]] > 0)
        lids = frames[overlay][:, [col[c] for c in EYELID_CHANNELS]]
        if lids.size and np.any(lids != 0.0):
            problems.append("an eyelid channel is open under overlay eyes")
        if face["provenance"]["blink_onsets"] != manifest["blink_onsets"]:
            problems.append("face and manifest blink onsets differ")


# ------------------------------------------------------ expression dataset

class BuildChecker:
    """Checks build_dataset output and report against the source spec."""

    def __init__(self, spec: dict):
        self.spec = spec
        lexicon, categories = load_lexicon(), load_categories()
        self.known = set(categories)
        # Every operation builds the same sources, so the expected emotions
        # and answered channel groups are worked out once.
        self.expected = {}
        for source in spec["sources"].values():
            groups = {}
            for question, answer in source["answers"].items():
                if question == "overlays":
                    pose = {OVERLAY_TARGETS[o]: 1.0 for o in answer if o != "none"}
                else:
                    pose = ANSWER_POSES[question][answer]
                groups[question] = {c: pose.get(c, 0.0) for c in ANSWER_GROUPS[question]}
            self.expected[source["image_id"]] = {
                "emotions": lexicon_emotions(source["dialogue"] or "", lexicon, categories),
                "source": {"image_id": source["image_id"], "dialogue": source["dialogue"]},
                "groups": groups,
            }

    def check(self, out_path: Path, report_path: Path) -> list[str]:
        try:
            records = [json.loads(line) for line in
                       out_path.read_text(encoding="utf-8").splitlines() if line]
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"output unreadable: {exc}"]
        try:
            return self._check(records, report)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            return [f"malformed output ({exc!r})"]

    def _check(self, records: list[dict], report: dict) -> list[str]:
        problems = []
        ids = [r["id"] for r in records]
        if ids != sorted(set(ids)):
            problems.append("record ids are not sorted and unique")
        if set(ids) != set(self.expected):
            problems.append(f"{len(ids)} records for {len(self.expected)} valid sources")
        for rec in records:
            problems += self._record(rec, self.expected.get(rec["id"]))
            if len(problems) > 20:
                break
        rejects = sorted(r["file"] for r in report["rejects"])
        if rejects != self.spec["malformed"]:
            problems.append(f"rejects {rejects} != planted {self.spec['malformed']}")
        if report["total"] != len(records):
            problems.append(f"report total {report['total']} != {len(records)} records")
        counts = {n: sum(1 for r in records if r["blendshapes"][n] > 0) for n in EXAGGERATION}
        if report["exaggeration_counts"] != counts:
            problems.append("exaggeration counts do not match the records")
        with_any = sum(1 for r in records if any(r["blendshapes"][n] > 0 for n in EXAGGERATION))
        share = with_any / len(records) if records else 0.0
        if abs(report["exaggeration_share"] - share) > REPORTED_TOL:
            problems.append(f"exaggeration_share {report['exaggeration_share']} != {share:.6f}")
        return problems

    def _record(self, rec: dict, expected: dict | None) -> list[str]:
        rid, shapes, emotions = rec["id"], rec["blendshapes"], rec["emotions"]
        problems = []
        if sorted(shapes) != sorted(CHANNELS):
            return [f"{rid}: channels differ from the 30 documented channels"]
        if any(not 0.0 <= v <= 1.0 for v in shapes.values()):
            problems.append(f"{rid}: a channel leaves [0, 1]")
        if (shapes["circleEyes"] > 0 or shapes["angleEyes"] > 0) and any(
                shapes[c] != 0.0 for c in EYELID_CHANNELS):
            problems.append(f"{rid}: eyelids open under overlay eyes")
        if not 1 <= len(emotions) <= MAX_EMOTIONS:
            problems.append(f"{rid}: {len(emotions)} emotions")
        if any(not 0.0 < v <= 1.0 or k not in self.known for k, v in emotions.items()):
            problems.append(f"{rid}: emotion outside (0, 1] or the category list")
        if expected is None:
            return problems + [f"{rid}: no such source"]
        want = expected["emotions"]
        if set(emotions) != set(want) or any(abs(emotions[k] - want[k]) > REPORTED_TOL
                                             for k in want):
            problems.append(f"{rid}: emotions {emotions} != lexicon {want}")
        if rec["source"] != expected["source"]:
            problems.append(f"{rid}: source provenance differs")
        for question, group in expected["groups"].items():
            got = {c: shapes[c] for c in group}
            if got != group:
                problems.append(f"{rid}: answered {question} gives {got}, table says {group}")
        return problems
