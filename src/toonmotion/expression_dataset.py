"""Expression dataset construction for comic-style faces.

Each source image contributes three inference fixtures (expression tags with
confidences, 28 facial landmarks, multiple-choice answers). fuse_sources
turns them into blendshape weights with a strict three-pass precedence:
landmark geometry first, tag rules second, answers override whole channel
categories last. annotate_emotion attaches an emotion vector from a
provider, and build_dataset runs the whole batch into a sorted JSONL file
plus a summary report.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Collection, Iterator

import numpy as np

from .errors import (
    EmptyDataset,
    EmptyEmotionResponse,
    InvalidLandmarks,
    MalformedEntry,
    ProviderError,
    ToonmotionError,
    UnknownOption,
)
from .jsonutil import atomic_write_text, canonical_json, iter_jsonl, json_value, read_json

log = logging.getLogger(__name__)

FACE_CHANNELS = (
    "browDownL",
    "browDownR",
    "browUpL",
    "browUpR",
    "eyeBlinkL",
    "eyeBlinkR",
    "eyeWideL",
    "eyeWideR",
    "squintL",
    "squintR",
    "lidTightL",
    "lidTightR",
    "cheekPuff",
    "noseSneerL",
    "noseSneerR",
    "jawOpen",
    "mouthSmileL",
    "mouthSmileR",
    "mouthFrownL",
    "mouthFrownR",
    "mouthPucker",
    "mouthStretchL",
    "mouthStretchR",
    "mouthPressL",
    "mouthPressR",
)

EXAGGERATION_CHANNELS = ("shockLines", "sweatDrop", "blush", "circleEyes", "angleEyes")

CHANNEL_REGISTRY = FACE_CHANNELS + EXAGGERATION_CHANNELS

# Channels zeroed whenever a circle/angle eye overlay is active.
EYELID_CHANNELS = ("eyeBlinkL", "eyeBlinkR", "eyeWideL", "eyeWideR",
                   "lidTightL", "lidTightR")

MOUTH_CHANNELS = (
    "jawOpen",
    "mouthSmileL",
    "mouthSmileR",
    "mouthFrownL",
    "mouthFrownR",
    "mouthPucker",
    "mouthStretchL",
    "mouthStretchR",
    "mouthPressL",
    "mouthPressR",
)

# The comic questionnaire: question -> (the channel group an answer sets,
# {option: pose}). An answer zeroes its whole group, then applies its pose.
# `overlays` takes a list of options whose poses combine.
QUESTIONS = {
    "eye_state": (EYELID_CHANNELS + ("squintL", "squintR", "circleEyes", "angleEyes"), {
        "open": {}, "half": {"eyeBlinkL": 0.5, "eyeBlinkR": 0.5},
        "closed": {"eyeBlinkL": 1.0, "eyeBlinkR": 1.0},
        "circle": {"circleEyes": 1.0}, "angle": {"angleEyes": 1.0},
    }),
    "mouth": (MOUTH_CHANNELS, {
        "open": {"jawOpen": 0.7}, "closed": {},
        "smile": {"mouthSmileL": 0.8, "mouthSmileR": 0.8},
        "frown": {"mouthFrownL": 0.8, "mouthFrownR": 0.8},
        "pucker": {"mouthPucker": 0.8},
    }),
    "brow": (("browUpL", "browUpR", "browDownL", "browDownR"), {
        "neutral": {}, "raised": {"browUpL": 0.7, "browUpR": 0.7},
        "furrowed": {"browDownL": 0.7, "browDownR": 0.7},
    }),
    "overlays": (("sweatDrop", "blush", "shockLines"), {
        "none": {}, "sweat": {"sweatDrop": 1.0}, "blush": {"blush": 1.0},
        "shock": {"shockLines": 1.0},
    }),
}

MAX_EMOTIONS_PER_ENTRY = 8

# 28-point landmark layout (image coordinates, y grows downward):
#   0-4   face contour
#   5-7   left brow          8-10  right brow
#   11-14 left eye (outer, top, inner, bottom)
#   15-18 right eye (outer, top, inner, bottom)
#   19-23 nose
#   24-27 mouth (left corner, top, right corner, bottom)
LANDMARK_COUNT = 28

_BROWS = {"L": slice(5, 8), "R": slice(8, 11)}
_EYES = {"L": slice(11, 15), "R": slice(15, 19)}
_MOUTH_LEFT, _MOUTH_TOP, _MOUTH_RIGHT, _MOUTH_BOTTOM = 24, 25, 26, 27

BBOX_SLACK = 0.2

# Normalization constants of the landmark geometry pass, and the confidence
# below which tags are ignored.
EYE_GAP_SCALE = 0.4
MOUTH_GAP_SCALE = 0.8
CORNER_SLOPE_GAIN = 3.0
BROW_GAIN = 2.0
BROW_NEUTRAL_RATIO = 0.5
TAG_CONFIDENCE_FLOOR = 0.35


@dataclass(frozen=True)
class Tag:
    tag: str
    confidence: float


@dataclass
class LandmarkSet:
    points: np.ndarray
    bbox: tuple[float, float, float, float]

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.shape != (LANDMARK_COUNT, 2):
            raise InvalidLandmarks(
                f"expected {LANDMARK_COUNT} 2D points, got shape {self.points.shape}"
            )
        x0, y0, x1, y1 = self.bbox
        if not (x1 > x0 and y1 > y0):
            raise InvalidLandmarks(f"degenerate bounding box {self.bbox}")
        sx = (x1 - x0) * BBOX_SLACK
        sy = (y1 - y0) * BBOX_SLACK
        inside = (
            (self.points[:, 0] >= x0 - sx)
            & (self.points[:, 0] <= x1 + sx)
            & (self.points[:, 1] >= y0 - sy)
            & (self.points[:, 1] <= y1 + sy)
        )
        if not np.all(inside):
            bad = int(np.flatnonzero(~inside)[0])
            raise InvalidLandmarks(f"landmark {bad} outside expanded bounding box")
        # The measurements fuse_sources reads, computed once. Coordinates near
        # the float limit overflow them to inf, which fuse_sources would turn
        # into NaN weights: such a set is rejected below, so numpy's overflow
        # warning is silenced here.
        self.ys = ys = self.points[:, 1].tolist()
        self.eye_width, self.eye_gap, self.eye_center_y, self.brow_y = {}, {}, {}, {}
        with np.errstate(over="ignore"):
            for side, eye in _EYES.items():
                outer, top, inner, bottom = range(eye.start, eye.stop)
                self.eye_width[side] = _width(self.points[outer], self.points[inner])
                self.eye_gap[side] = abs(ys[bottom] - ys[top])
                self.eye_center_y[side] = _mean(ys[eye])
                self.brow_y[side] = _mean(ys[_BROWS[side]])
            self.mouth_width = _width(self.points[_MOUTH_LEFT], self.points[_MOUTH_RIGHT])
        self.mouth_gap = abs(ys[_MOUTH_BOTTOM] - ys[_MOUTH_TOP])
        self.mouth_center_y = (ys[_MOUTH_TOP] + ys[_MOUTH_BOTTOM]) / 2.0
        for side, name in (("L", "left"), ("R", "right")):
            if self.eye_width[side] <= 0:
                raise InvalidLandmarks(f"degenerate {name} eye width")
        if self.mouth_width <= 0:
            raise InvalidLandmarks("degenerate mouth width")
        measures = [self.mouth_width, self.mouth_gap, self.mouth_center_y,
                    *self.eye_width.values(), *self.eye_gap.values(),
                    *self.eye_center_y.values(), *self.brow_y.values()]
        if not all(map(math.isfinite, measures)):
            raise InvalidLandmarks("landmark geometry overflows")


def _width(a: np.ndarray, b: np.ndarray) -> float:
    # Keep the 1-D np.linalg.norm, sqrt of a dot product that may use FMA:
    # math.hypot or sqrt(dx*dx + dy*dy) can differ from it in the last bit.
    return float(np.linalg.norm(a - b))


def _mean(values: list[float]) -> float:
    """np.mean of a short row, bit for bit: summed left to right from 0.0.
    (sum() is not used: from Python 3.12 it compensates rounding.)"""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def answer_poses(answers) -> dict[str, dict[str, float]]:
    """Check a source's raw ``answers`` object against :data:`QUESTIONS` and
    return ``{question: pose}`` for the answered questions, in table order.
    A null single-choice answer is unanswered; ``overlays`` must be a list
    whose poses combine, and ``none`` in it must stand alone."""
    if not isinstance(answers, dict):
        raise MalformedEntry("answers must be an object", field="answers")
    unknown = answers.keys() - QUESTIONS.keys()
    if unknown:
        raise UnknownOption(f"unknown question id {sorted(unknown)[0]!r}")
    poses = {}
    for question, (_, options) in QUESTIONS.items():
        chosen = answers.get(question)
        if question != "overlays":
            if chosen is None:
                continue
            chosen = [chosen]
        elif question not in answers:
            continue
        elif not isinstance(chosen, list):
            raise MalformedEntry("overlays must be a JSON array", field="answers")
        for option in chosen:
            if not isinstance(option, str) or option not in options:
                raise UnknownOption(f"{question} option {option!r}")
        if "none" in chosen and len(chosen) > 1:
            raise UnknownOption("'none' cannot combine with other overlays")
        poses[question] = {name: w for option in chosen
                           for name, w in options[option].items()}
    return poses


@dataclass
class ExpressionEntry:
    id: str
    blendshapes: dict[str, float]
    emotions: dict[str, float]
    source: dict

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "blendshapes": self.blendshapes,
            "emotions": self.emotions,
            "source": self.source,
        }


_TAG_EXAGGERATIONS = {
    "blush": "blush",
    "sweat": "sweatDrop",
    "sweat_drop": "sweatDrop",
    "sweatdrop": "sweatDrop",
    "shock": "shockLines",
    "shock_lines": "shockLines",
}


def _clamp01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def empty_blendshapes() -> dict[str, float]:
    return {name: 0.0 for name in CHANNEL_REGISTRY}


def fuse_sources(
    tags: list[Tag],
    landmarks: LandmarkSet,
    answers: dict[str, dict[str, float]],
) -> dict[str, float]:
    """Fuse the three inference sources into one blendshape map.

    Pass 1 reads geometry off the landmarks, pass 2 applies tag rules above
    the confidence floor, pass 3 sets the channel group of each answered
    question (the poses :func:`answer_poses` returns) to its pose.
    Precedence is absolute within each overridden group.
    """
    shapes = empty_blendshapes()

    for side in ("L", "R"):
        shapes[f"eyeBlink{side}"] = _clamp01(
            1.0 - landmarks.eye_gap[side] / (EYE_GAP_SCALE * landmarks.eye_width[side])
        )

    mouth_width = landmarks.mouth_width
    shapes["jawOpen"] = _clamp01(landmarks.mouth_gap / (MOUTH_GAP_SCALE * mouth_width))

    for side, corner in (("L", _MOUTH_LEFT), ("R", _MOUTH_RIGHT)):
        # Image y grows downward, so a corner above center means a smile.
        lift = (landmarks.mouth_center_y - landmarks.ys[corner]) / mouth_width
        if lift >= 0:
            shapes[f"mouthSmile{side}"] = _clamp01(CORNER_SLOPE_GAIN * lift)
        else:
            shapes[f"mouthFrown{side}"] = _clamp01(-CORNER_SLOPE_GAIN * lift)

    for side in ("L", "R"):
        ratio = ((landmarks.eye_center_y[side] - landmarks.brow_y[side])
                 / landmarks.eye_width[side])
        delta = ratio - BROW_NEUTRAL_RATIO
        if delta >= 0:
            shapes[f"browUp{side}"] = _clamp01(BROW_GAIN * delta)
        else:
            shapes[f"browDown{side}"] = _clamp01(-BROW_GAIN * delta)

    for tag in tags:
        if tag.confidence < TAG_CONFIDENCE_FLOOR:
            continue
        name = tag.tag
        if name in _TAG_EXAGGERATIONS:
            shapes[_TAG_EXAGGERATIONS[name]] = _clamp01(tag.confidence)
        elif name == "smile":
            shapes["mouthSmileL"] = max(shapes["mouthSmileL"], _clamp01(tag.confidence))
            shapes["mouthSmileR"] = max(shapes["mouthSmileR"], _clamp01(tag.confidence))
        elif name == "frown":
            shapes["mouthFrownL"] = max(shapes["mouthFrownL"], _clamp01(tag.confidence))
            shapes["mouthFrownR"] = max(shapes["mouthFrownR"], _clamp01(tag.confidence))
        else:
            log.info("ignoring unknown expression tag %r", name)

    for question, pose in answers.items():
        for name in QUESTIONS[question][0]:
            shapes[name] = 0.0
        shapes.update(pose)

    repair_exclusivity(shapes)
    return shapes


def has_overlay_eyes(shapes: dict[str, float]) -> bool:
    """Whether circle or angle eyes replace the regular eyelids."""
    return shapes.get("circleEyes", 0.0) > 0.0 or shapes.get("angleEyes", 0.0) > 0.0


def repair_exclusivity(shapes: dict[str, float]):
    """Circle/angle eye overlays replace the regular eyelid channels."""
    if has_overlay_eyes(shapes):
        for name in EYELID_CHANNELS:
            shapes[name] = 0.0


def restrict_emotion_response(
    response: dict[str, float],
    known: Collection[str],
    context: str = "",
) -> dict[str, float]:
    """Keep only known categories with clamped (0,1] intensities, top 8.

    Ranking is by intensity descending with name as tiebreak. Raises
    EmptyEmotionResponse when nothing usable remains.
    """
    kept = {}
    for name, value in response.items():
        if name not in known:
            continue
        value = float(value)
        if value <= 0.0:
            continue
        kept[name] = min(value, 1.0)
    if not kept:
        raise EmptyEmotionResponse(f"no usable emotion categories{context}")
    top = sorted(kept.items(), key=lambda kv: (-kv[1], kv[0]))[:MAX_EMOTIONS_PER_ENTRY]
    return dict(top)


def annotate_emotion(
    entry: ExpressionEntry,
    provider,
    categories: Collection[str],
) -> ExpressionEntry:
    """Attach a provider emotion vector, restricted to *categories*; pass a
    set when annotating many entries."""
    dialogue = entry.source.get("dialogue") or ""
    response = provider.infer(dialogue, image_ref=entry.source.get("image_id"))
    entry.emotions = restrict_emotion_response(
        response, categories, context=f" for entry {entry.id!r}"
    )
    return entry


def _finite_pairs(points: list) -> bool:
    """Whether every item of *points* is a list of two finite JSON reals, in
    one pass. False also covers valid points it does not check (JSON
    integers, a sum that overflows): the caller then checks value by value."""
    total = 0.0
    for point in points:
        if type(point) is not list or len(point) != 2:
            return False
        x, y = point
        if type(x) is not float or type(y) is not float:
            return False
        total += x + y  # stays finite only if every value is finite
    return math.isfinite(total)


def parse_source_fixture(
    raw: dict,
) -> tuple[str, str | None, list[Tag], LandmarkSet, dict[str, dict[str, float]]]:
    """Validate one per-image source JSON document."""
    if not isinstance(raw, dict):
        raise MalformedEntry("source fixture must be a JSON object")
    image_id = raw.get("image_id")
    if not isinstance(image_id, str) or not image_id:
        raise MalformedEntry("missing image_id", field="image_id")
    dialogue = json_value(raw.get("dialogue"), str, "dialogue",
                          partial(MalformedEntry, field="dialogue"), nullable=True)

    bad_tags = partial(MalformedEntry, field="tags")
    tags = []
    for item in json_value(raw.get("tags", []), list, "tags", bad_tags):
        item = json_value(item, dict, "tag item", bad_tags)
        if "tag" not in item or "confidence" not in item:
            raise MalformedEntry("tag items need 'tag' and 'confidence'", field="tags")
        name = json_value(item["tag"], str, "tag", bad_tags)
        conf = json_value(item["confidence"], float, "tag confidence", bad_tags)
        if not 0.0 <= conf <= 1.0:
            raise MalformedEntry(f"tag confidence {conf} out of range", field="tags")
        tags.append(Tag(tag=name.lower(), confidence=conf))

    bad_landmarks = partial(MalformedEntry, field="landmarks")
    lm_raw = json_value(raw.get("landmarks"), dict, "landmarks", bad_landmarks)
    if "points" not in lm_raw or "bbox" not in lm_raw:
        raise MalformedEntry("landmarks need 'points' and 'bbox'", field="landmarks")
    points = json_value(lm_raw["points"], list, "landmark points", bad_landmarks)
    if not _finite_pairs(points):  # else find the first fault, as a reject names it
        for i, point in enumerate(points):
            what = f"landmark point {i}"
            if len(json_value(point, list, what, bad_landmarks)) != 2:
                raise MalformedEntry(f"{what} must be [x, y]", field="landmarks")
            for v in point:
                json_value(v, float, what, bad_landmarks)
    bbox = json_value(lm_raw["bbox"], list, "bbox", bad_landmarks)
    if len(bbox) != 4:
        raise MalformedEntry("bbox must be [x0, y0, x1, y1]", field="landmarks")
    for v in bbox:
        json_value(v, float, "bbox", bad_landmarks)
    landmarks = LandmarkSet(points=points, bbox=tuple(bbox))

    return image_id, dialogue, tags, landmarks, answer_poses(raw.get("answers", {}))


@dataclass
class BuildReport:
    total: int = 0
    rejects: list[dict] = field(default_factory=list)
    exaggeration_counts: dict[str, int] = field(default_factory=dict)
    exaggeration_share: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "rejects": self.rejects,
            "exaggeration_counts": self.exaggeration_counts,
            "exaggeration_share": self.exaggeration_share,
        }


def build_dataset(
    sources_dir: str | Path,
    provider,
    out_path: str | Path | None = None,
    *,
    categories: list[str],
) -> tuple[list[ExpressionEntry], BuildReport]:
    """Fuse and annotate every source fixture in a directory.

    Per-image failures, a `ToonmotionError` or an `OSError` reading the
    fixture, are collected into the report instead of aborting. A
    `ProviderError` (an emotion provider outage) aborts the build, as does
    any other exception.
    Output is sorted by entry id, so the result is independent of directory
    iteration order; with the offline provider it is byte-stable.
    """
    sources_dir = Path(sources_dir)
    known = frozenset(categories)
    report = BuildReport()
    entries: list[ExpressionEntry] = []

    for fixture in sorted(sources_dir.glob("*.json")):
        try:
            raw = read_json(fixture)
            image_id, dialogue, tags, landmarks, answers = parse_source_fixture(raw)
            shapes = fuse_sources(tags, landmarks, answers)
            entry = ExpressionEntry(
                id=image_id,
                blendshapes=shapes,
                emotions={},
                source={"image_id": image_id, "dialogue": dialogue},
            )
            annotate_emotion(entry, provider, known)
        except ProviderError:
            # An outage is not bad data: it must not become per-image rejects.
            raise
        except (ToonmotionError, OSError) as exc:
            # A read error names the file by its full path; keep just the
            # name, so the report does not depend on where the sources live.
            error = str(exc).replace(str(fixture), fixture.name)
            report.rejects.append({"file": fixture.name, "error": error})
            continue
        entries.append(entry)

    entries.sort(key=lambda e: e.id)
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        dupe = sorted({i for i in ids if ids.count(i) > 1})[0]
        raise MalformedEntry(f"duplicate entry id {dupe!r} across fixtures", field="id")

    report.total = len(entries)
    report.exaggeration_counts = {
        name: sum(1 for e in entries if e.blendshapes[name] > 0.0)
        for name in EXAGGERATION_CHANNELS
    }
    with_any = sum(
        1
        for e in entries
        if any(e.blendshapes[name] > 0.0 for name in EXAGGERATION_CHANNELS)
    )
    report.exaggeration_share = with_any / report.total if report.total else 0.0

    if out_path is not None:
        write_expression_dataset(out_path, entries)
    return entries, report


def write_expression_dataset(path: str | Path, entries: list[ExpressionEntry]) -> None:
    """Write *entries* as expression JSONL, one canonical record per line."""
    text = "".join(canonical_json(e.to_json_dict()) + "\n" for e in entries)
    atomic_write_text(path, text)


def validate_entry(entry: ExpressionEntry, categories: Collection[str]) -> list[str]:
    """Every invariant violation in one list; empty means valid.

    Emotion names are checked against *categories*; pass a set when
    validating many entries.
    """
    violations: list[str] = []
    shapes = entry.blendshapes
    for name in shapes:
        if name not in CHANNEL_REGISTRY:
            violations.append(f"unknown channel {name!r}")
    for name in CHANNEL_REGISTRY:
        if name not in shapes:
            violations.append(f"missing channel {name!r}")
            continue
        value = shapes[name]
        if not np.isfinite(value) or not 0.0 <= value <= 1.0:
            violations.append(f"range violation on {name!r}: {value}")
    if has_overlay_eyes(shapes):
        for name in EYELID_CHANNELS:
            if shapes.get(name, 0.0) != 0.0:
                violations.append(f"exclusivity violation: {name!r} with overlay eyes")
    if not entry.emotions:
        violations.append("empty emotion vector")
    for name, value in entry.emotions.items():
        if not np.isfinite(value) or not 0.0 < value <= 1.0:
            violations.append(f"emotion intensity out of (0,1] for {name!r}: {value}")
        if name not in categories:
            violations.append(f"emotion category {name!r} not in configured list")
    if len(entry.emotions) > MAX_EMOTIONS_PER_ENTRY:
        violations.append("more than 8 emotion categories")
    return violations


def parse_expression_record(raw: dict, line_no: int | None = None) -> ExpressionEntry:
    """Build an entry from one decoded expression JSONL record.

    Checks the record's structure and the JSON kinds of its fields; value
    ranges and channel invariants are :func:`validate_entry`'s job.
    """
    fields = {}
    for key, kind in (("id", str), ("blendshapes", dict), ("emotions", dict),
                      ("source", dict)):
        if key not in raw:
            raise MalformedEntry(f"missing field {key!r}", line=line_no, field=key)
        bad = partial(MalformedEntry, line=line_no, field=key)
        fields[key] = json_value(raw[key], kind, f"field {key!r}", bad)
        if key in ("blendshapes", "emotions"):
            fields[key] = {
                name: json_value(weight, float, f"field {key!r} weight {name!r}", bad)
                for name, weight in fields[key].items()
            }
    return ExpressionEntry(**fields)


def check_expression_records(
    path: str | Path,
    categories: Collection[str],
) -> Iterator[tuple[int, ExpressionEntry, list[str]]]:
    """Yield ``(line_no, entry, violations)`` for each record of an expression
    JSONL file, checking emotion names against *categories*; structural
    errors raise :class:`MalformedEntry` naming the file and line."""
    known = frozenset(categories)
    seen: set[str] = set()
    for line_no, raw in iter_jsonl(path):
        try:
            entry = parse_expression_record(raw, line_no)
        except MalformedEntry as exc:
            exc.file = path
            raise
        violations = validate_entry(entry, known)
        if entry.id in seen:
            violations.insert(0, "duplicate id")
        seen.add(entry.id)
        yield line_no, entry, violations


def load_expression_dataset(
    path: str | Path, categories: Collection[str]
) -> list[ExpressionEntry]:
    """Read an expression JSONL file, failing on the first invalid entry or
    when the file holds no entry."""
    entries: list[ExpressionEntry] = []
    for line_no, entry, violations in check_expression_records(path, categories):
        if violations:
            raise MalformedEntry(
                f"invalid entry {entry.id!r}: {violations[0]}", line=line_no,
                file=path,
            )
        entries.append(entry)
    if not entries:
        raise EmptyDataset(f"{path}: expression dataset has no entries")
    return entries
