"""Expression retrieval and face track composition.

Retrieves the expression entry whose emotion vector best matches the
dialogue (sparse cosine similarity), then layers the final blendshape
animation: a smoothstep transition into the expression, viseme lip-sync
driven by timed phoneme events, and procedurally scheduled blinks.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curves import smoothstep
from .errors import OverlappingPhonemes, ValidationError
from .expression_dataset import (
    CHANNEL_REGISTRY,
    EXAGGERATION_CHANNELS,
    EYELID_CHANNELS,
    MOUTH_CHANNELS,
    ExpressionEntry,
    has_overlay_eyes,
    restrict_emotion_response,
)
from .jsonutil import json_value, read_json
from .providers import packaged_data_path
from .text_semantics import cosine_similarity

VISEME_RAMP_S = 0.06
LIPSYNC_ALPHA = 0.8

BLINK_CLOSE_S = 0.10
BLINK_HOLD_S = 0.05
BLINK_OPEN_S = 0.15
BLINK_TOTAL_S = BLINK_CLOSE_S + BLINK_HOLD_S + BLINK_OPEN_S

_CHANNEL_INDEX = {name: i for i, name in enumerate(CHANNEL_REGISTRY)}
_MOUTH_IDX = np.array([_CHANNEL_INDEX[c] for c in MOUTH_CHANNELS])
_MOUTH_COLUMN = {name: i for i, name in enumerate(MOUTH_CHANNELS)}
_EYELID_IDX = np.array([_CHANNEL_INDEX[c] for c in EYELID_CHANNELS])
_EXAGGERATION_MASK = np.array(
    [name in EXAGGERATION_CHANNELS for name in CHANNEL_REGISTRY]
)


def shapes_to_vector(shapes: dict[str, float]) -> np.ndarray:
    return np.array([shapes.get(name, 0.0) for name in CHANNEL_REGISTRY])


@dataclass(frozen=True)
class PhonemeEvent:
    phoneme: str
    start_s: float
    end_s: float


def validate_phonemes(events: list[PhonemeEvent]):
    for ev in events:
        if not (math.isfinite(ev.start_s) and math.isfinite(ev.end_s)):
            raise ValidationError(
                f"event {ev.phoneme!r} has non-finite time "
                f"(start {ev.start_s}, end {ev.end_s})"
            )
        if ev.end_s <= ev.start_s:
            raise OverlappingPhonemes(
                f"event {ev.phoneme!r} has end {ev.end_s} <= start {ev.start_s}"
            )
    for prev, cur in zip(events, events[1:]):
        if cur.start_s < prev.start_s:
            raise OverlappingPhonemes("phoneme events are not sorted by start time")
        if cur.start_s < prev.end_s - 1e-9:
            raise OverlappingPhonemes(
                f"events {prev.phoneme!r} and {cur.phoneme!r} overlap at {cur.start_s}"
            )


def load_phoneme_file(path: str | Path) -> list[PhonemeEvent]:
    """Read a JSON phoneme timeline: [{"ph": str, "start": num, "end": num}]."""
    raw = json_value(read_json(path), list, f"{path}: phoneme file", ValidationError)
    events = []
    for i, item in enumerate(raw):
        where = f"{path}: phoneme {i}"
        item = json_value(item, dict, where, ValidationError)
        for key in ("ph", "start", "end"):
            if key not in item:
                raise ValidationError(f"{where} is missing {key!r}")
        events.append(PhonemeEvent(
            json_value(item["ph"], str, f"{where} 'ph'", ValidationError),
            json_value(item["start"], float, f"{where} 'start'", ValidationError),
            json_value(item["end"], float, f"{where} 'end'", ValidationError),
        ))
    validate_phonemes(events)
    return events


_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
_WORD_RE = re.compile(r"[a-zA-Z']+")

_KANA_VOWEL_ROWS = {
    "a": "あかがさざただなはばぱまやらわアカガサザタダナハバパマヤラワ",
    "i": "いきぎしじちぢにひびぴみりイキギシジチヂニヒビピミリ",
    "u": "うくぐすずつづぬふぶぷむゆるんウクグスズツヅヌフブプムユルンヴ",
    "e": "えけげせぜてでねへべぺめれエケゲセゼテデネヘベペメレ",
    "o": "おこごそぞとどのほぼぽもよろをオコゴソゾトドノホボポモヨロヲ",
}
_KANA_VOWEL = {ch: v for v, row in _KANA_VOWEL_ROWS.items() for ch in row}
_SMALL_KANA_VOWEL = {
    "ゃ": "a", "ャ": "a", "ゅ": "u", "ュ": "u", "ょ": "o", "ョ": "o",
    "ぁ": "a", "ァ": "a", "ぃ": "i", "ィ": "i", "ぅ": "u", "ゥ": "u",
    "ぇ": "e", "ェ": "e", "ぉ": "o", "ォ": "o",
}
_SKIP_KANA = "っッ"


def _text_vowels(text: str) -> list[str]:
    """Naive mora/syllable vowel sequence for the lip-sync fallback."""
    vowels: list[str] = []
    ascii_spans = []
    for m in _WORD_RE.finditer(text):
        ascii_spans.append((m.start(), m.end()))
        groups = _VOWEL_GROUP_RE.findall(m.group().lower())
        if not groups:
            vowels.append(("u", m.start()))
            continue
        for g in groups:
            first = g[0]
            vowels.append(("i" if first == "y" else first, m.start()))

    covered = [False] * len(text)
    for a, b in ascii_spans:
        for i in range(a, b):
            covered[i] = True

    # Interleave by position so mixed-script text keeps reading order.
    positioned = list(vowels)
    for i, ch in enumerate(text):
        if covered[i]:
            continue
        if ch in _SKIP_KANA:
            continue
        if ch in _SMALL_KANA_VOWEL:
            if positioned:
                prev_v, prev_pos = positioned[-1]
                if prev_pos < i:
                    positioned[-1] = (_SMALL_KANA_VOWEL[ch], prev_pos)
            continue
        if ch == "ー":
            if positioned:
                positioned.append((positioned[-1][0], i))
            continue
        if ch in _KANA_VOWEL:
            positioned.append((_KANA_VOWEL[ch], i))
        elif "一" <= ch <= "鿿":
            positioned.append(("a", i))
    positioned.sort(key=lambda pair: pair[1])
    return [v for v, _ in positioned]


def fallback_phonemes(text: str, duration_s: float) -> list[PhonemeEvent]:
    """One vowel event per mora/syllable, spread uniformly over the speech."""
    units = _text_vowels(text)
    if not units:
        return [PhonemeEvent("sil", 0.0, duration_s)]
    step = duration_s / len(units)
    return [
        PhonemeEvent(v, i * step, (i + 1) * step) for i, v in enumerate(units)
    ]


def load_viseme_table(path: str | Path | None = None) -> dict[str, dict[str, float]]:
    path = packaged_data_path("viseme_table.json") if path is None else Path(path)
    table = json_value(read_json(path), dict, f"{path}: viseme table", ValidationError)
    if "sil" not in table or "other" not in table:
        raise ValidationError(f"{path}: viseme table must define 'sil' and 'other'")
    for ph, pose in table.items():
        where = f"{path}: viseme {ph!r}"
        for name, weight in json_value(pose, dict, where, ValidationError).items():
            if name not in _MOUTH_COLUMN:
                raise ValidationError(
                    f"{where} uses {name!r}, which is not a mouth channel")
            weight = json_value(weight, float, f"{where} weight on {name!r}",
                                ValidationError)
            if not 0.0 <= weight <= 1.0:
                raise ValidationError(
                    f"{where} weight {weight} on {name!r} is not in [0, 1]")
    return table


def lipsync_track(
    phonemes: list[PhonemeEvent],
    fps: float,
    times: np.ndarray,
    viseme_table: dict[str, dict[str, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Rasterize phoneme events onto the frame times ``arange(n) / fps``.

    Returns per-frame viseme weights (one column per channel of
    ``MOUTH_CHANNELS``) and the voicing envelope. Every event
    contributes a trapezoid envelope (60 ms smoothstep rise and fall);
    concurrent contributions combine per channel by max. The voicing
    envelope is the same max over non-silent events and drives how strongly
    lip-sync replaces the base expression's mouth. The events are valid:
    read by :func:`load_phoneme_file` or built by :func:`fallback_phonemes`.
    """
    frame_count = times.shape[0]
    values = np.zeros((frame_count, len(MOUTH_CHANNELS)))
    voicing = np.zeros(frame_count)
    for ev in phonemes:
        if ev.phoneme == "sil":
            continue
        pose = viseme_table.get(ev.phoneme, viseme_table["other"])
        # The envelope is exactly 0 outside (start, end + ramp); one frame of
        # margin either side absorbs rounding in the frame times.
        lo = max(0, math.floor(ev.start_s * fps) - 1)
        hi = min(frame_count, math.ceil((ev.end_s + VISEME_RAMP_S) * fps) + 2)
        t = times[lo:hi]
        rise = smoothstep((t - ev.start_s) / VISEME_RAMP_S)
        fall = 1.0 - smoothstep((t - ev.end_s) / VISEME_RAMP_S)
        envelope = rise * fall
        voicing[lo:hi] = np.maximum(voicing[lo:hi], envelope)
        for name, weight in pose.items():
            idx = _MOUTH_COLUMN[name]
            values[lo:hi, idx] = np.maximum(
                values[lo:hi, idx], envelope * float(weight)
            )
    return values, voicing


def infer_dialogue_emotion(
    text: str,
    provider,
    categories: list[str],
) -> dict[str, float]:
    """Emotion vector for an utterance, restricted to the category list."""
    response = provider.infer(text)
    return restrict_emotion_response(response, set(categories), context=" for dialogue")


def retrieve_expression(
    query: dict[str, float],
    entries: list[ExpressionEntry],
) -> tuple[ExpressionEntry, float]:
    """Argmax cosine similarity entry; ties broken by ascending id.

    *entries* is a loaded expression dataset: not empty, and every entry has
    emotions.
    """
    best_entry = None
    best_sim = -2.0
    for entry in entries:
        sim = cosine_similarity(query, entry.emotions)
        if sim > best_sim or (sim == best_sim and entry.id < best_entry.id):
            best_entry = entry
            best_sim = sim
    return best_entry, best_sim


def schedule_blinks(
    duration_s: float,
    rng: random.Random,
    *,
    mean_gap_s: float,
    min_gap_s: float,
) -> list[float]:
    """Seeded blink onsets: exponential gaps, whole blinks only.

    The full schedule is always drawn; :func:`compose_face_track` drops the
    blinks that overlay eyes hide, so the generator consumption (hence every
    later draw) does not depend on the expression.
    """
    onsets = []
    t = 0.0
    while True:
        gap = max(min_gap_s, rng.expovariate(1.0 / mean_gap_s))
        onset = t + gap
        if onset + BLINK_TOTAL_S > duration_s:
            break
        onsets.append(onset)
        t = onset + BLINK_TOTAL_S
    return onsets


@dataclass
class FaceTrack:
    fps: float
    frames: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "fps": self.fps,
            "channels": list(CHANNEL_REGISTRY),
            "frames": self.frames,
            "provenance": self.provenance,
        }


def compose_face_track(
    expression: ExpressionEntry,
    phonemes: list[PhonemeEvent],
    blink_onsets: list[float],
    duration_s: float,
    *,
    fps: float,
    transition_s: float,
    viseme_table: dict[str, dict[str, float]],
    lipsync_source: str,
) -> FaceTrack:
    """Layer expression, lip-sync and blinks on the frames ``arange(n) / fps``.

    Layering order: the expression eased in from the neutral face over
    *transition_s* (regular channels by smoothstep, exaggeration overlays
    snapping on at the midpoint), then lip-sync blends into the mouth group
    scaled by the voicing envelope (alpha 0.8 when fully voiced), then
    blinks max-combine with the eyelids. Circle/angle overlay eyes, once
    snapped on, zero the eyelid channels and drop every blink that would
    overlap them. The result is clamped to [0, 1].
    """
    frame_count = int(round(duration_s * fps)) + 1
    times = np.arange(frame_count) / fps

    u = np.clip(times / transition_s, 0.0, 1.0)
    snapped = u >= 0.5
    weights = np.where(_EXAGGERATION_MASK[np.newaxis, :],
                       snapped.astype(np.float64)[:, np.newaxis],
                       smoothstep(u)[:, np.newaxis])
    # The neutral start stays in the sum: 0.0 + (-0.0 * w) is +0.0, so a
    # -0.0 weight never prints as "-0.000000".
    base = 0.0 + shapes_to_vector(expression.blendshapes)[np.newaxis, :] * weights

    values, voicing = lipsync_track(phonemes, fps, times, viseme_table)
    alpha = LIPSYNC_ALPHA * voicing
    base[:, _MOUTH_IDX] = (
        (1.0 - alpha)[:, np.newaxis] * base[:, _MOUTH_IDX]
        + LIPSYNC_ALPHA * values
    )

    overlay_eyes = has_overlay_eyes(expression.blendshapes)
    if overlay_eyes:
        overlay_on_s = transition_s / 2.0
        blink_onsets = [
            onset for onset in blink_onsets
            if not (onset < duration_s and onset + BLINK_TOTAL_S > overlay_on_s)
        ]
    if blink_onsets:
        blink_curve = np.zeros(frame_count)
        for onset in blink_onsets:
            t = times - onset
            closing = smoothstep(t / BLINK_CLOSE_S)
            opening = 1.0 - smoothstep(
                (t - BLINK_CLOSE_S - BLINK_HOLD_S) / BLINK_OPEN_S
            )
            inside = (t >= 0.0) & (t <= BLINK_TOTAL_S)
            blink_curve = np.maximum(
                blink_curve, np.where(inside, np.minimum(closing, opening), 0.0)
            )
        for name in ("eyeBlinkL", "eyeBlinkR"):
            idx = _CHANNEL_INDEX[name]
            base[:, idx] = np.maximum(base[:, idx], blink_curve)

    if overlay_eyes:
        base[np.ix_(snapped, _EYELID_IDX)] = 0.0

    np.clip(base, 0.0, 1.0, out=base)
    return FaceTrack(
        fps=fps,
        frames=base,
        provenance={
            "expression_id": expression.id,
            "blink_onsets": [round(onset, 6) for onset in blink_onsets],
            "lipsync_source": lipsync_source,
        },
    )
