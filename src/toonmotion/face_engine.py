"""Expression retrieval and face track composition.

Retrieves the expression entry whose emotion vector best matches the
dialogue (sparse cosine similarity), then layers the final blendshape
animation: a smoothstep transition into the expression, viseme lip-sync
driven by timed phoneme events, and procedurally scheduled blinks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import partial
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

# Events per phoneme timeline: a few more than the body frames of the
# longest speech a request may ask for (600 s at 30 fps is 18,001 frames).
MAX_PHONEME_EVENTS = 20_000

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


def validate_phonemes(events: list[PhonemeEvent], file: str | Path | None = None):
    """Check that events start at 0 s or later, have positive length and run
    in order without overlap; an error names *file*, the timeline's path,
    when given."""
    error = partial(OverlappingPhonemes, file=file)
    for ev in events:
        if ev.start_s < 0.0:
            raise error(f"event {ev.phoneme!r} starts before 0 s, at {ev.start_s}")
        if ev.end_s <= ev.start_s:
            raise error(f"event {ev.phoneme!r} has end {ev.end_s} <= start {ev.start_s}")
    for prev, cur in zip(events, events[1:]):
        if cur.start_s < prev.start_s:
            raise error("phoneme events are not sorted by start time")
        if cur.start_s < prev.end_s - 1e-9:
            raise error(
                f"events {prev.phoneme!r} and {cur.phoneme!r} overlap at {cur.start_s}"
            )


def load_phoneme_file(path: str | Path) -> list[PhonemeEvent]:
    """Read a JSON phoneme timeline: [{"ph": str, "start": num, "end": num}]."""
    error = partial(ValidationError, file=path)
    items = json_value(read_json(path), list, "phoneme file", error)
    if len(items) > MAX_PHONEME_EVENTS:
        raise error(f"phoneme file has {len(items)} events, more than the "
                    f"{MAX_PHONEME_EVENTS} allowed")
    events = []
    for i, item in enumerate(items):
        where = f"phoneme {i}"
        item = json_value(item, dict, where, error)
        for key in ("ph", "start", "end"):
            if key not in item:
                raise error(f"{where} is missing {key!r}")
        events.append(PhonemeEvent(
            json_value(item["ph"], str, f"{where} 'ph'", error),
            json_value(item["start"], float, f"{where} 'start'", error),
            json_value(item["end"], float, f"{where} 'end'", error),
        ))
    validate_phonemes(events, path)
    return events


# An ASCII word, or any other single character.
_TOKEN_RE = re.compile(r"([a-zA-Z']+)|(.)")
# The first vowel of each vowel group, once "y" reads as "i".
_VOWEL_GROUP_RE = re.compile(r"([aeiou])[aeiou]*")

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


def _text_vowels(text: str) -> list[str]:
    """Naive mora/syllable vowel sequence for the lip-sync fallback, read
    left to right.

    An ASCII word gives one vowel per vowel group (``y`` counts as ``i``),
    or ``u`` if it has none. ``ー`` repeats the vowel before it and a small
    kana replaces it. A kana gives its row's vowel and a kanji ``a``;
    anything else, ``っ`` included, gives nothing.
    """
    vowels: list[str] = []
    for word, ch in _TOKEN_RE.findall(text):
        if word:
            vowels += _VOWEL_GROUP_RE.findall(word.lower().replace("y", "i")) or ["u"]
        elif ch == "ー":
            vowels += vowels[-1:]
        elif ch in _SMALL_KANA_VOWEL:
            if vowels:
                vowels[-1] = _SMALL_KANA_VOWEL[ch]
        elif ch in _KANA_VOWEL:
            vowels.append(_KANA_VOWEL[ch])
        elif "一" <= ch <= "鿿":
            vowels.append("a")
    return vowels


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
    error = partial(ValidationError, file=path)
    table = json_value(read_json(path), dict, "viseme table", error)
    if "sil" not in table or "other" not in table:
        raise error("viseme table must define 'sil' and 'other'")
    for ph, pose in table.items():
        where = f"viseme {ph!r}"
        for name, weight in json_value(pose, dict, where, error).items():
            if name not in _MOUTH_COLUMN:
                raise error(f"{where} uses {name!r}, which is not a mouth channel")
            weight = json_value(weight, float, f"{where} weight on {name!r}", error)
            if not 0.0 <= weight <= 1.0:
                raise error(f"{where} weight {weight} on {name!r} is not in [0, 1]")
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

    All non-silent events are rasterized in one pass: each event's frame
    window is laid end to end with the others, the envelopes are evaluated
    elementwise, and ``np.maximum.at`` max-combines them into the frames.
    An envelope is never negative and a max is exact in any order, so a
    channel an event's pose leaves out can take a weight of 0.
    """
    frame_count = times.shape[0]
    voiced = [ev for ev in phonemes if ev.phoneme != "sil"]
    starts = np.array([ev.start_s for ev in voiced])
    ends = np.array([ev.end_s for ev in voiced])
    pose_index = {ph: i for i, ph in enumerate(viseme_table)}
    other = pose_index["other"]
    pose_weights = np.zeros((len(viseme_table), len(MOUTH_CHANNELS)))
    for i, pose in enumerate(viseme_table.values()):
        for name, weight in pose.items():
            pose_weights[i, _MOUTH_COLUMN[name]] = weight
    event_poses = pose_weights[[pose_index.get(ev.phoneme, other) for ev in voiced]]

    # The envelope is exactly 0 outside [lo, hi), rounding included. Below
    # lo, start * fps exceeds the frame index by nearly 1, so the frame time
    # is below start and the rise is 0. From hi on, the frame time is at
    # least (end + ramp)(1 - 3 * 2**-53), so (t - end) / ramp is under 1 by
    # at most 4.5e-12 for an event that ends by 600 s, and smoothstep
    # rounds to exactly 1 within 3.7e-9 of 1: the fall is 0. Clipping to
    # [0, frame_count] before the cast leaves a window past the last frame
    # empty.
    lo = np.clip(np.floor(starts * fps), 0, frame_count).astype(np.intp)
    hi = np.clip(np.ceil((ends + VISEME_RAMP_S) * fps), 0, frame_count).astype(np.intp)
    lengths = hi - lo
    event = np.repeat(np.arange(len(voiced)), lengths)
    frames = np.arange(lengths.sum()) + np.repeat(lo - (np.cumsum(lengths) - lengths),
                                                  lengths)
    t = times[frames]
    rise = smoothstep((t - starts[event]) / VISEME_RAMP_S)
    fall = 1.0 - smoothstep((t - ends[event]) / VISEME_RAMP_S)
    envelope = rise * fall

    values = np.zeros((frame_count, len(MOUTH_CHANNELS)))
    voicing = np.zeros(frame_count)
    np.maximum.at(voicing, frames, envelope)
    # One column at a time: ufunc.at is several times faster on a 1-D operand
    # than on rows.
    contributions = envelope[:, np.newaxis] * event_poses[event]
    for column in range(len(MOUTH_CHANNELS)):
        np.maximum.at(values[:, column], frames, contributions[:, column])
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
