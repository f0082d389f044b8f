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
from .errors import (
    DurationMismatch,
    EmptyDataset,
    OverlappingPhonemes,
    ValidationError,
)
from .expression_dataset import (
    CHANNEL_REGISTRY,
    EXAGGERATION_CHANNELS,
    EYELID_CHANNELS,
    MOUTH_CHANNELS,
    ExpressionEntry,
    restrict_emotion_response,
)
from .jsonutil import read_json
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
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ValidationError("phoneme file must be a JSON array")
    events = []
    for item in raw:
        try:
            events.append(
                PhonemeEvent(str(item["ph"]), float(item["start"]), float(item["end"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad phoneme item {item!r}: {exc}") from exc
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
    if duration_s <= 0:
        raise ValidationError("speech duration must be positive")
    units = _text_vowels(text)
    if not units:
        return [PhonemeEvent("sil", 0.0, duration_s)]
    step = duration_s / len(units)
    return [
        PhonemeEvent(v, i * step, (i + 1) * step) for i, v in enumerate(units)
    ]


def load_viseme_table(path: str | Path | None = None) -> dict[str, dict[str, float]]:
    path = packaged_data_path("viseme_table.json") if path is None else Path(path)
    table = read_json(path)
    if not isinstance(table, dict) or "sil" not in table or "other" not in table:
        raise ValidationError(
            "viseme table must be an object defining 'sil' and 'other'"
        )
    for ph, pose in table.items():
        if not isinstance(pose, dict):
            raise ValidationError(f"viseme {ph!r} must be an object of channel weights")
        for name, weight in pose.items():
            if name not in _CHANNEL_INDEX:
                raise ValidationError(f"viseme {ph!r} uses unknown channel {name!r}")
            try:
                in_range = 0.0 <= float(weight) <= 1.0
            except (TypeError, ValueError):
                in_range = False
            if not in_range:
                raise ValidationError(
                    f"viseme {ph!r} weight {weight!r} on {name!r} is not in [0, 1]"
                )
    return table


@dataclass
class LipsyncResult:
    """Viseme channel values plus the voicing envelope used for blending."""

    fps: float
    values: np.ndarray
    voicing: np.ndarray
    source: str


def lipsync_track(
    phonemes: list[PhonemeEvent],
    fps: float,
    duration_s: float,
    viseme_table: dict[str, dict[str, float]],
    source: str,
) -> LipsyncResult:
    """Rasterize phoneme events to per-frame viseme weights.

    Every event contributes a trapezoid envelope (60 ms smoothstep rise and
    fall); concurrent contributions combine per channel by max. The voicing
    envelope is the same max over non-silent events and drives how strongly
    lip-sync replaces the base expression's mouth.
    """
    validate_phonemes(phonemes)
    frame_count = int(round(duration_s * fps)) + 1
    times = np.arange(frame_count) / fps

    values = np.zeros((frame_count, len(CHANNEL_REGISTRY)))
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
            idx = _CHANNEL_INDEX[name]
            values[lo:hi, idx] = np.maximum(
                values[lo:hi, idx], envelope * float(weight)
            )

    return LipsyncResult(fps=fps, values=values, voicing=voicing, source=source)


def infer_dialogue_emotion(
    text: str,
    provider,
    categories: list[str],
) -> dict[str, float]:
    """Emotion vector for an utterance, restricted to the category list."""
    if not text.strip():
        raise ValidationError("dialogue text is empty")
    response = provider.infer(text)
    return restrict_emotion_response(response, set(categories), context=" for dialogue")


def retrieve_expression(
    query: dict[str, float],
    entries: list[ExpressionEntry],
) -> tuple[ExpressionEntry, float]:
    """Argmax cosine similarity entry; ties broken by ascending id."""
    if not query:
        raise ValidationError("emotion query is empty")
    usable = [e for e in entries if e.emotions]
    if not usable:
        raise EmptyDataset("no annotated expression entries to retrieve from")
    best_entry = None
    best_sim = -2.0
    for entry in usable:
        sim = cosine_similarity(query, entry.emotions)
        if sim > best_sim or (sim == best_sim and entry.id < best_entry.id):
            best_entry = entry
            best_sim = sim
    return best_entry, best_sim


@dataclass
class TransitionCurve:
    """Per-channel interpolation plan over [t0, t0 + dur].

    Regular channels follow a smoothstep; exaggeration overlays are binary
    and snap at the midpoint.
    """

    start_vec: np.ndarray
    end_vec: np.ndarray
    t0: float
    dur: float

    def values(self, times: np.ndarray) -> np.ndarray:
        u = np.clip((np.asarray(times, dtype=np.float64) - self.t0) / self.dur, 0.0, 1.0)
        w_smooth = smoothstep(u)
        w_snap = (u >= 0.5).astype(np.float64)
        weights = np.where(_EXAGGERATION_MASK[np.newaxis, :],
                           w_snap[:, np.newaxis],
                           w_smooth[:, np.newaxis])
        return self.start_vec[np.newaxis, :] + (
            (self.end_vec - self.start_vec)[np.newaxis, :] * weights
        )

    def at(self, t: float) -> np.ndarray:
        return self.values(np.array([t]))[0]


def plan_transition(
    from_shapes: dict[str, float],
    to_shapes: dict[str, float],
    t0: float,
    dur: float,
) -> TransitionCurve:
    if dur <= 0:
        raise ValidationError("transition duration must be positive")
    return TransitionCurve(
        start_vec=shapes_to_vector(from_shapes),
        end_vec=shapes_to_vector(to_shapes),
        t0=t0,
        dur=dur,
    )


@dataclass(frozen=True)
class BlinkEnvelope:
    onset_s: float

    def values(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=np.float64) - self.onset_s
        closing = smoothstep(t / BLINK_CLOSE_S)
        opening = 1.0 - smoothstep(
            (t - BLINK_CLOSE_S - BLINK_HOLD_S) / BLINK_OPEN_S
        )
        inside = (t >= 0.0) & (t <= BLINK_TOTAL_S)
        return np.where(inside, np.minimum(closing, opening), 0.0)

    def overlaps(self, span: tuple[float, float]) -> bool:
        s0, s1 = span
        return self.onset_s < s1 and self.onset_s + BLINK_TOTAL_S > s0


def schedule_blinks(
    duration_s: float,
    rng: random.Random,
    suppressed_spans: list[tuple[float, float]] | None = None,
    *,
    mean_gap_s: float,
    min_gap_s: float,
) -> list[BlinkEnvelope]:
    """Seeded blink schedule: exponential gaps, whole envelopes only.

    The full schedule is always sampled first and suppressed blinks dropped
    afterwards, so the generator consumption (hence every later draw) does
    not depend on the suppression spans.
    """
    if duration_s <= 0:
        raise ValidationError("duration must be positive")
    onsets = []
    t = 0.0
    while True:
        gap = max(min_gap_s, rng.expovariate(1.0 / mean_gap_s))
        onset = t + gap
        if onset + BLINK_TOTAL_S > duration_s:
            break
        onsets.append(onset)
        t = onset + BLINK_TOTAL_S
    blinks = [BlinkEnvelope(o) for o in onsets]
    for span in suppressed_spans or []:
        blinks = [b for b in blinks if not b.overlaps(span)]
    return blinks


@dataclass
class FaceTrack:
    fps: float
    frames: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    def channel(self, name: str) -> np.ndarray:
        return self.frames[:, _CHANNEL_INDEX[name]]

    def to_json_dict(self) -> dict:
        return {
            "fps": self.fps,
            "channels": list(CHANNEL_REGISTRY),
            "frames": self.frames,
            "provenance": self.provenance,
        }


def compose_face_track(
    expression: ExpressionEntry,
    transition: TransitionCurve | None,
    blinks: list[BlinkEnvelope],
    lipsync: LipsyncResult | None,
    duration_s: float,
    fps: float,
) -> FaceTrack:
    """Layer expression, lip-sync and blinks into the final track.

    Layering order: transition-curved base expression, then lip-sync blends
    into the mouth group scaled by the voicing envelope (alpha 0.8 when
    fully voiced), then blinks max-combine with the eyelids. Exaggeration
    exclusivity is re-applied per frame before the final clamp.
    """
    if duration_s <= 0:
        raise ValidationError("duration must be positive")
    frame_count = int(round(duration_s * fps)) + 1
    times = np.arange(frame_count) / fps

    if transition is not None:
        base = transition.values(times)
    else:
        base = np.tile(shapes_to_vector(expression.blendshapes), (frame_count, 1))

    if lipsync is not None:
        if abs(lipsync.fps - fps) > 1e-9 * max(fps, 1.0):
            raise DurationMismatch(
                f"lipsync fps {lipsync.fps} does not match track fps {fps}"
            )
        if lipsync.values.shape[0] != frame_count:
            raise DurationMismatch(
                f"lipsync covers {lipsync.values.shape[0]} frames, track has "
                f"{frame_count}"
            )
        alpha = LIPSYNC_ALPHA * lipsync.voicing
        base[:, _MOUTH_IDX] = (
            (1.0 - alpha)[:, np.newaxis] * base[:, _MOUTH_IDX]
            + LIPSYNC_ALPHA * lipsync.values[:, _MOUTH_IDX]
        )

    if blinks:
        blink_curve = np.zeros(frame_count)
        for blink in blinks:
            blink_curve = np.maximum(blink_curve, blink.values(times))
        for name in ("eyeBlinkL", "eyeBlinkR"):
            idx = _CHANNEL_INDEX[name]
            base[:, idx] = np.maximum(base[:, idx], blink_curve)

    overlay = np.maximum(
        base[:, _CHANNEL_INDEX["circleEyes"]], base[:, _CHANNEL_INDEX["angleEyes"]]
    )
    suppressed = overlay > 0.0
    for idx in _EYELID_IDX:
        base[suppressed, idx] = 0.0

    np.clip(base, 0.0, 1.0, out=base)
    return FaceTrack(
        fps=fps,
        frames=base,
        provenance={
            "expression_id": expression.id,
            "blink_onsets": [round(b.onset_s, 6) for b in blinks],
            "lipsync_source": lipsync.source if lipsync is not None else "none",
        },
    )
