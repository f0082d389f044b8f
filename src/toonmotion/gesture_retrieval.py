"""Gesture dataset loading and per-phrase retrieval.

The dataset is a JSONL file, one gesture entry per line:

    {"id": str, "phrase": str, "category": str, "neutral": bool,
     "clip": relative path to a BVH file, "duration_s": number}

Every clip of a library shares the first clip's skeleton and frame rate.

Phrases are embedded at load time and queries are answered by an exact
linear cosine scan (the dataset scale is hundreds of entries). Queries whose
best non-neutral similarity falls below the threshold get a uniformly random
neutral gesture drawn from the caller's seeded generator.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .bvh import GestureClip, parse_bvh
from .errors import MalformedEntry, MissingClip, NoNeutralGesture
from .jsonutil import iter_jsonl, json_value
from .text_semantics import PhraseSpan, embed, segment_phrases

FPS_REL_TOL = 1e-6


class GestureCategory(str, Enum):
    GREETING = "greeting"
    EMOTION = "emotion"
    EMPHASIS = "emphasis"
    ICONIC = "iconic"
    ACTIVE_LISTENING = "active_listening"
    GAZE_GUIDANCE = "gaze_guidance"
    NEUTRAL = "neutral"


@dataclass
class GestureEntry:
    id: str
    phrase: str
    embedding: np.ndarray
    category: GestureCategory
    neutral: bool
    duration_s: float


@dataclass(frozen=True)
class GestureMatch:
    entry: GestureEntry
    similarity: float
    fallback: bool
    phrase_ordinal: int


class GestureDataset:
    def __init__(self, entries: list[GestureEntry], embedder, clips: dict[str, GestureClip]):
        self.entries = entries
        self.embedder = embedder
        self._clips = clips
        self.neutral_entries = sorted(
            (e for e in entries if e.neutral), key=lambda e: e.id
        )
        self._scored = [e for e in entries if not e.neutral]
        if self._scored:
            # Score each distinct embedding once: a matrix product can give
            # identical rows different last bits depending on their position,
            # and identical phrases must tie exactly for the id tie-break.
            matrix = np.stack([e.embedding for e in self._scored])
            self._matrix, row_of = np.unique(matrix, axis=0, return_inverse=True)
            self._row_of = row_of.reshape(-1)

    @property
    def fps(self) -> float:
        """The frame rate every clip of the library shares."""
        return next(iter(self._clips.values())).fps

    def clip_for(self, entry_id: str) -> GestureClip:
        return self._clips[entry_id]

    def best_non_neutral(self, query: np.ndarray) -> tuple[GestureEntry | None, float]:
        """Highest-cosine non-neutral entry; ties broken by ascending id."""
        if not self._scored:
            return None, 0.0
        sims = (self._matrix @ query)[self._row_of]
        best = float(np.max(sims))
        tied = np.flatnonzero(sims >= best - 0.0)
        winner = min((self._scored[i] for i in tied), key=lambda e: e.id)
        return winner, min(max(best, -1.0), 1.0)


# The fields of a gesture record and their JSON kinds.
_FIELDS = {"id": str, "phrase": str, "category": str, "neutral": bool,
           "clip": str, "duration_s": float}


def load_gesture_dataset(path: str | Path, embedder) -> GestureDataset:
    """Load and validate a gesture JSONL file, embedding every phrase."""
    path = Path(path)
    base = path.parent
    # Read every record first so JSON errors are reported before field errors.
    records = list(iter_jsonl(path))

    seen_ids: set[str] = set()
    parsed: list[GestureEntry] = []
    clips: dict[str, GestureClip] = {}
    try:
        for line_no, raw in records:
            for key in _FIELDS:
                if key not in raw:
                    raise MalformedEntry(f"missing field {key!r}", line=line_no,
                                         field=key)
            entry_id, phrase, category_raw, neutral, clip_rel, duration_s = (
                json_value(raw[key], kind, f"field {key!r}",
                           partial(MalformedEntry, line=line_no, field=key))
                for key, kind in _FIELDS.items()
            )
            if not entry_id:
                raise MalformedEntry("empty id", line=line_no, field="id")
            if entry_id in seen_ids:
                raise MalformedEntry(f"duplicate id {entry_id!r}", line=line_no,
                                     field="id")
            seen_ids.add(entry_id)

            if not phrase:
                raise MalformedEntry("empty phrase", line=line_no, field="phrase")

            try:
                category = GestureCategory(category_raw)
            except ValueError:
                raise MalformedEntry(
                    f"unknown category {category_raw!r}", line=line_no, field="category"
                ) from None

            if neutral != (category is GestureCategory.NEUTRAL):
                raise MalformedEntry(
                    "neutral flag must match the neutral category",
                    line=line_no,
                    field="neutral",
                )

            if duration_s <= 0:
                raise MalformedEntry(
                    "duration_s must be positive", line=line_no, field="duration_s"
                )

            clip_path = base / clip_rel
            if not os.path.isfile(clip_path):  # False, not OSError, when too long
                raise MissingClip(f"clip file not found for {entry_id!r}: {clip_path}")
            clip = parse_bvh(clip_path.read_bytes(), source_id=entry_id)
            first = next(iter(clips.values()), clip)
            if not first.skeleton.matches(clip.skeleton):
                raise MalformedEntry(
                    f"clip {entry_id!r} skeleton differs from {first.source_id!r}",
                    line=line_no, field="clip",
                )
            if not math.isclose(clip.fps, first.fps, rel_tol=FPS_REL_TOL):
                raise MalformedEntry(
                    f"clip {entry_id!r} fps {clip.fps} != {first.fps}",
                    line=line_no, field="clip",
                )
            if not abs(duration_s - clip.duration_s) <= 0.5 / clip.fps:
                raise MalformedEntry(
                    f"duration_s {duration_s} differs from the clip's "
                    f"{clip.duration_s:.6f} s by more than half a frame",
                    line=line_no, field="duration_s",
                )
            clips[entry_id] = clip

            parsed.append(
                GestureEntry(
                    id=entry_id,
                    phrase=phrase,
                    embedding=np.zeros(0),
                    category=category,
                    neutral=neutral,
                    duration_s=duration_s,
                )
            )
    except MalformedEntry as exc:
        exc.file = path
        raise

    if not any(e.neutral for e in parsed):
        raise NoNeutralGesture(f"dataset {path} has no neutral gesture entry")

    vectors = embed([e.phrase for e in parsed], embedder)
    for entry, vec in zip(parsed, vectors):
        entry.embedding = vec

    return GestureDataset(parsed, embedder, clips)


def retrieve_sequence(
    phrases: list[PhraseSpan],
    dataset: GestureDataset,
    threshold: float,
    rng: random.Random,
) -> list[GestureMatch]:
    """One match per phrase: the best-similarity gesture, or a neutral
    fallback when the best non-neutral similarity is below *threshold*.

    The generator is consumed only when the fallback triggers, strictly in
    phrase order, so a fixed seed yields a reproducible gesture sequence. A
    fallback match reports the best non-neutral similarity that was rejected
    (0 when none exists). *threshold* is the validated
    ``Config.similarity_threshold``; the loader guarantees a neutral entry.
    """
    neutral = dataset.neutral_entries
    queries = embed([p.text for p in phrases], dataset.embedder)
    matches = []
    for phrase, query in zip(phrases, queries):
        entry, best = dataset.best_non_neutral(query)
        fallback = entry is None or best < threshold
        if fallback:
            entry = neutral[rng.randrange(len(neutral))]
        matches.append(GestureMatch(entry, best, fallback, phrase.ordinal))
    return matches


def retrieve_text(
    text: str,
    dataset: GestureDataset,
    threshold: float,
    rng: random.Random,
) -> tuple[list[PhraseSpan], list[GestureMatch]]:
    """Segment *text* into phrases and retrieve one gesture per phrase.

    Delimiter-only text still gets a gesture: the trimmed text becomes one
    phrase and retrieval falls back to neutral.
    """
    phrases = segment_phrases(text)
    if not phrases:
        phrases = [PhraseSpan(text.strip(), 0, len(text), 0)]
    return phrases, retrieve_sequence(phrases, dataset, threshold, rng)
