"""Phrase segmentation, embeddings, and sparse cosine similarity.

Dialogue text is cut into phrases at sentence/clause punctuation, each
phrase is embedded as a unit-norm vector, and matches are scored by cosine
similarity. The bundled reference embedder is a deterministic hashed
character n-gram model so the whole pipeline runs offline with no model
weights; real deployments swap in a remote sentence-embedding provider.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Phrase delimiters. Fullwidth/CJK marks act as pure separators and are
# dropped from the phrase text; ASCII marks end a phrase but stay attached
# to it ("Hello there." keeps its period, "こんにちは、" does not keep 、).
CJK_DELIMITERS = "。．、！？"
ASCII_DELIMITERS = ".!?,;"
PHRASE_DELIMITERS = CJK_DELIMITERS + ASCII_DELIMITERS

MAX_PHRASE_CHARS = 40

# Reference embedder parameters. Character n-grams (n = 1..3) are hashed
# with SHA-256 under a fixed seed into 256 signed buckets: bucket index
# from digest bytes 0..3 (big endian, mod 256), sign from the parity of
# digest byte 4. The accumulated vector is L2-normalized; an all-zero
# vector (e.g. empty text) maps to the first basis vector.
REFERENCE_DIM = 256
_REFERENCE_HASH_SEED = b"toonmotion-ref-embed-v1"


@dataclass(frozen=True)
class PhraseSpan:
    """One phrase, referencing its character range in the original text."""

    text: str
    start_char: int
    end_char: int
    ordinal: int


def _trimmed(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def _rechunk(text: str, start: int, end: int) -> list[tuple[int, int]]:
    """Split an over-long span at whitespace where possible, else hard-cut."""
    chunks: list[tuple[int, int]] = []
    while end - start > MAX_PHRASE_CHARS:
        cut = -1
        for p in range(start + MAX_PHRASE_CHARS, start, -1):
            if text[p].isspace():
                cut = p
                break
        if cut > start:
            chunk = _trimmed(text, start, cut)
            start = cut + 1
        else:
            chunk = (start, start + MAX_PHRASE_CHARS)
            start = start + MAX_PHRASE_CHARS
        if chunk[0] < chunk[1]:
            chunks.append(chunk)
    final = _trimmed(text, start, end)
    if final[0] < final[1]:
        chunks.append(final)
    return chunks


def segment_phrases(text: str) -> list[PhraseSpan]:
    """Split dialogue text into phrase spans.

    A maximal run of delimiter characters ends a phrase; the run's leading
    ASCII marks stay inside the phrase, CJK marks are consumed. Spans
    longer than MAX_PHRASE_CHARS are re-chunked at whitespace (hard cut
    when a chunk has none). Empty input yields an empty list.
    """
    raw: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] in PHRASE_DELIMITERS:
            run_end = i
            while run_end < n and text[run_end] in PHRASE_DELIMITERS:
                run_end += 1
            attached = i
            while attached < run_end and text[attached] in ASCII_DELIMITERS:
                attached += 1
            raw.append((start, attached))
            start = run_end
            i = run_end
        else:
            i += 1
    if start < n:
        raw.append((start, n))

    bounded: list[tuple[int, int]] = []
    for s, e in raw:
        s, e = _trimmed(text, s, e)
        if s >= e:
            continue
        bounded.extend(_rechunk(text, s, e))

    return [
        PhraseSpan(text=text[s:e], start_char=s, end_char=e, ordinal=k)
        for k, (s, e) in enumerate(bounded)
    ]


def reference_embed(text: str) -> np.ndarray:
    """Deterministic offline embedding: hashed character n-grams, D=256.

    Pure function of the input string; identical text always yields a
    bitwise-identical unit-norm vector.
    """
    acc = np.zeros(REFERENCE_DIM, dtype=np.float64)
    n = len(text)
    for size in (1, 2, 3):
        for i in range(n - size + 1):
            gram = text[i : i + size]
            digest = hashlib.sha256(
                _REFERENCE_HASH_SEED + b"\x00" + gram.encode("utf-8")
            ).digest()
            bucket = int.from_bytes(digest[:4], "big") % REFERENCE_DIM
            sign = 1.0 if digest[4] % 2 == 0 else -1.0
            acc[bucket] += sign
    return _as_unit(acc)


def _as_unit(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        unit = np.zeros(vec.shape, dtype=np.float64)
        unit[0] = 1.0
        return unit
    return vec / norm


def embed(texts: Sequence[str], provider) -> list[np.ndarray]:
    """Embed *texts* through *provider*, returning unit-norm vectors.

    Duplicate strings are embedded once and share a vector, so identical
    text maps to an identical vector even with a noisy remote provider.
    The provider returns one 1-D vector of its dimension per text; the HTTP
    client checks that at its boundary.
    """
    unique = list(dict.fromkeys(texts))
    if not unique:
        return []
    by_text = {text: _as_unit(vec)
               for text, vec in zip(unique, provider.embed(unique))}
    return [by_text[t] for t in texts]


def cosine_similarity(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Cosine of the angle between two sparse name->value vectors, in [-1, 1].

    The vectors align on the union of their keys, absent keys counting as 0.
    A zero vector scores 0 by convention rather than NaN.
    """
    dot = 0.0
    for key, value in a.items():
        other = b.get(key)
        if other is not None:
            dot += value * other
    norm_a = sum(v * v for v in a.values()) ** 0.5
    norm_b = sum(v * v for v in b.values()) ** 0.5
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return max(-1.0, min(1.0, dot / (norm_a * norm_b)))
