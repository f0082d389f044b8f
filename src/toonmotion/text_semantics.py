"""Phrase segmentation, embeddings, and sparse cosine similarity.

Dialogue text is cut into phrases at sentence/clause punctuation, each
phrase is embedded as a unit-norm vector, and matches are scored by cosine
similarity. The bundled reference embedder is a deterministic hashed
character n-gram model so the whole pipeline runs offline with no model
weights; real deployments swap in a remote sentence-embedding provider.
"""

from __future__ import annotations

import hashlib
import re
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

# The phrase grammar. A phrase is the text up to a maximal run of
# delimiters plus the run's leading ASCII marks; the rest of the run is
# dropped. A phrase is trimmed of whitespace and, while longer than
# MAX_PHRASE_CHARS, cut after the longest stretch of 1 to MAX_PHRASE_CHARS
# characters that whitespace follows: the stretch is trimmed and that one
# whitespace character dropped. A stretch that no whitespace follows is cut
# hard at MAX_PHRASE_CHARS, untrimmed. `\s` matches exactly the characters
# `str.isspace()` accepts.
_PHRASE = re.compile("([^{all}]*[{ascii}]*)[{all}]*".format(
    all=re.escape(PHRASE_DELIMITERS), ascii=re.escape(ASCII_DELIMITERS)))
_CUT = re.compile(f".{{1,{MAX_PHRASE_CHARS}}}(?=\\s)", re.DOTALL)
_TRIM = re.compile(r"\S(?:.*\S)?", re.DOTALL)

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


def segment_phrases(text: str) -> list[PhraseSpan]:
    """Split dialogue text into phrase spans by the phrase grammar above.

    Empty input yields an empty list.
    """
    spans: list[tuple[int, int]] = []
    for phrase in _PHRASE.finditer(text):
        kept = _TRIM.search(text, *phrase.span(1))
        if kept is None:
            continue
        start, end = kept.span()
        while end - start > MAX_PHRASE_CHARS:
            cut = _CUT.match(text, start, end)
            if cut is None:
                spans.append((start, start + MAX_PHRASE_CHARS))
                start += MAX_PHRASE_CHARS
                continue
            kept = _TRIM.search(text, start, cut.end())
            if kept is not None:
                spans.append(kept.span())
            start = cut.end() + 1
        kept = _TRIM.search(text, start, end)
        if kept is not None:
            spans.append(kept.span())
    return [
        PhraseSpan(text=text[s:e], start_char=s, end_char=e, ordinal=k)
        for k, (s, e) in enumerate(spans)
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
