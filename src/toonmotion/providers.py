"""Embedding and emotion providers.

Two provider kinds feed the pipeline: a sentence-embedding service and an
emotion estimator. Each has an offline implementation (deterministic, no
network) and an HTTP client speaking a small JSON protocol:

    POST /v1/embed    {"texts": [...]}            -> {"vectors": [[...]], "dim": int, "model": str}
    POST /v1/emotion  {"text": str, "image_ref": str|null} -> {"emotions": {name: num}}

HTTP clients retry transient failures with exponential backoff and raise
ProviderUnavailable once retries are exhausted.
"""

from __future__ import annotations

import logging
import re
import time
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ProviderUnavailable, ValidationError
from .jsonutil import json_value, read_json
from .text_semantics import reference_embed

log = logging.getLogger(__name__)

DEFAULT_BACKOFF_S = 0.5

_WORD_RE = re.compile(r"[a-z']+")


def packaged_data_path(name: str) -> Path:
    """Path of a data file shipped inside the package."""
    return Path(str(resources.files("toonmotion").joinpath("data", name)))


def load_emotion_categories(path: str | Path | None = None) -> list[str]:
    """The category list at *path*, else the packaged list of 130 names."""
    path = packaged_data_path("emotion_categories.json") if path is None else Path(path)
    error = partial(ValidationError, file=path)
    names = json_value(read_json(path), list, "emotion categories", error)
    return [json_value(name, str, f"emotion category {i}", error)
            for i, name in enumerate(names)]


def load_emotion_lexicon() -> dict[str, dict[str, float]]:
    return read_json(packaged_data_path("emotion_lexicon.json"))


class ReferenceEmbedder:
    """Offline deterministic embedder (hashed character n-grams)."""

    model = "ngram-hash-256-v1"

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [reference_embed(t) for t in texts]


class LexiconEmotionProvider:
    """Keyword-lexicon emotion estimator for offline operation.

    Stems are matched against lowercased word tokens by prefix; stems
    containing non-ASCII characters (e.g. Japanese) match by substring.
    Hits aggregate per category by max. No hits yields {Calmness: 0.5}.
    """

    model = "keyword-lexicon-v1"

    def __init__(self, lexicon: dict[str, dict[str, float]] | None = None):
        self.lexicon = load_emotion_lexicon() if lexicon is None else dict(lexicon)
        # Indexed once: a token starts with an ASCII stem exactly when its
        # prefix of the stem's length is the stem, so infer tests ASCII stems
        # against the set of token prefixes up to the longest one.
        self._stems = [(stem, stem.isascii(), emotions)
                       for stem, emotions in self.lexicon.items()]
        self._prefix_len = max(
            (len(stem) for stem, is_ascii, _ in self._stems if is_ascii), default=0)

    def infer(self, text: str, image_ref: str | None = None) -> dict[str, float]:
        prefixes = {tok[:n] for tok in _WORD_RE.findall(text.lower())
                    for n in range(self._prefix_len + 1)}
        found: dict[str, float] = {}
        for stem, is_ascii, emotions in self._stems:
            hit = stem in prefixes if is_ascii else stem in text
            if not hit:
                continue
            for name, intensity in emotions.items():
                if intensity > found.get(name, 0.0):
                    found[name] = intensity
        if not found:
            return {"Calmness": 0.5}
        return found


class _HttpClient:
    """A JSON-over-HTTP client that retries 5xx and transport errors with
    exponential backoff."""

    model = "remote"

    def __init__(
        self,
        endpoint: str,
        timeout_s: float,
        retries: int,
        backoff_s: float = DEFAULT_BACKOFF_S,
        session=None,
    ):
        if session is None:
            import requests

            session = requests.Session()
        self.endpoint = endpoint.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.session = session

    def _post(self, route: str, payload: dict) -> dict:
        """POST *payload* to *route*; returns the parsed body."""
        import requests

        url = f"{self.endpoint}{route}"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt > 0 and self.backoff_s > 0:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            try:
                response = self.session.post(url, json=payload, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code >= 500:
                last_error = ProviderUnavailable(
                    f"{url} returned {response.status_code}"
                )
                continue
            if response.status_code != 200:
                raise ProviderUnavailable(f"{url} returned {response.status_code}")
            try:
                return response.json()
            except ValueError as exc:
                raise ProviderUnavailable(f"{url} returned invalid JSON: {exc}") from exc
        raise ProviderUnavailable(
            f"{url} unavailable after {self.retries + 1} attempts: {last_error}"
        )


class HttpEmbeddingProvider(_HttpClient):
    """Client for the /v1/embed endpoint."""

    dim: int | None = None

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One vector per text, each of the dimension every response declares."""
        texts = list(texts)
        body = json_value(self._post("/v1/embed", {"texts": texts}), dict,
                          "embed response", ProviderUnavailable)
        vectors = json_value(body.get("vectors"), list, "embed response 'vectors'",
                             ProviderUnavailable)
        dim = json_value(body.get("dim"), int, "embed response 'dim'",
                         ProviderUnavailable)
        self.model = json_value(body.get("model", self.model), str,
                                "embed response 'model'", ProviderUnavailable)
        if dim < 1:
            raise DimensionMismatch(f"embed response 'dim' must be positive, not {dim}")
        if self.dim is None:
            self.dim = dim
        elif dim != self.dim:
            raise DimensionMismatch(f"provider dim changed from {self.dim} to {dim}")
        if len(vectors) != len(texts):
            raise DimensionMismatch(
                f"provider returned {len(vectors)} vectors for {len(texts)} texts"
            )
        out = []
        for vec in vectors:
            vec = json_value(vec, list, "embed vector", ProviderUnavailable)
            if len(vec) != dim:
                raise DimensionMismatch(
                    f"vector length {len(vec)} does not match declared dim {dim}"
                )
            out.append(np.array([json_value(v, float, "embed vector value",
                                            ProviderUnavailable) for v in vec]))
        return out


class HttpEmotionProvider(_HttpClient):
    """Client for the /v1/emotion endpoint."""

    def infer(self, text: str, image_ref: str | None = None) -> dict[str, float]:
        body = self._post("/v1/emotion", {"text": text, "image_ref": image_ref})
        body = json_value(body, dict, "emotion response", ProviderUnavailable)
        emotions = json_value(body.get("emotions"), dict, "emotion response 'emotions'",
                              ProviderUnavailable)
        return {name: json_value(v, float, f"emotion {name!r}", ProviderUnavailable)
                for name, v in emotions.items()}


class FallbackEmotionProvider:
    """Try a primary provider, fall back to the lexicon when unreachable."""

    def __init__(self, primary, fallback):
        self.primary = primary
        self.fallback = fallback

    def infer(self, text: str, image_ref: str | None = None) -> dict[str, float]:
        try:
            return self.primary.infer(text, image_ref)
        except ProviderUnavailable as exc:
            log.warning("emotion provider unavailable, using lexicon fallback: %s", exc)
            return self.fallback.infer(text, image_ref)
