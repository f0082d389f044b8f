"""Tests for embedding/emotion providers and the packaged data files."""

import json

import numpy as np
import pytest
import requests

from toonmotion.errors import DimensionMismatch, ProviderUnavailable
from toonmotion.providers import (
    FallbackEmotionProvider,
    HttpEmbeddingProvider,
    HttpEmotionProvider,
    LexiconEmotionProvider,
    ReferenceEmbedder,
    load_emotion_categories,
    load_emotion_lexicon,
    packaged_data_path,
)
from toonmotion.pipeline import Config


class StubResponse:
    def __init__(self, status_code, body=None, raw=None):
        self.status_code = status_code
        self._body = body
        self._raw = raw

    def json(self):
        if self._body is None:
            raise ValueError(f"not json: {self._raw!r}")
        return self._body


class StubSession:
    """Replays a scripted list of responses/exceptions, recording requests."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, timeout=None):
        self.calls.append({"url": url, "json": json, "timeout": timeout})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def embed_body(texts, dim=4, model="stub"):
    return {
        "vectors": [[1.0] + [0.0] * (dim - 1) for _ in texts],
        "dim": dim,
        "model": model,
    }


class TestPackagedData:
    def test_categories_count_and_uniqueness(self):
        names = load_emotion_categories()
        assert len(names) == 130
        assert len(set(names)) == 130
        assert names == sorted(names)

    def test_categories_cover_core_emotions(self):
        names = set(load_emotion_categories())
        for expected in ("Joy", "Amusement", "Interest", "Calmness",
                         "Sadness", "Anger", "Fear", "Surprise", "Shock"):
            assert expected in names

    def test_lexicon_emotions_are_known_categories(self):
        names = set(load_emotion_categories())
        lexicon = load_emotion_lexicon()
        for stem, emotions in lexicon.items():
            for name, intensity in emotions.items():
                assert name in names, f"{stem} maps to unknown {name}"
                assert 0.0 < intensity <= 1.0

    def test_packaged_path_exists(self):
        path = packaged_data_path("emotion_categories.json")
        assert path.is_file()
        json.loads(path.read_text(encoding="utf-8"))


class TestLexiconProvider:
    def test_wonderful_maps_to_joy(self):
        provider = LexiconEmotionProvider()
        assert provider.infer("That is wonderful") == {"Joy": 0.8}

    def test_no_hit_defaults_to_calmness(self):
        provider = LexiconEmotionProvider()
        assert provider.infer("the the the") == {"Calmness": 0.5}

    def test_stem_matches_word_prefix_only(self):
        provider = LexiconEmotionProvider({"sad": {"Sadness": 0.7}})
        assert provider.infer("A sadder day") == {"Sadness": 0.7}
        # "sad" inside another word body should not fire
        assert provider.infer("the crusade begins") == {"Calmness": 0.5}

    def test_case_insensitive(self):
        provider = LexiconEmotionProvider()
        assert provider.infer("WONDERFUL news!") == {"Joy": 0.8}

    def test_max_intensity_wins_per_category(self):
        provider = LexiconEmotionProvider({
            "glad": {"Joy": 0.4},
            "thrill": {"Joy": 0.9},
        })
        assert provider.infer("glad and thrilled") == {"Joy": 0.9}

    def test_non_ascii_stem_is_substring_match(self):
        provider = LexiconEmotionProvider()
        result = provider.infer("とても嬉しいです")
        assert result.get("Joy", 0.0) > 0.0

    def test_multiple_categories_accumulate(self):
        provider = LexiconEmotionProvider({
            "bittersweet": {"Joy": 0.3, "Sadness": 0.5},
        })
        assert provider.infer("a bittersweet ending") == {"Joy": 0.3, "Sadness": 0.5}


class TestReferenceEmbedder:
    def test_protocol_fields(self):
        embedder = ReferenceEmbedder()
        assert embedder.embed(["hello"])[0].shape == (256,)
        assert embedder.model == "ngram-hash-256-v1"

    def test_batch_embedding_matches_single(self):
        embedder = ReferenceEmbedder()
        batch = embedder.embed(["hello", "world"])
        assert len(batch) == 2
        solo = embedder.embed(["hello"])[0]
        np.testing.assert_array_equal(batch[0], solo)


class TestHttpEmbeddingProvider:
    def test_success_first_try(self):
        session = StubSession([StubResponse(200, embed_body(["a"]))])
        provider = HttpEmbeddingProvider("http://x", session=session, backoff_s=0,
                                         timeout_s=Config.timeout_s,
                                         retries=Config.retries)
        vectors = provider.embed(["a"])
        assert len(vectors) == 1
        assert provider.dim == 4
        assert provider.model == "stub"
        assert session.calls[0]["url"] == "http://x/v1/embed"
        assert session.calls[0]["json"] == {"texts": ["a"]}

    def test_retries_past_transient_5xx(self):
        session = StubSession([
            StubResponse(500),
            StubResponse(503),
            StubResponse(200, embed_body(["a"])),
        ])
        provider = HttpEmbeddingProvider(
            "http://x", session=session, retries=2, backoff_s=0,
            timeout_s=Config.timeout_s
        )
        assert len(provider.embed(["a"])) == 1
        assert len(session.calls) == 3

    def test_retries_past_transport_error(self):
        session = StubSession([
            requests.ConnectionError("refused"),
            StubResponse(200, embed_body(["a"])),
        ])
        provider = HttpEmbeddingProvider(
            "http://x", session=session, retries=1, backoff_s=0,
            timeout_s=Config.timeout_s
        )
        assert len(provider.embed(["a"])) == 1

    def test_backoff_doubles_after_each_attempt(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("toonmotion.providers.time.sleep", sleeps.append)
        session = StubSession([StubResponse(500)] * 3)
        provider = HttpEmbeddingProvider(
            "http://x", session=session, retries=2, backoff_s=0.5,
            timeout_s=Config.timeout_s
        )
        with pytest.raises(ProviderUnavailable):
            provider.embed(["a"])
        assert sleeps == [0.5, 1.0]

    def test_exhausted_retries_raise(self):
        session = StubSession([StubResponse(500)] * 3)
        provider = HttpEmbeddingProvider(
            "http://x", session=session, retries=2, backoff_s=0,
            timeout_s=Config.timeout_s
        )
        with pytest.raises(ProviderUnavailable):
            provider.embed(["a"])
        assert len(session.calls) == 3

    def test_4xx_fails_without_retry(self):
        session = StubSession([StubResponse(404)])
        provider = HttpEmbeddingProvider(
            "http://x", session=session, retries=2, backoff_s=0,
            timeout_s=Config.timeout_s
        )
        with pytest.raises(ProviderUnavailable):
            provider.embed(["a"])
        assert len(session.calls) == 1

    def test_invalid_json_body(self):
        session = StubSession([StubResponse(200, raw="<html>")])
        provider = HttpEmbeddingProvider("http://x", session=session, backoff_s=0,
                                         timeout_s=Config.timeout_s,
                                         retries=Config.retries)
        with pytest.raises(ProviderUnavailable):
            provider.embed(["a"])

    def test_missing_fields(self):
        session = StubSession([StubResponse(200, {"nope": 1})])
        provider = HttpEmbeddingProvider("http://x", session=session, backoff_s=0,
                                         timeout_s=Config.timeout_s,
                                         retries=Config.retries)
        with pytest.raises(ProviderUnavailable):
            provider.embed(["a"])

    def test_dim_drift_between_calls(self):
        session = StubSession([
            StubResponse(200, embed_body(["a"], dim=4)),
            StubResponse(200, embed_body(["b"], dim=8)),
        ])
        provider = HttpEmbeddingProvider("http://x", session=session, backoff_s=0,
                                         timeout_s=Config.timeout_s,
                                         retries=Config.retries)
        provider.embed(["a"])
        with pytest.raises(DimensionMismatch):
            provider.embed(["b"])

    def test_vector_shape_mismatch(self):
        body = {"vectors": [[1.0, 0.0]], "dim": 4, "model": "stub"}
        session = StubSession([StubResponse(200, body)])
        provider = HttpEmbeddingProvider("http://x", session=session, backoff_s=0,
                                         timeout_s=Config.timeout_s,
                                         retries=Config.retries)
        with pytest.raises(DimensionMismatch):
            provider.embed(["a"])

    def test_fewer_vectors_than_texts(self):
        session = StubSession([StubResponse(200, embed_body(["a"]))])
        provider = HttpEmbeddingProvider("http://x", session=session, backoff_s=0,
                                         timeout_s=Config.timeout_s,
                                         retries=Config.retries)
        with pytest.raises(DimensionMismatch, match="1 vectors for 2 texts"):
            provider.embed(["a", "b"])

    def test_non_positive_dim(self):
        body = {"vectors": [[]], "dim": 0, "model": "stub"}
        session = StubSession([StubResponse(200, body)])
        provider = HttpEmbeddingProvider("http://x", session=session, backoff_s=0,
                                         timeout_s=Config.timeout_s,
                                         retries=Config.retries)
        with pytest.raises(DimensionMismatch, match="must be positive"):
            provider.embed(["a"])

    def test_trailing_slash_normalized(self):
        session = StubSession([StubResponse(200, embed_body(["a"]))])
        provider = HttpEmbeddingProvider("http://x/", session=session, backoff_s=0,
                                         timeout_s=Config.timeout_s,
                                         retries=Config.retries)
        provider.embed(["a"])
        assert session.calls[0]["url"] == "http://x/v1/embed"


class TestHttpEmotionProvider:
    def test_success(self):
        session = StubSession([StubResponse(200, {"emotions": {"Joy": 0.8}})])
        provider = HttpEmotionProvider("http://x", session=session, backoff_s=0,
                                       timeout_s=Config.timeout_s,
                                       retries=Config.retries)
        assert provider.infer("yay", "img.png") == {"Joy": 0.8}
        assert session.calls[0]["url"] == "http://x/v1/emotion"
        assert session.calls[0]["json"] == {"text": "yay", "image_ref": "img.png"}

    def test_malformed_body(self):
        session = StubSession([StubResponse(200, {"emotions": [1, 2]})])
        provider = HttpEmotionProvider("http://x", session=session, backoff_s=0,
                                       timeout_s=Config.timeout_s,
                                       retries=Config.retries)
        with pytest.raises(ProviderUnavailable):
            provider.infer("yay")


class TestFallbackEmotionProvider:
    def test_uses_primary_when_healthy(self):
        session = StubSession([StubResponse(200, {"emotions": {"Awe": 0.9}})])
        primary = HttpEmotionProvider("http://x", session=session, backoff_s=0,
                                      timeout_s=Config.timeout_s,
                                      retries=Config.retries)
        provider = FallbackEmotionProvider(primary, LexiconEmotionProvider())
        assert provider.infer("wonderful") == {"Awe": 0.9}

    def test_falls_back_when_unreachable(self):
        session = StubSession([StubResponse(500)] * 3)
        primary = HttpEmotionProvider(
            "http://x", session=session, retries=2, backoff_s=0,
            timeout_s=Config.timeout_s
        )
        provider = FallbackEmotionProvider(primary, LexiconEmotionProvider())
        assert provider.infer("That is wonderful") == {"Joy": 0.8}


# Bodies a provider answers with status 200 that carry no usable data.
MALFORMED_BODIES = {
    "emotion_array_body": ("emotion", [{"Joy": 0.5}]),
    "emotion_non_numeric": ("emotion", {"emotions": {"Joy": "lots"}}),
    "emotion_nan": ("emotion", {"emotions": {"Joy": float("nan")}}),
    "embed_nan_component": ("embed", {"vectors": [[float("nan"), 1.0]], "dim": 2}),
    "embed_non_numeric_component": ("embed", {"vectors": [["a", 1]], "dim": 2}),
    "embed_vectors_not_a_list": ("embed", {"vectors": 5, "dim": 2}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BODIES))
def test_malformed_body_is_unavailable(case):
    kind, body = MALFORMED_BODIES[case]
    client = HttpEmbeddingProvider if kind == "embed" else HttpEmotionProvider

    def provider():
        return client("http://x", session=StubSession([StubResponse(200, body)]),
                      backoff_s=0, timeout_s=Config.timeout_s, retries=0)

    with pytest.raises(ProviderUnavailable):
        if kind == "embed":
            provider().embed(["a"])
        else:
            provider().infer("That is wonderful")
    if kind == "emotion":
        fallback = FallbackEmotionProvider(provider(), LexiconEmotionProvider())
        assert fallback.infer("That is wonderful") == {"Joy": 0.8}
