import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toonmotion.errors import DimensionMismatch
from toonmotion.text_semantics import (
    MAX_PHRASE_CHARS,
    REFERENCE_DIM,
    PhraseSpan,
    cosine_similarity,
    embed,
    reference_embed,
    segment_phrases,
)


class TestSegmentation:
    def test_two_english_sentences(self):
        spans = segment_phrases("Hello there. How are you?")
        assert [s.text for s in spans] == ["Hello there.", "How are you?"]

    def test_japanese_delimiters_consumed(self):
        spans = segment_phrases("こんにちは、元気ですか。")
        assert [s.text for s in spans] == ["こんにちは", "元気ですか"]

    def test_single_phrase_keeps_ascii_mark(self):
        spans = segment_phrases("Hello there.")
        assert [s.text for s in spans] == ["Hello there."]

    def test_ordinals_are_sequential(self):
        spans = segment_phrases("One. Two. Three.")
        assert [s.ordinal for s in spans] == [0, 1, 2]

    def test_empty_text(self):
        assert segment_phrases("") == []
        assert segment_phrases("   ") == []

    def test_delimiter_only_text(self):
        # ASCII marks attach to the (empty) preceding phrase and survive;
        # CJK delimiters are consumed outright.
        assert [s.text for s in segment_phrases("...")] == ["..."]
        assert segment_phrases("。。。") == []

    def test_mixed_scripts(self):
        spans = segment_phrases("That is wonderful! すごいですね。")
        assert [s.text for s in spans] == ["That is wonderful!", "すごいですね"]

    def test_long_phrase_is_rechunked(self):
        text = "word " * 20  # 100 chars, no sentence delimiters
        spans = segment_phrases(text)
        assert len(spans) > 1
        assert all(len(s.text) <= MAX_PHRASE_CHARS for s in spans)

    def test_spans_reference_source_offsets(self):
        text = "Hi there. Bye now."
        for span in segment_phrases(text):
            assert text[span.start_char:span.end_char].strip() == span.text

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_segmentation_never_drops_non_delimiter_content(self, text):
        spans = segment_phrases(text)
        delimiters = set(".!?,;。．、！？")

        def droppable(ch):
            return ch in delimiters or ch.isspace()

        kept = "".join(ch for s in spans for ch in s.text if not droppable(ch))
        expected = "".join(ch for ch in text if not droppable(ch))
        assert kept == expected

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_phrases_respect_max_length(self, text):
        for span in segment_phrases(text):
            assert 0 < len(span.text) <= MAX_PHRASE_CHARS


class TestReferenceEmbed:
    def test_unit_norm(self):
        for text in ("hello", "こんにちは", "a", "x" * 100):
            vec = reference_embed(text)
            assert vec.shape == (REFERENCE_DIM,)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_deterministic(self):
        a = reference_embed("dialogue phrase")
        b = reference_embed("dialogue phrase")
        np.testing.assert_array_equal(a, b)

    def test_different_texts_differ(self):
        a = reference_embed("hello there")
        b = reference_embed("goodbye now")
        assert not np.allclose(a, b)

    def test_empty_text_is_basis_vector(self):
        vec = reference_embed("")
        assert vec[0] == 1.0
        assert np.count_nonzero(vec) == 1

    def test_golden_vector(self, goldens_dir):
        golden = json.loads(
            (goldens_dir / "ref_embed_konnichiwa.json").read_text(encoding="utf-8")
        )
        vec = reference_embed("こんにちは")
        np.testing.assert_allclose(vec, np.array(golden), atol=1e-9)

    @given(st.text(max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_always_unit_norm(self, text):
        assert abs(np.linalg.norm(reference_embed(text)) - 1.0) < 1e-9


class _FixedDimProvider:
    dim = 4
    model = "stub"

    def __init__(self, table):
        self.table = table
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return [np.asarray(self.table[t], dtype=float) for t in texts]


class TestEmbed:
    def test_deduplicates_before_calling_provider(self):
        provider = _FixedDimProvider({"a": [1, 0, 0, 0], "b": [0, 2, 0, 0]})
        out = embed(["a", "b", "a"], provider)
        assert provider.calls == [["a", "b"]]
        assert len(out) == 3
        np.testing.assert_allclose(out[0], out[2])

    def test_renormalizes(self):
        provider = _FixedDimProvider({"b": [0, 2, 0, 0]})
        out = embed(["b"], provider)
        assert abs(np.linalg.norm(out[0]) - 1.0) < 1e-12

    def test_zero_vector_becomes_basis(self):
        provider = _FixedDimProvider({"z": [0, 0, 0, 0]})
        out = embed(["z"], provider)
        assert out[0][0] == 1.0

    def test_dimension_mismatch(self):
        class Bad:
            dim = 4
            model = "bad"

            def embed(self, texts):
                return [np.zeros(3) for _ in texts]

        with pytest.raises(DimensionMismatch):
            embed(["x"], Bad())

    def test_wrong_count(self):
        class Short:
            dim = 4
            model = "short"

            def embed(self, texts):
                return []

        with pytest.raises(DimensionMismatch):
            embed(["x"], Short())


class TestCosine:
    def test_sparse_worked_example(self):
        query = {"Joy": 0.8, "Amusement": 0.7, "Interest": 0.65}
        target = {"Joy": 1.0}
        assert cosine_similarity(query, target) == pytest.approx(0.6421, abs=1e-4)

    def test_identity(self):
        v = {"Joy": 0.8, "Fear": 0.3, "Interest": 0.65}
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_sparse(self):
        a = {"Joy": 0.5, "Fear": 0.2}
        b = {"Joy": 0.1, "Anger": 0.9}
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))

    def test_scale_invariance_sparse(self):
        a = {"Joy": 0.5, "Fear": 0.2}
        b = {"Joy": 0.1, "Anger": 0.9}
        scaled = {k: v * 7.3 for k, v in a.items()}
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(scaled, b), abs=1e-12
        )

    def test_disjoint_keys_zero(self):
        assert cosine_similarity({"Joy": 1.0}, {"Fear": 1.0}) == 0.0

    def test_zero_vectors(self):
        assert cosine_similarity({}, {"Joy": 1.0}) == 0.0
        assert cosine_similarity({"Joy": 0.0}, {"Joy": 0.0}) == 0.0

    @given(
        st.dictionaries(st.sampled_from(["Joy", "Fear", "Anger"]), st.floats(-5, 5)),
        st.dictionaries(st.sampled_from(["Joy", "Fear", "Anger"]), st.floats(-5, 5)),
    )
    @settings(max_examples=100, deadline=None)
    def test_result_in_range(self, a, b):
        assert -1.0 <= cosine_similarity(a, b) <= 1.0
