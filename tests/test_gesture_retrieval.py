"""Gesture dataset loading and phrase-to-gesture retrieval tests."""

import json
import random
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toonmotion.bvh import parse_bvh, serialize_bvh
from toonmotion.errors import MalformedEntry, MissingClip, NoNeutralGesture
from toonmotion.gesture_retrieval import (
    GestureCategory,
    GestureDataset,
    GestureEntry,
    load_gesture_dataset,
    retrieve_sequence,
)
from toonmotion.pipeline import Config
from toonmotion.text_semantics import PhraseSpan, embed

from conftest import FIXTURES, GOLDENS, constant_clip, identity_quats, make_skeleton


def span(text, ordinal=0):
    return PhraseSpan(text=text, start_char=0, end_char=len(text), ordinal=ordinal)


def write_dataset(tmp_path, rows, clip_source="g_hello.bvh"):
    """Copy one fixture clip and write a JSONL next to it."""
    clips_dir = tmp_path / "clips"
    clips_dir.mkdir(exist_ok=True)
    shutil.copy(FIXTURES / "gestures" / "clips" / clip_source, clips_dir / clip_source)
    path = tmp_path / "gestures.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def row(entry_id, phrase, category="greeting", neutral=False,
        clip="clips/g_hello.bvh", duration_s=1.2, **extra):
    base = {
        "id": entry_id,
        "phrase": phrase,
        "category": category,
        "neutral": neutral,
        "clip": clip,
        "duration_s": duration_s,
    }
    base.update(extra)
    return base


NEUTRAL_ROW = row("n_rest", "resting", category="neutral", neutral=True)


class TestLoading:
    def test_fixture_dataset_loads(self, gesture_dataset):
        assert len(gesture_dataset.entries) == 9
        assert [e.id for e in gesture_dataset.neutral_entries] == [
            "n_idle1", "n_idle2",
        ]
        for entry in gesture_dataset.entries:
            assert entry.embedding.shape == (256,)
            assert np.linalg.norm(entry.embedding) == pytest.approx(1.0, abs=1e-9)

    def test_clips_are_parsed_eagerly(self, gesture_dataset):
        clip = gesture_dataset.clip_for("g_big")
        assert clip.frame_count >= 2
        assert clip.source_id == "g_big"

    def test_missing_field(self, tmp_path, embedder):
        bad = {k: v for k, v in row("g1", "hi").items() if k != "phrase"}
        path = write_dataset(tmp_path, [bad, NEUTRAL_ROW])
        with pytest.raises(MalformedEntry) as info:
            load_gesture_dataset(path, embedder)
        assert info.value.field == "phrase"
        assert info.value.line == 1

    def test_wrong_type(self, tmp_path, embedder):
        path = write_dataset(tmp_path, [row("g1", "hi", duration_s="fast"),
                                        NEUTRAL_ROW])
        with pytest.raises(MalformedEntry) as info:
            load_gesture_dataset(path, embedder)
        assert info.value.field == "duration_s"

    def test_duplicate_id(self, tmp_path, embedder):
        path = write_dataset(
            tmp_path, [row("g1", "hi"), row("g1", "yo"), NEUTRAL_ROW]
        )
        with pytest.raises(MalformedEntry) as info:
            load_gesture_dataset(path, embedder)
        assert info.value.line == 2

    def test_unknown_category(self, tmp_path, embedder):
        path = write_dataset(
            tmp_path, [row("g1", "hi", category="interpretive_dance"), NEUTRAL_ROW]
        )
        with pytest.raises(MalformedEntry) as info:
            load_gesture_dataset(path, embedder)
        assert info.value.field == "category"

    def test_neutral_flag_category_mismatch(self, tmp_path, embedder):
        path = write_dataset(
            tmp_path, [row("g1", "hi", neutral=True), NEUTRAL_ROW]
        )
        with pytest.raises(MalformedEntry) as info:
            load_gesture_dataset(path, embedder)
        assert info.value.field == "neutral"

    def test_missing_clip_file(self, tmp_path, embedder):
        path = write_dataset(
            tmp_path, [row("g1", "hi", clip="clips/nope.bvh"), NEUTRAL_ROW]
        )
        with pytest.raises(MissingClip):
            load_gesture_dataset(path, embedder)

    def test_clip_path_too_long_for_the_file_system(self, tmp_path, embedder):
        path = write_dataset(tmp_path, [row("g1", "hi", clip="x" * 5000), NEUTRAL_ROW])
        with pytest.raises(MissingClip, match="clip file not found for 'g1'"):
            load_gesture_dataset(path, embedder)

    def test_no_neutral_entry(self, tmp_path, embedder):
        path = write_dataset(tmp_path, [row("g1", "hi")])
        with pytest.raises(NoNeutralGesture):
            load_gesture_dataset(path, embedder)

    def test_invalid_json_line(self, tmp_path, embedder):
        path = write_dataset(tmp_path, [NEUTRAL_ROW])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(MalformedEntry) as info:
            load_gesture_dataset(path, embedder)
        assert info.value.line == 2

    def odd_clip_row(self, tmp_path, clip):
        (tmp_path / "clips").mkdir(exist_ok=True)
        (tmp_path / "clips" / "odd.bvh").write_bytes(serialize_bvh(clip))
        return row("g_odd", "odd", clip="clips/odd.bvh", duration_s=clip.duration_s)

    def test_skeleton_mismatch_rejected(self, tmp_path, embedder):
        odd = constant_clip(make_skeleton(3), identity_quats(3))
        path = write_dataset(tmp_path, [NEUTRAL_ROW, self.odd_clip_row(tmp_path, odd)])
        with pytest.raises(MalformedEntry, match="'g_odd' skeleton differs") as info:
            load_gesture_dataset(path, embedder)
        assert (info.value.file, info.value.line, info.value.field) == (path, 2, "clip")

    def test_fps_mismatch_rejected(self, tmp_path, embedder):
        # The fixture clip at 60 fps over the same 1.2 s.
        hello = parse_bvh((FIXTURES / "gestures" / "clips" / "g_hello.bvh").read_bytes())
        odd = constant_clip(hello.skeleton, hello.rotations[0], frame_count=73, fps=60.0)
        path = write_dataset(tmp_path, [NEUTRAL_ROW, self.odd_clip_row(tmp_path, odd)])
        with pytest.raises(MalformedEntry,
                           match=r"'g_odd' fps 59\.99\d* != 30\.0") as info:
            load_gesture_dataset(path, embedder)
        assert (info.value.file, info.value.line, info.value.field) == (path, 2, "clip")

    def test_duration_must_match_clip(self, tmp_path, embedder):
        # g_hello.bvh runs 1.2 s at 30 fps; the limit is half a frame.
        path = write_dataset(
            tmp_path, [NEUTRAL_ROW, row("g1", "hi", duration_s=1.2 + 0.6 / 30)]
        )
        with pytest.raises(MalformedEntry) as info:
            load_gesture_dataset(path, embedder)
        assert info.value.field == "duration_s"
        assert info.value.line == 2

    def test_duration_within_half_a_frame_loads(self, tmp_path, embedder):
        path = write_dataset(
            tmp_path, [NEUTRAL_ROW, row("g1", "hi", duration_s=1.2 - 0.4 / 30)]
        )
        assert len(load_gesture_dataset(path, embedder).entries) == 2

    def test_blank_lines_skipped(self, tmp_path, embedder):
        path = write_dataset(tmp_path, [NEUTRAL_ROW])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        dataset = load_gesture_dataset(path, embedder)
        assert len(dataset.entries) == 1


class TestRetrieval:
    def test_exact_phrase_has_similarity_one(self, gesture_dataset):
        [match] = retrieve_sequence([span("Hello there.")], gesture_dataset,
                                    threshold=Config.similarity_threshold,
                                    rng=random.Random(0))
        assert match.entry.id == "g_hello"
        assert match.similarity == pytest.approx(1.0, abs=1e-9)
        assert not match.fallback

    def test_close_phrase_beats_threshold(self, gesture_dataset):
        [match] = retrieve_sequence([span("That is wonderful!")], gesture_dataset,
                                    threshold=Config.similarity_threshold,
                                    rng=random.Random(0))
        assert match.entry.id == "g_wonderful"
        assert match.similarity > 0.55
        assert not match.fallback

    def test_below_threshold_falls_back_to_neutral(self, gesture_dataset):
        rng = random.Random(7)
        [match] = retrieve_sequence(
            [span("zqxv jkwp mbfg")], gesture_dataset, rng=rng,
            threshold=Config.similarity_threshold
        )
        assert match.fallback
        assert match.entry.neutral
        assert match.similarity < 0.55

    def test_fallback_draw_matches_golden(self, gesture_dataset):
        golden = json.loads(
            (GOLDENS / "neutral_draw_seed7.json").read_text(encoding="utf-8")
        )
        [match] = retrieve_sequence(
            [span("zqxv jkwp mbfg")], gesture_dataset, rng=random.Random(7),
            threshold=Config.similarity_threshold
        )
        assert match.entry.id == golden["entry_id"]

    def test_fallback_is_seed_stable(self, gesture_dataset):
        picks = {
            retrieve_sequence(
                [span("zqxv jkwp mbfg")], gesture_dataset, rng=random.Random(7),
                threshold=Config.similarity_threshold
            )[0].entry.id
            for _ in range(100)
        }
        assert len(picks) == 1

    def test_rng_untouched_on_direct_match(self, gesture_dataset):
        rng = random.Random(3)
        before = rng.getstate()
        retrieve_sequence([span("Hello there.")], gesture_dataset, rng=rng,
                          threshold=Config.similarity_threshold)
        assert rng.getstate() == before

    def test_threshold_one_always_falls_back(self, gesture_dataset):
        [match] = retrieve_sequence(
            [span("Hello there.")], gesture_dataset,
            threshold=1.0, rng=random.Random(0),
        )
        # similarity 1.0 still clears a threshold of 1.0
        assert not match.fallback
        [match] = retrieve_sequence(
            [span("Hello friends.")], gesture_dataset,
            threshold=1.0, rng=random.Random(0),
        )
        assert match.fallback

    def test_threshold_zero_never_falls_back(self, gesture_dataset):
        [match] = retrieve_sequence([span("zqxv jkwp mbfg")], gesture_dataset,
                                    threshold=0.0, rng=random.Random(0))
        assert not match.fallback

    def test_matches_brute_force_argmax(self, gesture_dataset, embedder):
        queries = ["say hello", "look over there", "amazing news", "I agree",
                   "こんにちは", "wave to the crowd"]
        vectors = embed(queries, embedder)
        for text, vec in zip(queries, vectors):
            [match] = retrieve_sequence([span(text)], gesture_dataset, threshold=0.0,
                                        rng=random.Random(0))
            sims = {
                e.id: float(np.dot(vec, e.embedding))
                for e in gesture_dataset.entries if not e.neutral
            }
            best = max(sims.values())
            expected = min(i for i, s in sims.items() if s >= best - 1e-12)
            assert match.entry.id == expected
            assert match.similarity == pytest.approx(best, abs=1e-9)

    def test_fallback_reports_rejected_similarity(self, gesture_dataset, embedder):
        text = "zqxv jkwp mbfg"
        vec = embed([text], embedder)[0]
        best = max(
            float(np.dot(vec, e.embedding))
            for e in gesture_dataset.entries if not e.neutral
        )
        [match] = retrieve_sequence([span(text)], gesture_dataset,
                                    rng=random.Random(0),
                                    threshold=Config.similarity_threshold)
        assert match.similarity == pytest.approx(best, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_fallback_is_monotone_in_threshold(self, gesture_dataset, threshold):
        [match] = retrieve_sequence(
            [span("wave hello to everyone")], gesture_dataset,
            threshold=threshold, rng=random.Random(1),
        )
        [direct] = retrieve_sequence(
            [span("wave hello to everyone")], gesture_dataset, threshold=0.0,
            rng=random.Random(0)
        )
        if match.fallback:
            assert direct.similarity < threshold
        else:
            assert direct.similarity >= threshold


TIE_PHRASES = [
    "Hello there.", "It was this big", "Really truly important",
    "Look over there", "I see, go on", "That is wonderful",
    "a tiny little box", "over the hills and far away", "please come with me",
    "what a strange idea", "I cannot believe it", "let us get started",
    "so many small boats", "never again, I promise",
]


@pytest.mark.parametrize("dup_id", ["a_dup", "z_dup"])
def test_duplicate_phrase_ties_to_ascending_id_at_every_row(embedder, dup_id):
    vecs = embed(TIE_PHRASES, embedder)

    def entry(entry_id, k):
        return GestureEntry(entry_id, TIE_PHRASES[k], vecs[k],
                            GestureCategory.ICONIC, False, 1.0)

    neutral = GestureEntry("n_rest", "resting", vecs[0],
                           GestureCategory.NEUTRAL, True, 1.0)
    wrong = []
    for k in range(len(TIE_PHRASES)):
        expected = min(dup_id, f"g{k:02d}")
        for position in range(len(TIE_PHRASES) + 1):
            entries = [entry(f"g{i:02d}", i) for i in range(len(TIE_PHRASES))]
            entries.insert(position, entry(dup_id, k))
            dataset = GestureDataset(entries + [neutral], embedder, {})
            winner, _ = dataset.best_non_neutral(vecs[k])
            if winner.id != expected:
                wrong.append((TIE_PHRASES[k], position, winner.id))
    assert wrong == []


class TestSequence:
    def test_order_and_ordinals(self, gesture_dataset):
        phrases = [span("Hello there.", 0), span("That is wonderful!", 1)]
        matches = retrieve_sequence(phrases, gesture_dataset,
                                    threshold=Config.similarity_threshold,
                                    rng=random.Random(0))
        assert [m.entry.id for m in matches] == ["g_hello", "g_wonderful"]
        assert [m.phrase_ordinal for m in matches] == [0, 1]

    def test_deterministic_with_seed(self, gesture_dataset):
        phrases = [span("zq one", 0), span("zq two", 1), span("zq three", 2)]

        def run():
            return [
                m.entry.id
                for m in retrieve_sequence(
                    phrases, gesture_dataset, rng=random.Random(11),
                    threshold=Config.similarity_threshold
                )
            ]

        first = run()
        assert all(run() == first for _ in range(20))

    def test_rng_consumed_in_phrase_order(self, gesture_dataset):
        # A direct hit between two fallbacks must not shift the draws that
        # the fallbacks make.
        mixed = [span("zq one", 0), span("Hello there.", 1), span("zq two", 2)]
        only_fallbacks = [span("zq one", 0), span("zq two", 1)]
        picks_mixed = [
            m.entry.id
            for m in retrieve_sequence(mixed, gesture_dataset,
                                       rng=random.Random(5),
                                       threshold=Config.similarity_threshold)
            if m.fallback
        ]
        picks_plain = [
            m.entry.id
            for m in retrieve_sequence(only_fallbacks, gesture_dataset,
                                       rng=random.Random(5),
                                       threshold=Config.similarity_threshold)
        ]
        assert picks_mixed == picks_plain

    def test_empty_sequence(self, gesture_dataset):
        assert retrieve_sequence([], gesture_dataset,
                                 threshold=Config.similarity_threshold,
                                 rng=random.Random(0)) == []

    def test_all_similarities_in_range(self, gesture_dataset):
        phrases = [span(t, i) for i, t in enumerate(
            ["hello", "wow", "zqxv", "look", "見て", "what a day"]
        )]
        for m in retrieve_sequence(phrases, gesture_dataset,
                                   rng=random.Random(2),
                                   threshold=Config.similarity_threshold):
            assert -1.0 <= m.similarity <= 1.0

    def test_categories_exposed(self, gesture_dataset):
        [match] = retrieve_sequence([span("Hello there.")], gesture_dataset,
                                    threshold=Config.similarity_threshold,
                                    rng=random.Random(0))
        assert match.entry.category is GestureCategory.GREETING
