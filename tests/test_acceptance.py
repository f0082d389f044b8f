"""Acceptance suite: one test per shipping criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Each test is self-contained and uses only the committed fixtures.
"""

import math
import random
import time

import numpy as np
import pytest

from toonmotion.bvh import parse_bvh, serialize_bvh
from toonmotion.expression_dataset import (
    CHANNEL_REGISTRY,
    EXAGGERATION_CHANNELS,
    EYELID_CHANNELS,
    ExpressionEntry,
    build_dataset,
    empty_blendshapes,
)
from toonmotion.face_engine import (
    compose_face_track,
    fallback_phonemes,
    infer_dialogue_emotion,
    load_viseme_table,
    retrieve_expression,
    schedule_blinks,
)
from toonmotion.gesture_retrieval import retrieve_sequence
from toonmotion.motion_compose import retime_to_speech, stitch_clips
from toonmotion.pipeline import Config, DialogueRequest, load_config, synthesize
from toonmotion.providers import LexiconEmotionProvider, load_emotion_categories
from toonmotion.text_semantics import PhraseSpan, reference_embed

from conftest import FIXTURES, angle_between, max_frame_jump

_MODULE_T0 = time.monotonic()

GIBBERISH = [
    "zqxv jkwp mbfg",
    "xilophrandic quowest",
    "brzmt klonvex yuwip",
    "qwopzik vrenlod",
    "fblthp mrrgl zzyx",
    "xantheq jorvulp",
    "plizzat wunkrof deeqs",
    "grexneb ovlitz",
]

PHRASES = [
    "Hello there.",
    "hello everyone",
    "That is wonderful!",
    "wonderful news today",
    "I see, go on",
    "look over there",
    "really, is that so",
    "こんにちは",
    "what a big fish",
    "this is quite something",
] + GIBBERISH


def spans(texts):
    return [PhraseSpan(t, 0, len(t), i) for i, t in enumerate(texts)]


def oracle_matches(texts, dataset, threshold, rng):
    """Independent argmax-cosine reference for the retrieval contract."""
    neutrals = sorted((e for e in dataset.entries if e.neutral),
                      key=lambda e: e.id)
    results = []
    for text in texts:
        vec = reference_embed(text)
        sims = {}
        for e in dataset.entries:
            if e.neutral:
                continue
            sims[e.id] = float(np.dot(vec, e.embedding))
        best = max(sims.values())
        winner = min(i for i, s in sims.items() if s >= best)
        if best >= threshold:
            results.append((winner, best, False))
        else:
            pick = neutrals[rng.randrange(len(neutrals))]
            results.append((pick.id, best, True))
    return results


class TestAcceptance:
    def test_1_retrieval_matches_oracle(self, gesture_dataset):
        t0 = time.monotonic()
        for seed in range(5):
            expected = oracle_matches(
                PHRASES, gesture_dataset, 0.55, random.Random(seed)
            )
            got = retrieve_sequence(
                spans(PHRASES), gesture_dataset, 0.55, random.Random(seed)
            )
            for (eid, esim, efall), match in zip(expected, got):
                assert match.entry.id == eid
                assert match.similarity == pytest.approx(esim, abs=1e-9)
                assert match.fallback == efall
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        print(f"PASS criterion 1: retrieval == brute-force oracle on "
              f"{len(PHRASES)} phrases x 5 seeds in {elapsed:.2f}s")

    def test_2_reference_similarity_example(self):
        class Stub:
            def infer(self, text, image_ref=None):
                return {"Joy": 0.8, "Amusement": 0.7, "Interest": 0.65}

        query = infer_dialogue_emotion("what a delight", Stub(),
                                       categories=load_emotion_categories())
        entries = [
            ExpressionEntry("joy_face", empty_blendshapes(), {"Joy": 1.0}, {}),
            ExpressionEntry("sad_face", empty_blendshapes(), {"Sadness": 1.0}, {}),
        ]
        best, sim = retrieve_expression(query, entries)
        assert best.id == "joy_face"
        expected = 0.8 / math.sqrt(0.8**2 + 0.7**2 + 0.65**2)
        assert sim == pytest.approx(expected, abs=1e-12)
        assert abs(sim - 0.6421) <= 1e-4
        print(f"PASS criterion 2: worked similarity example = {sim:.6f} "
              f"(reference 0.6421 +/- 1e-4)")

    def test_3_stitching_adds_no_discontinuities(self, gesture_dataset):
        ids = [e.id for e in gesture_dataset.entries]
        rng = random.Random(1234)
        cases = 0
        worst_excess = -1.0
        worst_norm = 0.0
        while cases < 50:
            count = rng.randint(2, 5)
            combo = rng.sample(ids, count)
            clips = [gesture_dataset.clip_for(i) for i in combo]
            source_max = max(max_frame_jump(c.rotations) for c in clips)
            track = stitch_clips(clips, blend_s=Config.blend_s)
            excess = max_frame_jump(track.rotations) - source_max
            worst_excess = max(worst_excess, excess)
            norms = np.linalg.norm(track.rotations, axis=-1)
            worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
            assert excess <= 1e-6, combo
            assert worst_norm <= 1e-5
            cases += 1
        print(f"PASS criterion 3: 50 stitched sequences, worst jump excess "
              f"{worst_excess:.2e} rad (limit 1e-6), worst |norm-1| "
              f"{worst_norm:.2e}")

    def test_4_retiming_aligns_to_speech(self, gesture_dataset):
        ids = [e.id for e in gesture_dataset.entries]
        rng = random.Random(99)
        worst = 0.0
        for _ in range(50):
            combo = rng.sample(ids, rng.randint(1, 4))
            clips = [gesture_dataset.clip_for(i) for i in combo]
            track = stitch_clips(clips, blend_s=Config.blend_s)
            speech = rng.uniform(0.5, 9.0)
            out = retime_to_speech(track, speech)
            err = abs(out.duration_s - speech)
            worst = max(worst, err)
            assert err <= 1.0 / 30.0 + 1e-9
        print(f"PASS criterion 4: 50 retimed tracks within one 30 fps frame "
              f"of speech duration (worst {worst * 1000:.2f} ms)")

    def test_5_bvh_round_trip(self, gesture_dataset):
        worst_angle = 0.0

        for entry in gesture_dataset.entries:
            clip = gesture_dataset.clip_for(entry.id)
            back = parse_bvh(serialize_bvh(clip), entry.id)
            assert back.frame_count == clip.frame_count
            assert abs(back.fps - clip.fps) <= 1e-5 * clip.fps
            assert back.skeleton.matches(clip.skeleton)
            worst = float(np.max(angle_between(back.rotations, clip.rotations)))
            worst_angle = max(worst_angle, worst)
            assert worst <= 1e-4
            np.testing.assert_allclose(
                back.root_positions, clip.root_positions, atol=5e-7
            )
            for a, b in zip(back.skeleton.joints, clip.skeleton.joints):
                np.testing.assert_allclose(a.offset, b.offset, atol=5e-7)
        print(f"PASS criterion 5: {len(gesture_dataset.entries)} clips round-trip, "
              f"worst rotation error {worst_angle:.2e} rad (limit 1e-4)")

    def test_6_expression_builder_share(self, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        entries, report = build_dataset(
            FIXTURES / "expression_sources", LexiconEmotionProvider(), out_a,
            categories=load_emotion_categories()
        )
        assert report.total == 10
        assert report.rejects == []
        assert report.exaggeration_share == 0.5
        assert sorted(report.exaggeration_counts) == sorted(EXAGGERATION_CHANNELS)
        assert all(v == 1 for v in report.exaggeration_counts.values())
        build_dataset(
            FIXTURES / "expression_sources", LexiconEmotionProvider(), out_b,
            categories=load_emotion_categories()
        )
        assert out_a.read_bytes() == out_b.read_bytes()
        print("PASS criterion 6: 10-image build, exaggeration share exactly "
              "0.5, one use per overlay channel, rebuild byte-identical")

    def test_7_layering_stays_in_range(self):
        rng = random.Random(2024)
        viseme_table = load_viseme_table()
        channel_names = list(empty_blendshapes())
        frames_checked = 0
        tracks = 0
        while frames_checked < 10_000:
            duration = rng.uniform(0.8, 2.0)
            shapes = empty_blendshapes()
            for name in rng.sample(channel_names, rng.randint(0, 8)):
                shapes[name] = rng.random()
            entry = ExpressionEntry(f"e{tracks}", shapes, {"Joy": 1.0}, {})
            text = rng.choice(["wow amazing", "hello there", "こんにちは", ""])
            blinks = schedule_blinks(duration, rng,
                                     mean_gap_s=Config.blink_mean_gap_s,
                                     min_gap_s=Config.blink_min_gap_s)
            if rng.random() < 0.3:
                blinks = blinks + [rng.uniform(0, duration)]
            track = compose_face_track(
                entry, fallback_phonemes(text, duration), blinks, duration,
                fps=30.0, transition_s=Config.transition_s,
                viseme_table=viseme_table, lipsync_source="file",
            )
            assert np.all(track.frames >= 0.0)
            assert np.all(track.frames <= 1.0)
            frames = track.frames
            overlay = np.maximum(frames[:, CHANNEL_REGISTRY.index("circleEyes")],
                                 frames[:, CHANNEL_REGISTRY.index("angleEyes")])
            for name in EYELID_CHANNELS:
                assert np.all(frames[overlay > 0.0, CHANNEL_REGISTRY.index(name)] == 0.0)
            frames_checked += track.frame_count
            tracks += 1
        print(f"PASS criterion 7: {frames_checked} composed frames across "
              f"{tracks} randomized tracks all within [0, 1] with eyelid "
              f"exclusivity intact")

    def test_8_offline_determinism(self, tmp_path):
        config = load_config(FIXTURES / "config.json")
        req = DialogueRequest(
            text="Hello there. That is wonderful!",
            speech_duration_s=4.5,
            seed=7,
        )
        first = synthesize(req, config, out_dir=tmp_path / "a")
        second = synthesize(req, config, out_dir=tmp_path / "b")
        assert first.body == second.body
        assert first.face_json == second.face_json
        assert first.manifest_json == second.manifest_json
        for name in ("body.bvh", "face.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        elapsed = time.monotonic() - _MODULE_T0
        assert elapsed < 60.0
        print(f"PASS criterion 8: offline bundles byte-identical across runs "
              f"({elapsed:.1f}s into the acceptance module, budget 60s)")

    def test_9_low_similarity_always_neutral(self, gesture_dataset):
        for text in GIBBERISH:
            probe = retrieve_sequence(
                spans([text]), gesture_dataset, 0.0, random.Random(0)
            )[0]
            assert probe.similarity < 0.55, (
                f"fixture drift: {text!r} scores {probe.similarity}"
            )
        picks = None
        for _ in range(100):
            matches = retrieve_sequence(
                spans(GIBBERISH), gesture_dataset, 0.55, random.Random(31)
            )
            assert all(m.fallback and m.entry.neutral for m in matches)
            ids = [m.entry.id for m in matches]
            if picks is None:
                picks = ids
            assert ids == picks
        print(f"PASS criterion 9: {len(GIBBERISH)} below-threshold phrases "
              f"always land on neutral gestures, stable over 100 seeded runs")
