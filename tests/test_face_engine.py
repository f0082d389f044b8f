"""Face track synthesis: retrieval, transitions, blinks, lip-sync, layering."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toonmotion.curves import smoothstep
from toonmotion.errors import (
    DurationMismatch,
    EmptyDataset,
    OverlappingPhonemes,
    ValidationError,
)
from toonmotion.expression_dataset import (
    CHANNEL_REGISTRY,
    EYELID_CHANNELS,
    ExpressionEntry,
    empty_blendshapes,
)
from toonmotion.face_engine import (
    BLINK_TOTAL_S,
    VISEME_RAMP_S,
    BlinkEnvelope,
    PhonemeEvent,
    compose_face_track,
    fallback_phonemes,
    infer_dialogue_emotion,
    lipsync_track,
    load_phoneme_file,
    load_viseme_table,
    plan_transition,
    retrieve_expression,
    schedule_blinks,
    validate_phonemes,
)
from toonmotion.pipeline import Config
from toonmotion.providers import LexiconEmotionProvider, load_emotion_categories

from conftest import GOLDENS


def entry(entry_id, emotions, **shapes):
    blend = empty_blendshapes()
    blend.update(shapes)
    return ExpressionEntry(
        id=entry_id, blendshapes=blend, emotions=emotions, source={}
    )


def ev(phoneme, start, end):
    return PhonemeEvent(phoneme=phoneme, start_s=start, end_s=end)


class TestPhonemeValidation:
    def test_valid_sequence_passes(self):
        validate_phonemes([ev("a", 0.0, 0.2), ev("sil", 0.2, 0.4)])

    def test_end_before_start(self):
        with pytest.raises(OverlappingPhonemes):
            validate_phonemes([ev("a", 0.3, 0.2)])

    def test_overlap(self):
        with pytest.raises(OverlappingPhonemes):
            validate_phonemes([ev("a", 0.0, 0.3), ev("e", 0.2, 0.5)])

    def test_unsorted(self):
        with pytest.raises(OverlappingPhonemes):
            validate_phonemes([ev("a", 0.5, 0.7), ev("e", 0.0, 0.2)])

    def test_touching_events_allowed(self):
        validate_phonemes([ev("a", 0.0, 0.2), ev("e", 0.2, 0.4)])

    def test_load_phoneme_file(self, tmp_path):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps([
            {"ph": "a", "start": 0.0, "end": 0.2},
            {"ph": "MBP", "start": 0.2, "end": 0.35},
        ]), encoding="utf-8")
        events = load_phoneme_file(path)
        assert events == [ev("a", 0.0, 0.2), ev("MBP", 0.2, 0.35)]

    def test_load_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps([{"ph": "a", "start": 0.0}]), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_phoneme_file(path)

    @pytest.mark.parametrize("start,end", [
        (math.nan, 0.5), (0.0, math.nan), (-math.inf, 0.5), (0.0, math.inf),
    ])
    def test_load_rejects_non_finite_times(self, tmp_path, start, end):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps([{"ph": "a", "start": start, "end": end}]),
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="non-finite"):
            load_phoneme_file(path)


class TestFallbackPhonemes:
    def test_english_vowel_groups(self):
        events = fallback_phonemes("Hello there", 1.0)
        assert [e.phoneme for e in events] == ["e", "o", "e", "e"]
        assert events[0].start_s == 0.0
        assert events[-1].end_s == pytest.approx(1.0)
        for a, b in zip(events, events[1:]):
            assert a.end_s == pytest.approx(b.start_s)

    def test_kana_vowels(self):
        events = fallback_phonemes("こんにちは", 2.0)
        assert [e.phoneme for e in events] == ["o", "u", "i", "i", "a"]

    def test_y_counts_as_vowel(self):
        assert [e.phoneme for e in fallback_phonemes("rhythm", 1.0)] == ["i"]

    def test_small_tsu_skipped_and_chouon_repeats(self):
        assert [e.phoneme for e in fallback_phonemes("びっくり", 1.0)] == \
            ["i", "u", "i"]
        assert [e.phoneme for e in fallback_phonemes("スーパー", 1.0)] == \
            ["u", "u", "a", "a"]

    def test_empty_text_is_silence(self):
        assert fallback_phonemes("", 2.0) == [ev("sil", 0.0, 2.0)]
        assert fallback_phonemes("...", 2.0) == [ev("sil", 0.0, 2.0)]

    def test_uniform_spacing(self):
        events = fallback_phonemes("aaa eee iii ooo", 2.0)
        widths = {round(e.end_s - e.start_s, 9) for e in events}
        assert len(widths) == 1


class TestVisemeTable:
    def test_default_table_loads(self):
        table = load_viseme_table()
        assert "sil" in table and "other" in table
        assert table["a"]["jawOpen"] == pytest.approx(0.7)
        assert table["MBP"]["mouthPressL"] == pytest.approx(1.0)
        assert table["sil"] == {}

    def test_rejects_table_without_other(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"sil": {}}), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_viseme_table(path)

    def test_rejects_unknown_channel(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "sil": {}, "other": {"jawWiggle": 0.3},
        }), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_viseme_table(path)


class TestLipsync:
    def test_silence_has_no_motion(self):
        result = lipsync_track([ev("sil", 0.0, 1.0)], fps=30.0, duration_s=1.0,
                               viseme_table=load_viseme_table(), source="file")
        assert np.all(result.values == 0.0)
        assert np.all(result.voicing == 0.0)

    def test_vowel_plateau_reaches_table_weight(self):
        result = lipsync_track([ev("a", 0.0, 0.5)], fps=100.0, duration_s=0.5,
                               viseme_table=load_viseme_table(), source="file")
        jaw = result.values[:, 15]  # jawOpen
        mid = int(0.25 * 100)
        assert jaw[mid] == pytest.approx(0.7, abs=1e-9)
        assert result.voicing[mid] == pytest.approx(1.0, abs=1e-9)

    def test_ramp_is_smoothstep(self):
        result = lipsync_track([ev("a", 0.0, 0.5)], fps=100.0, duration_s=0.5,
                               viseme_table=load_viseme_table(), source="file")
        jaw = result.values[:, 15]
        # halfway through the 60 ms attack: smoothstep(0.5) = 0.5
        assert jaw[3] == pytest.approx(0.7 * 0.5, abs=1e-9)

    def test_bilabial_closes_the_jaw(self):
        events = [ev("a", 0.0, 0.2), ev("MBP", 0.2, 0.35)]
        result = lipsync_track(events, fps=50.0, duration_s=0.4,
                               viseme_table=load_viseme_table(), source="file")
        t_idx = int(round(0.26 * 50))  # 0.06 s after the vowel ended
        assert result.values[t_idx, 15] == pytest.approx(0.0, abs=1e-9)
        press = result.values[t_idx, 23]  # mouthPressL
        assert press == pytest.approx(1.0, abs=1e-9)
        assert result.voicing[t_idx] == pytest.approx(1.0, abs=1e-9)

    def test_voicing_ignores_silence(self):
        events = [ev("a", 0.0, 0.2), ev("sil", 0.2, 0.8), ev("o", 0.8, 1.0)]
        result = lipsync_track(events, fps=30.0, duration_s=1.0,
                               viseme_table=load_viseme_table(), source="file")
        mid = 15  # t = 0.5, deep inside the sil event
        assert result.voicing[mid] == pytest.approx(0.0, abs=1e-6)

    def test_unknown_phoneme_uses_other_pose(self):
        result = lipsync_track([ev("zz", 0.0, 0.5)], fps=30.0, duration_s=0.5,
                               viseme_table=load_viseme_table(), source="file")
        jaw = result.values[:, 15]
        assert jaw.max() == pytest.approx(0.25, abs=1e-9)

    def test_values_bounded_by_voicing_scaled_table(self):
        events = [ev("a", 0.0, 0.3), ev("i", 0.3, 0.6), ev("MBP", 0.6, 0.8)]
        result = lipsync_track(events, fps=60.0, duration_s=1.0,
                               viseme_table=load_viseme_table(), source="file")
        assert np.all(result.values <= result.voicing[:, np.newaxis] + 1e-12)

    def test_frame_count(self):
        result = lipsync_track([ev("a", 0.0, 1.0)], fps=30.0, duration_s=1.5,
                               viseme_table=load_viseme_table(), source="file")
        assert result.values.shape[0] == 46

    @pytest.mark.parametrize("fps", [24.0, 29.97, 30.0, 60.0])
    def test_matches_envelopes_over_every_frame(self, fps):
        """Each event only touches its own frames, bit for bit."""
        table = load_viseme_table()
        rng = random.Random(int(fps * 100))
        events, t = [], rng.uniform(-0.1, 0.2)
        for _ in range(60):
            d = rng.choice([rng.uniform(0.01, 0.4), 1.0 / fps, 0.06])
            phoneme = rng.choice(["a", "i", "MBP", "FV", "sil", "zz"])
            events.append(ev(phoneme, t, t + d))
            t += d + rng.choice([0.0, rng.uniform(0.0, 0.2)])
        duration = t * 0.9
        result = lipsync_track(events, fps, duration_s=duration, viseme_table=table,
                               source="file")

        times = np.arange(int(round(duration * fps)) + 1) / fps
        values = np.zeros_like(result.values)
        voicing = np.zeros_like(result.voicing)
        for e in events:
            if e.phoneme == "sil":
                continue
            envelope = smoothstep((times - e.start_s) / VISEME_RAMP_S) * (
                1.0 - smoothstep((times - e.end_s) / VISEME_RAMP_S))
            voicing = np.maximum(voicing, envelope)
            for name, weight in table.get(e.phoneme, table["other"]).items():
                idx = CHANNEL_REGISTRY.index(name)
                values[:, idx] = np.maximum(values[:, idx], envelope * float(weight))
        np.testing.assert_array_equal(result.values, values)
        np.testing.assert_array_equal(result.voicing, voicing)


class TestEmotionInference:
    def test_lexicon_example(self):
        emotions = infer_dialogue_emotion(
            "That is wonderful", LexiconEmotionProvider(),
            categories=load_emotion_categories()
        )
        assert emotions == {"Joy": 0.8}

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            infer_dialogue_emotion("   ", LexiconEmotionProvider(),
                                   categories=load_emotion_categories())

    def test_unknown_categories_filtered(self):
        class Weird:
            def infer(self, text, image_ref=None):
                return {"Joy": 0.9, "Bloop": 0.5}

        assert infer_dialogue_emotion(
            "x", Weird(), categories=load_emotion_categories()
        ) == {"Joy": 0.9}


class TestExpressionRetrieval:
    def test_reference_similarity_value(self):
        query = {"Joy": 0.8, "Amusement": 0.7, "Interest": 0.65}
        entries = [entry("e1", {"Joy": 1.0}), entry("e2", {"Sadness": 1.0})]
        best, sim = retrieve_expression(query, entries)
        assert best.id == "e1"
        assert sim == pytest.approx(0.6421, abs=1e-4)

    def test_exact_match_beats_partial(self):
        query = {"Joy": 0.8, "Amusement": 0.7, "Interest": 0.65}
        entries = [
            entry("e1", {"Joy": 1.0}),
            entry("e2", {"Joy": 0.8, "Amusement": 0.7, "Interest": 0.65}),
        ]
        best, sim = retrieve_expression(query, entries)
        assert best.id == "e2"
        assert sim == pytest.approx(1.0, abs=1e-9)

    def test_tie_breaks_to_ascending_id(self):
        query = {"Joy": 1.0}
        entries = [entry("zz", {"Joy": 0.5}), entry("aa", {"Joy": 0.7})]
        best, sim = retrieve_expression(query, entries)
        # Both have cosine 1.0 against the single-axis query.
        assert best.id == "aa"
        assert sim == pytest.approx(1.0, abs=1e-9)

    def test_empty_query_rejected(self):
        with pytest.raises(ValidationError):
            retrieve_expression({}, [entry("e1", {"Joy": 1.0})])

    def test_no_annotated_entries(self):
        with pytest.raises(EmptyDataset):
            retrieve_expression({"Joy": 1.0}, [entry("e1", {})])


class TestTransition:
    def test_midpoint_of_smooth_channels(self):
        a = {"jawOpen": 0.0}
        b = {"jawOpen": 0.8}
        curve = plan_transition(a, b, t0=1.0, dur=0.4)
        jaw = curve.at(1.2)[15]
        assert jaw == pytest.approx(0.4, abs=1e-9)

    def test_endpoints_clamp(self):
        curve = plan_transition({"jawOpen": 0.2}, {"jawOpen": 0.8}, 1.0, 0.4)
        assert curve.at(0.0)[15] == pytest.approx(0.2)
        assert curve.at(99.0)[15] == pytest.approx(0.8)

    def test_exaggeration_snaps_at_midpoint(self):
        a = {"circleEyes": 0.0}
        b = {"circleEyes": 1.0}
        curve = plan_transition(a, b, t0=0.0, dur=0.4)
        idx = 28  # circleEyes
        assert curve.at(0.19)[idx] == 0.0
        assert curve.at(0.20)[idx] == 1.0
        assert curve.at(0.35)[idx] == 1.0

    def test_smooth_channel_is_smoothstep(self):
        curve = plan_transition({"jawOpen": 0.0}, {"jawOpen": 1.0}, 0.0, 1.0)
        # smoothstep(0.25) = 3*0.0625 - 2*0.015625 = 0.15625
        assert curve.at(0.25)[15] == pytest.approx(0.15625, abs=1e-12)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError):
            plan_transition({}, {}, 0.0, 0.0)


class TestBlinks:
    def test_envelope_shape(self):
        blink = BlinkEnvelope(onset_s=1.0)
        t = np.array([0.99, 1.0, 1.05, 1.10, 1.125, 1.15, 1.225, 1.30, 1.31])
        v = blink.values(t)
        assert v[0] == 0.0                        # before onset
        assert v[1] == 0.0                        # smoothstep(0) at onset
        assert v[2] == pytest.approx(0.5)         # mid-close
        assert v[3] == pytest.approx(1.0)         # fully closed
        assert v[4] == pytest.approx(1.0)         # hold
        assert v[5] == pytest.approx(1.0)         # hold end
        assert v[6] == pytest.approx(0.5)         # mid-open
        assert v[7] == pytest.approx(0.0)         # done
        assert v[8] == 0.0                        # after

    def test_total_duration_constant(self):
        assert BLINK_TOTAL_S == pytest.approx(0.30)

    def test_schedule_matches_golden(self):
        golden = json.loads(
            (GOLDENS / "blink_onsets_seed42_10s.json").read_text(encoding="utf-8")
        )
        blinks = schedule_blinks(10.0, random.Random(42),
                                 mean_gap_s=Config.blink_mean_gap_s,
                                 min_gap_s=Config.blink_min_gap_s)
        assert [b.onset_s for b in blinks] == golden

    def test_deterministic(self):
        runs = {
            tuple(b.onset_s for b in schedule_blinks(10.0, random.Random(42),
                                                     mean_gap_s=Config.blink_mean_gap_s,
                                                     min_gap_s=Config.blink_min_gap_s))
            for _ in range(50)
        }
        assert len(runs) == 1

    def test_every_blink_completes_before_end(self):
        for seed in range(30):
            for blink in schedule_blinks(3.0, random.Random(seed),
                                         mean_gap_s=Config.blink_mean_gap_s,
                                         min_gap_s=Config.blink_min_gap_s):
                assert blink.onset_s + BLINK_TOTAL_S <= 3.0 + 1e-9

    def test_minimum_gap_enforced(self):
        for seed in range(30):
            blinks = schedule_blinks(30.0, random.Random(seed),
                                     mean_gap_s=Config.blink_mean_gap_s,
                                     min_gap_s=Config.blink_min_gap_s)
            for a, b in zip(blinks, blinks[1:]):
                assert b.onset_s - (a.onset_s + BLINK_TOTAL_S) >= 1.0 - 1e-9

    def test_short_duration_has_no_blinks(self):
        assert schedule_blinks(0.5, random.Random(0),
                               mean_gap_s=Config.blink_mean_gap_s,
                               min_gap_s=Config.blink_min_gap_s) == []

    def test_suppression_drops_only_overlapping(self):
        base = schedule_blinks(10.0, random.Random(42),
                               mean_gap_s=Config.blink_mean_gap_s,
                               min_gap_s=Config.blink_min_gap_s)
        span = (base[1].onset_s, base[1].onset_s + 0.01)
        pruned = schedule_blinks(10.0, random.Random(42),
                                 suppressed_spans=[span],
                                 mean_gap_s=Config.blink_mean_gap_s,
                                 min_gap_s=Config.blink_min_gap_s)
        assert [b.onset_s for b in pruned] == [
            b.onset_s for b in base if not b.overlaps(span)
        ]
        assert len(pruned) == len(base) - 1

    def test_suppression_does_not_shift_later_blinks(self):
        base = schedule_blinks(10.0, random.Random(42),
                               mean_gap_s=Config.blink_mean_gap_s,
                               min_gap_s=Config.blink_min_gap_s)
        pruned = schedule_blinks(10.0, random.Random(42),
                                 suppressed_spans=[(0.0, 5.0)],
                                 mean_gap_s=Config.blink_mean_gap_s,
                                 min_gap_s=Config.blink_min_gap_s)
        survivors = [b.onset_s for b in base if b.onset_s >= 5.0]
        assert [b.onset_s for b in pruned] == survivors

    def test_full_suppression(self):
        blinks = schedule_blinks(10.0, random.Random(42),
                                 suppressed_spans=[(0.0, 10.0)],
                                 mean_gap_s=Config.blink_mean_gap_s,
                                 min_gap_s=Config.blink_min_gap_s)
        assert blinks == []

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValidationError):
            schedule_blinks(0.0, random.Random(0),
                            mean_gap_s=Config.blink_mean_gap_s,
                            min_gap_s=Config.blink_min_gap_s)


class TestCompose:
    def static_entry(self, **shapes):
        return entry("face1", {"Joy": 0.8}, **shapes)

    def test_static_expression_tiles(self):
        track = compose_face_track(
            self.static_entry(mouthSmileL=0.6), None, [], None, 1.0, 30.0
        )
        assert track.frame_count == 31
        smile = track.channel("mouthSmileL")
        assert np.all(smile == pytest.approx(0.6))

    def test_blink_max_combines_with_base(self):
        track = compose_face_track(
            self.static_entry(eyeBlinkL=0.3), None,
            [BlinkEnvelope(0.4)], None, 1.0, 100.0,
        )
        blink = track.channel("eyeBlinkL")
        assert blink[0] == pytest.approx(0.3)       # base before the blink
        assert blink[50] == pytest.approx(1.0)      # fully closed at 0.5 s
        assert blink.max() == pytest.approx(1.0)
        assert blink.min() == pytest.approx(0.3)    # never below base

    def test_lipsync_layering_formula(self):
        lipsync = lipsync_track(
            [ev("a", 0.0, 1.0)], fps=30.0, duration_s=1.0,
            viseme_table=load_viseme_table(), source="file"
        )
        track = compose_face_track(
            self.static_entry(mouthSmileL=1.0, jawOpen=0.1),
            None, [], lipsync, 1.0, 30.0,
        )
        mid = 15  # fully voiced plateau
        assert track.channel("jawOpen")[mid] == pytest.approx(0.58, abs=1e-9)
        assert track.channel("mouthSmileL")[mid] == pytest.approx(0.2, abs=1e-9)

    def test_lipsync_leaves_base_during_silence(self):
        lipsync = lipsync_track(
            [ev("sil", 0.0, 1.0)], fps=30.0, duration_s=1.0,
            viseme_table=load_viseme_table(), source="file"
        )
        track = compose_face_track(
            self.static_entry(mouthSmileL=0.6), None, [], lipsync, 1.0, 30.0
        )
        assert np.all(track.channel("mouthSmileL") == pytest.approx(0.6))

    def test_lipsync_does_not_touch_non_mouth_channels(self):
        lipsync = lipsync_track([ev("a", 0.0, 1.0)], fps=30.0, duration_s=1.0,
                                viseme_table=load_viseme_table(), source="file")
        track = compose_face_track(
            self.static_entry(browUpL=0.5), None, [], lipsync, 1.0, 30.0
        )
        assert np.all(track.channel("browUpL") == pytest.approx(0.5))

    def test_overlay_eyes_suppress_eyelids(self):
        track = compose_face_track(
            self.static_entry(circleEyes=1.0), None,
            [BlinkEnvelope(0.4)], None, 1.0, 30.0,
        )
        for name in EYELID_CHANNELS:
            assert np.all(track.channel(name) == 0.0), name
        assert np.all(track.channel("circleEyes") == 1.0)

    def test_transition_feeds_compose(self):
        curve = plan_transition(
            {"jawOpen": 0.0}, {"jawOpen": 0.8}, t0=0.0, dur=0.4
        )
        track = compose_face_track(
            self.static_entry(jawOpen=0.8), curve, [], None, 1.0, 30.0
        )
        jaw = track.channel("jawOpen")
        assert jaw[0] == pytest.approx(0.0)
        assert jaw[-1] == pytest.approx(0.8)
        assert np.all(np.diff(jaw) >= -1e-12)

    def test_fps_mismatch_rejected(self):
        lipsync = lipsync_track([ev("a", 0.0, 1.0)], fps=24.0, duration_s=1.0,
                                viseme_table=load_viseme_table(), source="file")
        with pytest.raises(DurationMismatch):
            compose_face_track(self.static_entry(), None, [], lipsync, 1.0, 30.0)

    def test_frame_count_mismatch_rejected(self):
        lipsync = lipsync_track([ev("a", 0.0, 1.0)], fps=30.0, duration_s=2.0,
                                viseme_table=load_viseme_table(), source="file")
        with pytest.raises(DurationMismatch):
            compose_face_track(self.static_entry(), None, [], lipsync, 1.0, 30.0)

    def test_provenance_contents(self):
        lipsync = lipsync_track([ev("a", 0.0, 1.0)], fps=30.0, duration_s=1.0,
                                source="fallback", viseme_table=load_viseme_table())
        track = compose_face_track(
            self.static_entry(), None, [BlinkEnvelope(0.25)], lipsync, 1.0, 30.0
        )
        assert track.provenance["expression_id"] == "face1"
        assert track.provenance["blink_onsets"] == [0.25]
        assert track.provenance["lipsync_source"] == "fallback"

    def test_json_dict_shape(self):
        track = compose_face_track(self.static_entry(), None, [], None, 0.5, 30.0)
        data = track.to_json_dict()
        assert len(data["channels"]) == 30
        assert len(data["frames"]) == 16
        assert all(len(row) == 30 for row in data["frames"])

    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.0, max_value=1.0),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_always_in_range(self, duration, seed, base_level, overlay):
        rng = random.Random(seed)
        shapes = {"mouthSmileL": base_level, "jawOpen": base_level}
        if overlay:
            shapes["angleEyes"] = 1.0
        lipsync = lipsync_track(
            fallback_phonemes("wow amazing", duration),
            fps=30.0, duration_s=duration,
            viseme_table=load_viseme_table(), source="file",
        )
        track = compose_face_track(
            self.static_entry(**shapes), None,
            schedule_blinks(duration, rng,
                            mean_gap_s=Config.blink_mean_gap_s,
                            min_gap_s=Config.blink_min_gap_s) if duration > 0 else [],
            lipsync, duration, 30.0,
        )
        assert np.all(track.frames >= 0.0)
        assert np.all(track.frames <= 1.0)
        if overlay:
            for name in EYELID_CHANNELS:
                assert np.all(track.channel(name) == 0.0)
