"""Face track synthesis: retrieval, transitions, blinks, lip-sync, layering."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toonmotion.curves import smoothstep
from toonmotion.errors import OverlappingPhonemes, ValidationError
from toonmotion.expression_dataset import (
    CHANNEL_REGISTRY,
    EXAGGERATION_CHANNELS,
    EYELID_CHANNELS,
    MOUTH_CHANNELS,
    ExpressionEntry,
    empty_blendshapes,
)
from toonmotion.face_engine import (
    BLINK_CLOSE_S,
    BLINK_HOLD_S,
    BLINK_OPEN_S,
    BLINK_TOTAL_S,
    LIPSYNC_ALPHA,
    MAX_PHONEME_EVENTS,
    VISEME_RAMP_S,
    PhonemeEvent,
    compose_face_track,
    fallback_phonemes,
    infer_dialogue_emotion,
    lipsync_track,
    load_phoneme_file,
    load_viseme_table,
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


def channel(track, name):
    return track.frames[:, CHANNEL_REGISTRY.index(name)]


def ev(phoneme, start, end):
    return PhonemeEvent(phoneme=phoneme, start_s=start, end_s=end)


TABLE = load_viseme_table()


def compose(expression, duration, fps=30.0, *, phonemes=(), blinks=(),
            transition_s=Config.transition_s, source="file"):
    return compose_face_track(expression, list(phonemes), list(blinks), duration,
                              fps=fps, transition_s=transition_s,
                              viseme_table=TABLE, lipsync_source=source)


def random_phonemes(rng, fps, count=60):
    """*count* touching or spaced events, some a frame or a ramp long; returns
    the events and the time after the last gap."""
    events, t = [], rng.uniform(-0.1, 0.2)
    for _ in range(count):
        d = rng.choice([rng.uniform(0.01, 0.4), 1.0 / fps, 0.06])
        phoneme = rng.choice(["a", "i", "MBP", "FV", "sil", "zz"])
        events.append(ev(phoneme, t, t + d))
        t += d + rng.choice([0.0, rng.uniform(0.0, 0.2)])
    return events, t


def reference_lipsync(events, times):
    """Every event's trapezoid evaluated on every frame, max-combined."""
    values = np.zeros((times.shape[0], len(MOUTH_CHANNELS)))
    voicing = np.zeros(times.shape[0])
    for e in events:
        if e.phoneme == "sil":
            continue
        envelope = smoothstep((times - e.start_s) / VISEME_RAMP_S) * (
            1.0 - smoothstep((times - e.end_s) / VISEME_RAMP_S))
        voicing = np.maximum(voicing, envelope)
        for name, weight in TABLE.get(e.phoneme, TABLE["other"]).items():
            idx = MOUTH_CHANNELS.index(name)
            values[:, idx] = np.maximum(values[:, idx], envelope * float(weight))
    return values, voicing


class ReferenceCurve:
    """A per-channel transition from *start* to *end* over [t0, t0 + dur]:
    smoothstep for regular channels, a midpoint snap for exaggerations."""

    def __init__(self, start, end, t0, dur):
        self.start, self.end, self.t0, self.dur = start, end, t0, dur

    def values(self, times):
        u = np.clip((times - self.t0) / self.dur, 0.0, 1.0)
        snap = np.array([name in EXAGGERATION_CHANNELS for name in CHANNEL_REGISTRY])
        weights = np.where(snap[np.newaxis, :],
                           (u >= 0.5).astype(np.float64)[:, np.newaxis],
                           smoothstep(u)[:, np.newaxis])
        return self.start[np.newaxis, :] + (
            (self.end - self.start)[np.newaxis, :] * weights)


def reference_blink(onset, times):
    t = times - onset
    closing = smoothstep(t / BLINK_CLOSE_S)
    opening = 1.0 - smoothstep((t - BLINK_CLOSE_S - BLINK_HOLD_S) / BLINK_OPEN_S)
    inside = (t >= 0.0) & (t <= BLINK_TOTAL_S)
    return np.where(inside, np.minimum(closing, opening), 0.0)


def reference_compose(expression, events, onsets, duration, fps, transition_s):
    """The face track layered as separate objects: a transition curve from
    the neutral face, lip-sync on every frame, blinks pruned by an
    overlay-eye span, one envelope per blink, and per-frame eyelid zeroing
    wherever the composed overlay channels are on."""
    shapes = expression.blendshapes
    times = np.arange(int(round(duration * fps)) + 1) / fps
    end = np.array([shapes.get(name, 0.0) for name in CHANNEL_REGISTRY])
    base = ReferenceCurve(np.zeros_like(end), end, 0.0, transition_s).values(times)

    values, voicing = reference_lipsync(events, times)
    mouth = [CHANNEL_REGISTRY.index(name) for name in MOUTH_CHANNELS]
    alpha = LIPSYNC_ALPHA * voicing
    base[:, mouth] = ((1.0 - alpha)[:, np.newaxis] * base[:, mouth]
                      + LIPSYNC_ALPHA * values)

    if shapes.get("circleEyes", 0.0) > 0.0 or shapes.get("angleEyes", 0.0) > 0.0:
        s0, s1 = transition_s / 2.0, duration
        onsets = [o for o in onsets if not (o < s1 and o + BLINK_TOTAL_S > s0)]
    if onsets:
        curve = np.zeros(times.shape[0])
        for onset in onsets:
            curve = np.maximum(curve, reference_blink(onset, times))
        for name in ("eyeBlinkL", "eyeBlinkR"):
            idx = CHANNEL_REGISTRY.index(name)
            base[:, idx] = np.maximum(base[:, idx], curve)

    overlay = np.maximum(base[:, CHANNEL_REGISTRY.index("circleEyes")],
                         base[:, CHANNEL_REGISTRY.index("angleEyes")])
    for name in EYELID_CHANNELS:
        base[overlay > 0.0, CHANNEL_REGISTRY.index(name)] = 0.0
    np.clip(base, 0.0, 1.0, out=base)
    return base, [round(onset, 6) for onset in onsets]


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

    def test_start_before_zero(self):
        with pytest.raises(OverlappingPhonemes,
                           match=r"^event 'a' starts before 0 s, at -1e-09$"):
            validate_phonemes([ev("a", -1e-9, 0.2)])
        validate_phonemes([ev("a", -0.0, 0.2)])

    def test_load_phoneme_file(self, tmp_path):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps([
            {"ph": "a", "start": 0.0, "end": 0.2},
            {"ph": "MBP", "start": 0.2, "end": 0.35},
        ]), encoding="utf-8")
        events = load_phoneme_file(path)
        assert events == [ev("a", 0.0, 0.2), ev("MBP", 0.2, 0.35)]

    @pytest.mark.parametrize("events", [
        [{"ph": "a", "start": 0.5, "end": 0.2}],
        [{"ph": "a", "start": 0.0, "end": 0.3}, {"ph": "e", "start": 0.2, "end": 0.5}],
    ], ids=["reversed", "overlapping"])
    def test_load_order_fault_names_the_file(self, tmp_path, events):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps(events), encoding="utf-8")
        with pytest.raises(OverlappingPhonemes) as info:
            load_phoneme_file(path)
        assert str(info.value).startswith(f"{path}: event")

    def test_load_takes_a_timeline_of_the_event_cap(self, tmp_path):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps([{"ph": "a", "start": i / 100, "end": (i + 1) / 100}
                                    for i in range(MAX_PHONEME_EVENTS)]),
                        encoding="utf-8")
        events = load_phoneme_file(path)
        assert len(events) == MAX_PHONEME_EVENTS
        assert events[-1] == ev("a", (MAX_PHONEME_EVENTS - 1) / 100,
                                MAX_PHONEME_EVENTS / 100)

    def test_load_rejects_a_timeline_past_the_event_cap(self, tmp_path):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps([{"ph": "a", "start": 0.0, "end": 0.1}]
                                   * (MAX_PHONEME_EVENTS + 1)), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_phoneme_file(path)
        assert str(info.value) == (
            f"{path}: phoneme file has {MAX_PHONEME_EVENTS + 1} events, more "
            f"than the {MAX_PHONEME_EVENTS} allowed")

    def test_load_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps([{"ph": "a", "start": 0.0}]), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_phoneme_file(path)

    @pytest.mark.parametrize("item", [
        {"ph": 5, "start": 0.0, "end": 0.5},
        {"ph": "a", "start": True, "end": 2.0},
        {"ph": "a", "start": 0.0, "end": "0.5"},
    ], ids=["ph_number", "start_boolean", "end_string"])
    def test_load_rejects_mistyped_fields(self, tmp_path, item):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps([item]), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"phoneme 0 '\w+' must be") as info:
            load_phoneme_file(path)
        assert str(path) in str(info.value)

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

    def test_small_kana_replaces_the_vowel_before_it(self):
        assert [e.phoneme for e in fallback_phonemes("きゃ", 1.0)] == ["a"]
        assert [e.phoneme for e in fallback_phonemes("ちょっと", 1.0)] == ["o", "o"]

    @pytest.mark.parametrize("text, vowels", [
        ("あhelloー", ["a", "e", "o", "o"]),
        ("きhelloゃ", ["i", "e", "a"]),
        ("ーhello", ["e", "o"]),
    ])
    def test_marks_act_on_the_vowel_before_them_in_reading_order(self, text, vowels):
        assert [e.phoneme for e in fallback_phonemes(text, 1.0)] == vowels

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

    @pytest.mark.parametrize("weight", ["0.5", True], ids=["string", "boolean"])
    def test_rejects_non_number_weight(self, tmp_path, weight):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"sil": {}, "other": {"jawOpen": weight}}),
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="'other' weight on 'jawOpen' must be"):
            load_viseme_table(path)

    def test_rejects_weight_outside_the_unit_interval(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"sil": {}, "other": {"jawOpen": 1.5}}),
                        encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=r"'other' weight 1.5 on 'jawOpen' is not in \[0, 1\]"):
            load_viseme_table(path)

    def test_rejects_channel_outside_the_mouth(self, tmp_path):
        # Lip-sync only blends the mouth group, so the weight would be lost.
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "sil": {}, "other": {"jawOpen": 0.3, "browUpL": 1.0},
        }), encoding="utf-8")
        with pytest.raises(ValidationError, match="'other' uses 'browUpL'"):
            load_viseme_table(path)


JAW = MOUTH_CHANNELS.index("jawOpen")


def lipsync(events, fps, duration):
    """Lip-sync on the frame grid a track of *duration* seconds has."""
    times = np.arange(int(round(duration * fps)) + 1) / fps
    return lipsync_track(events, fps, times, TABLE)


class TestLipsync:
    def test_silence_has_no_motion(self):
        values, voicing = lipsync([ev("sil", 0.0, 1.0)], 30.0, 1.0)
        assert np.all(values == 0.0)
        assert np.all(voicing == 0.0)

    def test_vowel_plateau_reaches_table_weight(self):
        values, voicing = lipsync([ev("a", 0.0, 0.5)], 100.0, 0.5)
        jaw = values[:, JAW]
        mid = int(0.25 * 100)
        assert jaw[mid] == pytest.approx(0.7, abs=1e-9)
        assert voicing[mid] == pytest.approx(1.0, abs=1e-9)

    def test_ramp_is_smoothstep(self):
        values, _ = lipsync([ev("a", 0.0, 0.5)], 100.0, 0.5)
        jaw = values[:, JAW]
        # halfway through the 60 ms attack: smoothstep(0.5) = 0.5
        assert jaw[3] == pytest.approx(0.7 * 0.5, abs=1e-9)

    def test_bilabial_closes_the_jaw(self):
        events = [ev("a", 0.0, 0.2), ev("MBP", 0.2, 0.35)]
        values, voicing = lipsync(events, 50.0, 0.4)
        t_idx = int(round(0.26 * 50))  # 0.06 s after the vowel ended
        assert values[t_idx, JAW] == pytest.approx(0.0, abs=1e-9)
        press = values[t_idx, MOUTH_CHANNELS.index("mouthPressL")]
        assert press == pytest.approx(1.0, abs=1e-9)
        assert voicing[t_idx] == pytest.approx(1.0, abs=1e-9)

    def test_voicing_ignores_silence(self):
        events = [ev("a", 0.0, 0.2), ev("sil", 0.2, 0.8), ev("o", 0.8, 1.0)]
        _, voicing = lipsync(events, 30.0, 1.0)
        mid = 15  # t = 0.5, deep inside the sil event
        assert voicing[mid] == pytest.approx(0.0, abs=1e-6)

    def test_unknown_phoneme_uses_other_pose(self):
        values, _ = lipsync([ev("zz", 0.0, 0.5)], 30.0, 0.5)
        jaw = values[:, JAW]
        assert jaw.max() == pytest.approx(0.25, abs=1e-9)

    def test_values_bounded_by_voicing_scaled_table(self):
        events = [ev("a", 0.0, 0.3), ev("i", 0.3, 0.6), ev("MBP", 0.6, 0.8)]
        values, voicing = lipsync(events, 60.0, 1.0)
        assert np.all(values <= voicing[:, np.newaxis] + 1e-12)

    def test_frame_count(self):
        values, voicing = lipsync([ev("a", 0.0, 1.0)], 30.0, 1.5)
        assert values.shape[0] == voicing.shape[0] == 46
        track = compose(entry("face1", {"Joy": 0.8}), 1.5,
                        phonemes=[ev("a", 0.0, 1.0)])
        assert track.frame_count == 46

    @pytest.mark.parametrize("fps", [24.0, 29.97, 30.0, 60.0])
    def test_matches_envelopes_over_every_frame(self, fps):
        """Each event only touches its own frames, bit for bit."""
        rng = random.Random(int(fps * 100))
        events, end = random_phonemes(rng, fps)
        duration = end * 0.9
        times = np.arange(int(round(duration * fps)) + 1) / fps
        got_values, got_voicing = lipsync_track(events, fps, times, TABLE)
        values, voicing = reference_lipsync(events, times)
        np.testing.assert_array_equal(got_values, values)
        np.testing.assert_array_equal(got_voicing, voicing)

    @pytest.mark.parametrize("fps", [24.0, 25.0, 29.97, 30.0, 60.0])
    def test_event_edges_on_and_one_ulp_beside_frame_times(self, fps):
        """Envelope edges (a start, an end plus the ramp) exactly on a frame
        time and one ulp either side of it, from the first frames to 600 s,
        the last events running past the last frame."""
        frame_count = int(600 * fps) + 2
        times = np.arange(frame_count) / fps
        first = [1, 9, 17, 100, 1001, 4999, frame_count // 2, frame_count - 30,
                 frame_count - 9, frame_count - 2]

        def beside(t):
            return [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]

        for start_side in range(3):
            for end_side in range(3):
                for end_of_ramp in (True, False):
                    events = []
                    for k in first:
                        start = beside(times[k])[start_side]
                        edge = times[k + 6] if k + 6 < frame_count else times[-1] + 0.05
                        end = beside(edge - VISEME_RAMP_S if end_of_ramp else edge)[end_side]
                        events.append(ev("a" if k % 2 else "MBP", float(start), float(end)))
                    validate_phonemes(events)
                    got_values, got_voicing = lipsync_track(events, fps, times, TABLE)
                    values, voicing = reference_lipsync(events, times)
                    np.testing.assert_array_equal(got_values, values)
                    np.testing.assert_array_equal(got_voicing, voicing)

    @given(st.sampled_from([24.0, 29.97, 30.0, 60.0]),
           st.floats(0.0, 1.0),
           st.lists(st.tuples(st.sampled_from(["a", "i", "MBP", "FV", "sil", "zz"]),
                              st.one_of(st.floats(0.005, 0.4), st.just(0.06)),
                              st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
                    max_size=40),
           st.integers(1, 300))
    @example(30.0, 0.0, [("sil", 0.5, 0.0), ("sil", 0.5, 0.1)], 40)
    @example(30.0, 0.0, [], 5)
    @example(30.0, 0.2, [("a", 0.3, 0.0), ("o", 0.3, 0.0)], 2)  # past the last frame
    @settings(max_examples=200, deadline=None)
    def test_drawn_timelines_match_envelopes_over_every_frame(self, fps, start, rows,
                                                              frame_count):
        """Any valid timeline, all-silent and empty ones included, and events
        that run past the last frame or start after it."""
        events, t = [], start
        for phoneme, length, gap in rows:
            events.append(ev(phoneme, t, t + length))
            t += length + gap
        validate_phonemes(events)
        times = np.arange(frame_count) / fps
        got_values, got_voicing = lipsync_track(events, fps, times, TABLE)
        values, voicing = reference_lipsync(events, times)
        np.testing.assert_array_equal(got_values, values)
        np.testing.assert_array_equal(got_voicing, voicing)


class TestEmotionInference:
    def test_lexicon_example(self):
        emotions = infer_dialogue_emotion(
            "That is wonderful", LexiconEmotionProvider(),
            categories=load_emotion_categories()
        )
        assert emotions == {"Joy": 0.8}

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


class TestTransition:
    def test_midpoint_of_smooth_channels(self):
        track = compose(entry("face1", {"Joy": 0.8}, jawOpen=0.8), 1.0, fps=100.0)
        assert channel(track, "jawOpen")[20] == pytest.approx(0.4, abs=1e-9)

    def test_endpoints_clamp(self):
        track = compose(entry("face1", {"Joy": 0.8}, jawOpen=0.8), 1.0, fps=100.0)
        jaw = channel(track, "jawOpen")
        assert jaw[0] == 0.0
        assert np.all(jaw[40:] == pytest.approx(0.8))

    def test_exaggeration_snaps_at_midpoint(self):
        track = compose(entry("face1", {"Joy": 0.8}, circleEyes=1.0), 1.0, fps=100.0)
        circle = channel(track, "circleEyes")
        assert circle[19] == 0.0
        assert circle[20] == 1.0
        assert circle[35] == 1.0

    def test_smooth_channel_is_smoothstep(self):
        track = compose(entry("face1", {"Joy": 0.8}, jawOpen=1.0), 2.0, fps=100.0,
                        transition_s=1.0)
        # smoothstep(0.25) = 3*0.0625 - 2*0.015625 = 0.15625
        assert channel(track, "jawOpen")[25] == pytest.approx(0.15625, abs=1e-12)


def schedule(duration, seed):
    return schedule_blinks(duration, random.Random(seed),
                           mean_gap_s=Config.blink_mean_gap_s,
                           min_gap_s=Config.blink_min_gap_s)


class TestBlinks:
    def test_envelope_shape(self):
        track = compose(entry("face1", {"Joy": 0.8}), 1.5, fps=1000.0,
                        blinks=[1.0])
        v = channel(track, "eyeBlinkL")[[990, 1000, 1050, 1100, 1125, 1150, 1225,
                                         1300, 1310]]
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
        assert schedule(10.0, 42) == golden

    def test_deterministic(self):
        runs = {tuple(schedule(10.0, 42)) for _ in range(50)}
        assert len(runs) == 1

    def test_every_blink_completes_before_end(self):
        for seed in range(30):
            for onset in schedule(3.0, seed):
                assert onset + BLINK_TOTAL_S <= 3.0 + 1e-9

    def test_minimum_gap_enforced(self):
        for seed in range(30):
            onsets = schedule(30.0, seed)
            for a, b in zip(onsets, onsets[1:]):
                assert b - (a + BLINK_TOTAL_S) >= 1.0 - 1e-9

    def test_short_duration_has_no_blinks(self):
        assert schedule(0.5, 0) == []

    def test_suppression_drops_only_overlapping(self):
        # Overlay eyes come on at half the transition: a blink that ends
        # by then is kept, every later one is dropped.
        onsets = schedule(10.0, 42)
        transition_s = 2.0 * (onsets[0] + BLINK_TOTAL_S)
        track = compose(entry("face1", {"Joy": 0.8}, angleEyes=1.0), 10.0,
                        blinks=onsets, transition_s=transition_s)
        assert track.provenance["blink_onsets"] == [round(onsets[0], 6)]
        assert len(onsets) > 1

    def test_suppression_does_not_shift_later_blinks(self):
        onsets = schedule(10.0, 42)
        for transition_s in (0.4, 4.0, 10.0, 20.0):
            track = compose(entry("face1", {"Joy": 0.8}, circleEyes=1.0), 10.0,
                            blinks=onsets, transition_s=transition_s)
            assert track.provenance["blink_onsets"] == [
                round(onset, 6) for onset in onsets
                if onset + BLINK_TOTAL_S <= transition_s / 2.0
            ]

    def test_full_suppression(self):
        onsets = schedule(10.0, 42)
        track = compose(entry("face1", {"Joy": 0.8}, circleEyes=1.0), 10.0,
                        blinks=onsets)
        assert onsets
        assert track.provenance["blink_onsets"] == []


class TestCompose:
    def static_entry(self, **shapes):
        return entry("face1", {"Joy": 0.8}, **shapes)

    def test_static_expression_tiles(self):
        track = compose(self.static_entry(mouthSmileL=0.6), 1.0)
        assert track.frame_count == 31
        smile = channel(track, "mouthSmileL")
        assert np.all(smile[12:] == pytest.approx(0.6))  # from t = 0.4 s

    def test_blink_max_combines_with_base(self):
        track = compose(self.static_entry(eyeBlinkL=0.3), 1.0, fps=100.0,
                        blinks=[0.4], transition_s=0.01)
        blink = channel(track, "eyeBlinkL")
        assert blink[1] == pytest.approx(0.3)       # base before the blink
        assert blink[50] == pytest.approx(1.0)      # fully closed at 0.5 s
        assert blink.max() == pytest.approx(1.0)
        assert blink[1:].min() == pytest.approx(0.3)  # never below base

    def test_lipsync_layering_formula(self):
        track = compose(self.static_entry(mouthSmileL=1.0, jawOpen=0.1), 1.0,
                        phonemes=[ev("a", 0.0, 1.0)])
        mid = 15  # fully voiced plateau
        assert channel(track, "jawOpen")[mid] == pytest.approx(0.58, abs=1e-9)
        assert channel(track, "mouthSmileL")[mid] == pytest.approx(0.2, abs=1e-9)

    def test_lipsync_leaves_base_during_silence(self):
        track = compose(self.static_entry(mouthSmileL=0.6), 1.0,
                        phonemes=[ev("sil", 0.0, 1.0)])
        expected = compose(self.static_entry(mouthSmileL=0.6), 1.0)
        assert np.all(channel(track, "mouthSmileL")
                      == channel(expected, "mouthSmileL"))
        assert channel(track, "mouthSmileL")[-1] == pytest.approx(0.6)

    def test_lipsync_does_not_touch_non_mouth_channels(self):
        track = compose(self.static_entry(browUpL=0.5), 1.0,
                        phonemes=[ev("a", 0.0, 1.0)])
        assert np.all(channel(track, "browUpL")[12:] == pytest.approx(0.5))

    def test_overlay_eyes_suppress_eyelids(self):
        track = compose(self.static_entry(circleEyes=1.0, eyeWideL=0.5), 1.0,
                        blinks=[0.4])
        circle = channel(track, "circleEyes")
        assert np.all(circle[6:] == 1.0) and np.all(circle[:6] == 0.0)
        for name in EYELID_CHANNELS:
            assert np.all(channel(track, name)[6:] == 0.0), name
        assert np.all(channel(track, "eyeBlinkL") == 0.0)  # the blink is dropped
        assert track.provenance["blink_onsets"] == []

    def test_transition_feeds_compose(self):
        track = compose(self.static_entry(jawOpen=0.8), 1.0)
        jaw = channel(track, "jawOpen")
        assert jaw[0] == pytest.approx(0.0)
        assert jaw[-1] == pytest.approx(0.8)
        assert np.all(np.diff(jaw) >= -1e-12)

    def test_provenance_contents(self):
        track = compose(self.static_entry(), 1.0, phonemes=[ev("a", 0.0, 1.0)],
                        blinks=[0.25], source="fallback")
        assert track.provenance["expression_id"] == "face1"
        assert track.provenance["blink_onsets"] == [0.25]
        assert track.provenance["lipsync_source"] == "fallback"

    def test_json_dict_shape(self):
        track = compose(self.static_entry(), 0.5)
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
        track = compose(
            self.static_entry(**shapes), duration,
            phonemes=fallback_phonemes("wow amazing", duration),
            blinks=schedule_blinks(duration, rng,
                                   mean_gap_s=Config.blink_mean_gap_s,
                                   min_gap_s=Config.blink_min_gap_s),
        )
        assert np.all(track.frames >= 0.0)
        assert np.all(track.frames <= 1.0)
        if overlay:
            on = channel(track, "angleEyes") > 0.0
            for name in EYELID_CHANNELS:
                assert np.all(channel(track, name)[on] == 0.0)
            assert track.provenance["blink_onsets"] == []

    @pytest.mark.parametrize("fps", [24.0, 29.97, 30.0, 60.0])
    def test_matches_layered_reference_bit_for_bit(self, fps):
        rng = random.Random(int(fps * 1000))
        names = list(CHANNEL_REGISTRY)
        for case in range(40):
            shapes = empty_blendshapes()
            for name in rng.sample(names, rng.randint(0, 10)):
                shapes[name] = rng.choice([rng.random(), 0.0, -0.0, 1.0])
            if rng.random() < 0.5:
                shapes[rng.choice(["circleEyes", "angleEyes"])] = rng.choice(
                    [rng.random(), 1.0])
            expression = ExpressionEntry(f"e{case}", shapes, {"Joy": 1.0}, {})
            events, end = random_phonemes(rng, fps, count=rng.randint(0, 30))
            duration = max(end, 0.2) * rng.uniform(0.8, 1.2)
            onsets = schedule_blinks(duration, rng, mean_gap_s=2.0, min_gap_s=0.5)
            onsets += [rng.uniform(-0.5, duration + 0.5)
                       for _ in range(rng.randint(0, 3))]
            transition_s = rng.choice([0.4, rng.uniform(0.01, 2.0)])

            track = compose(expression, duration, fps=fps, phonemes=events,
                            blinks=onsets, transition_s=transition_s)
            frames, kept = reference_compose(expression, events, onsets, duration,
                                             fps, transition_s)
            assert track.frames.tobytes() == frames.tobytes(), case
            assert track.provenance["blink_onsets"] == kept, case
