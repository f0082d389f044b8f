"""Expression dataset construction: fusion, annotation, build, validation."""

import copy
import json
import math
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toonmotion import expression_dataset
from toonmotion.cli import main
from toonmotion.errors import (
    EmptyDataset,
    EmptyEmotionResponse,
    InvalidLandmarks,
    MalformedEntry,
    ProviderUnavailable,
    UnknownOption,
)
from toonmotion.expression_dataset import (
    CHANNEL_REGISTRY,
    EXAGGERATION_CHANNELS,
    EYELID_CHANNELS,
    FACE_CHANNELS,
    MOUTH_CHANNELS,
    ExpressionEntry,
    LandmarkSet,
    Tag,
    answer_poses,
    build_dataset,
    empty_blendshapes,
    fuse_sources,
    load_expression_dataset,
    parse_source_fixture,
    restrict_emotion_response,
    validate_entry,
)
from toonmotion.providers import LexiconEmotionProvider, load_emotion_categories

from conftest import FIXTURES, GOLDENS, put

CATEGORIES = frozenset(load_emotion_categories())


def base_points():
    """Calibrated face: level mouth corners, relaxed brows, open eyes.

    Eye width 40 with lid gap 16 sits exactly at the blink zero point, the
    10px mouth gap is small against the 60px mouth, and brows sit at half
    an eye width above the eye line.
    """
    return [
        [120, 260], [150, 290], [200, 300], [250, 290], [280, 260],
        [135, 162], [155, 158], [175, 160],
        [225, 160], [245, 158], [265, 162],
        [135, 180], [155, 172], [175, 180], [155, 188],
        [225, 180], [245, 172], [265, 180], [245, 188],
        [195, 195], [200, 205], [205, 215], [195, 220], [205, 220],
        [170, 245], [200, 240], [230, 245], [200, 250],
    ]


BBOX = (100.0, 100.0, 300.0, 320.0)


def landmarks(points=None):
    return LandmarkSet(points=points or base_points(), bbox=BBOX)


def with_eye_gap(points, gap):
    pts = copy.deepcopy(points)
    for top, bottom in ((12, 14), (16, 18)):
        pts[top][1] = 180 - gap / 2.0
        pts[bottom][1] = 180 + gap / 2.0
    return pts


def with_mouth(points, top_y, bottom_y, corner_dy=0.0):
    pts = copy.deepcopy(points)
    pts[25][1] = top_y
    pts[27][1] = bottom_y
    pts[24][1] += corner_dy
    pts[26][1] += corner_dy
    return pts


def fuse(tags=(), points=None, **answers):
    return fuse_sources(list(tags), landmarks(points), answer_poses(answers))


def overflowing_source():
    """img01 with its mouth and box near the float limit and no answers: the
    mouth width overflows, which once made mouthFrown NaN."""
    raw = json.loads((FIXTURES / "expression_sources" / "img01.json").read_text("utf-8"))
    raw["landmarks"]["points"][24:28] = [
        [-1.5e308, 1.5e308], [0, 1.5e308], [1.5e308, 1.5e308], [0, 1.6e308]]
    raw["landmarks"]["bbox"] = [-1.7e308, -1.7e308, 1.7e308, 1.7e308]
    raw["answers"] = {}
    return raw


class TestChannelRegistry:
    def test_registry_size(self):
        assert len(FACE_CHANNELS) == 25
        assert len(EXAGGERATION_CHANNELS) == 5
        assert len(CHANNEL_REGISTRY) == 30
        assert len(set(CHANNEL_REGISTRY)) == 30

    def test_empty_blendshapes_covers_registry(self):
        shapes = empty_blendshapes()
        assert set(shapes) == set(CHANNEL_REGISTRY)
        assert all(v == 0.0 for v in shapes.values())


class TestGeometryPass:
    def test_calibrated_face_is_mostly_zero(self):
        shapes = fuse()
        assert shapes["eyeBlinkL"] == 0.0
        assert shapes["eyeBlinkR"] == 0.0
        assert shapes["mouthSmileL"] == 0.0
        assert shapes["mouthFrownL"] == 0.0
        assert shapes["browUpL"] == pytest.approx(0.0, abs=1e-9)
        assert shapes["browDownL"] == pytest.approx(0.0, abs=1e-9)
        # 10px gap over 0.8 * 60px mouth width
        assert shapes["jawOpen"] == pytest.approx(10.0 / 48.0, abs=1e-9)

    def test_closed_eyes_give_full_blink(self):
        shapes = fuse(points=with_eye_gap(base_points(), 0.0))
        assert shapes["eyeBlinkL"] == 1.0
        assert shapes["eyeBlinkR"] == 1.0

    def test_half_lidded_eyes(self):
        shapes = fuse(points=with_eye_gap(base_points(), 8.0))
        assert shapes["eyeBlinkL"] == pytest.approx(0.5, abs=1e-9)

    def test_wide_open_mouth(self):
        shapes = fuse(points=with_mouth(base_points(), 233, 257))
        assert shapes["jawOpen"] == pytest.approx(0.5, abs=1e-9)

    def test_lifted_corners_read_as_smile(self):
        shapes = fuse(points=with_mouth(base_points(), 240, 250, corner_dy=-8.0))
        assert shapes["mouthSmileL"] == pytest.approx(0.4, abs=1e-9)
        assert shapes["mouthSmileR"] == pytest.approx(0.4, abs=1e-9)
        assert shapes["mouthFrownL"] == 0.0

    def test_dropped_corners_read_as_frown(self):
        shapes = fuse(points=with_mouth(base_points(), 240, 250, corner_dy=8.0))
        assert shapes["mouthFrownL"] == pytest.approx(0.4, abs=1e-9)
        assert shapes["mouthSmileL"] == 0.0

    def test_raised_brows(self):
        pts = base_points()
        for i in (5, 6, 7, 8, 9, 10):
            pts[i][1] -= 8.0  # brows move up (smaller y)
        shapes = fuse(points=pts)
        assert shapes["browUpL"] == pytest.approx(0.4, abs=1e-9)
        assert shapes["browDownL"] == 0.0

    def test_lowered_brows(self):
        pts = base_points()
        for i in (5, 6, 7, 8, 9, 10):
            pts[i][1] += 8.0
        shapes = fuse(points=pts)
        assert shapes["browDownL"] == pytest.approx(0.4, abs=1e-9)
        assert shapes["browUpL"] == 0.0

    def test_asymmetric_eyes(self):
        pts = base_points()
        pts[12][1] = 180 - 2.0  # left eye nearly shut
        pts[14][1] = 180 + 2.0
        shapes = fuse(points=pts)
        assert shapes["eyeBlinkL"] == pytest.approx(0.75, abs=1e-9)
        assert shapes["eyeBlinkR"] == 0.0


class TestTagPass:
    def test_exaggeration_tag_sets_channel(self):
        shapes = fuse(tags=[Tag("blush", 0.9)])
        assert shapes["blush"] == pytest.approx(0.9)

    def test_tag_below_confidence_floor_ignored(self):
        shapes = fuse(tags=[Tag("blush", 0.3)])
        assert shapes["blush"] == 0.0

    def test_floor_is_inclusive(self):
        shapes = fuse(tags=[Tag("sweat", 0.35)])
        assert shapes["sweatDrop"] == pytest.approx(0.35)

    def test_tag_aliases(self):
        assert fuse(tags=[Tag("sweat_drop", 0.8)])["sweatDrop"] == pytest.approx(0.8)
        assert fuse(tags=[Tag("shock_lines", 0.8)])["shockLines"] == pytest.approx(0.8)

    def test_smile_tag_beats_weaker_geometry(self):
        points = with_mouth(base_points(), 240, 250, corner_dy=-8.0)  # geom 0.4
        shapes = fuse(tags=[Tag("smile", 0.9)], points=points)
        assert shapes["mouthSmileL"] == pytest.approx(0.9)

    def test_stronger_geometry_survives_smile_tag(self):
        points = with_mouth(base_points(), 240, 250, corner_dy=-16.0)  # geom 0.8
        shapes = fuse(tags=[Tag("smile", 0.5)], points=points)
        assert shapes["mouthSmileL"] == pytest.approx(0.8)

    def test_unknown_tag_is_ignored(self):
        shapes = fuse(tags=[Tag("sparkles", 0.99)])
        assert shapes == fuse()


class TestAnswerPass:
    def test_closed_eyes_answer_overrides_geometry(self):
        shapes = fuse(points=with_eye_gap(base_points(), 16.0), eye_state="closed")
        assert shapes["eyeBlinkL"] == 1.0
        assert shapes["eyeBlinkR"] == 1.0

    def test_open_eyes_answer_clears_geometry_blink(self):
        shapes = fuse(points=with_eye_gap(base_points(), 4.0), eye_state="open")
        assert shapes["eyeBlinkL"] == 0.0

    def test_circle_eyes_zero_the_eyelids(self):
        shapes = fuse(points=with_eye_gap(base_points(), 2.0), eye_state="circle")
        assert shapes["circleEyes"] == 1.0
        for name in EYELID_CHANNELS:
            assert shapes[name] == 0.0

    def test_angle_eyes_zero_the_eyelids(self):
        shapes = fuse(eye_state="angle")
        assert shapes["angleEyes"] == 1.0
        for name in EYELID_CHANNELS:
            assert shapes[name] == 0.0

    def test_mouth_answer_overrides_whole_category(self):
        points = with_mouth(base_points(), 228, 262)  # jawOpen well above 0
        shapes = fuse(tags=[Tag("frown", 0.9)], points=points, mouth="smile")
        assert shapes["mouthSmileL"] == pytest.approx(0.8)
        assert shapes["mouthFrownL"] == 0.0
        assert shapes["jawOpen"] == 0.0

    def test_brow_answer(self):
        shapes = fuse(brow="furrowed")
        assert shapes["browDownL"] == pytest.approx(0.7)
        assert shapes["browUpL"] == 0.0

    def test_overlay_none_clears_tags(self):
        shapes = fuse(tags=[Tag("blush", 0.9), Tag("sweat", 0.8)],
                      overlays=["none"])
        assert shapes["blush"] == 0.0
        assert shapes["sweatDrop"] == 0.0

    def test_overlay_answer_sets_full_strength(self):
        shapes = fuse(overlays=["shock", "sweat"])
        assert shapes["shockLines"] == 1.0
        assert shapes["sweatDrop"] == 1.0
        assert shapes["blush"] == 0.0

    @given(st.sampled_from(["open", "half", "closed", "circle", "angle"]),
           st.floats(min_value=0.0, max_value=16.0))
    @settings(max_examples=40, deadline=None)
    def test_eye_answer_always_wins(self, option, gap):
        shapes = fuse(points=with_eye_gap(base_points(), gap), eye_state=option)
        expected = {
            "open": 0.0, "half": 0.5, "closed": 1.0, "circle": 0.0, "angle": 0.0,
        }[option]
        assert shapes["eyeBlinkL"] == pytest.approx(expected)

    def test_unknown_options_rejected(self):
        with pytest.raises(UnknownOption):
            answer_poses({"eye_state": "squint"})
        with pytest.raises(UnknownOption):
            answer_poses({"mouth": "grin"})
        with pytest.raises(UnknownOption):
            answer_poses({"overlays": ["none", "blush"]})

    def test_null_single_choice_is_unanswered(self):
        geometry = fuse(points=with_eye_gap(base_points(), 8.0))
        assert answer_poses({"eye_state": None, "mouth": None, "brow": None}) == {}
        assert fuse(points=with_eye_gap(base_points(), 8.0),
                    eye_state=None, mouth=None, brow=None) == geometry

    def test_unknown_question_reported_before_bad_option(self):
        with pytest.raises(UnknownOption, match="^unknown question id 'aa'$"):
            answer_poses({"eye_state": "squint", "zz": 1, "aa": 2})

    def test_first_bad_option_in_question_order_reported(self):
        answers = {"overlays": ["sparkle"], "brow": "wiggle", "mouth": 3}
        with pytest.raises(UnknownOption, match="^mouth option 3$"):
            answer_poses(answers)
        with pytest.raises(UnknownOption, match=r"^overlays option \['blush'\]$"):
            answer_poses({"overlays": ["none", ["blush"]]})

    @pytest.mark.parametrize("overlays", [None, 1, "blush", {"blush": 1}],
                             ids=["null", "number", "string", "object"])
    def test_overlays_must_be_a_list(self, overlays):
        with pytest.raises(MalformedEntry) as info:
            answer_poses({"overlays": overlays})
        assert info.value.field == "answers"


class TestFusionInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["blush", "sweat", "shock", "smile", "frown",
                                 "sparkles"]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            max_size=4,
        ),
        st.floats(min_value=0.0, max_value=20.0),
        st.sampled_from([None, "open", "closed", "circle", "angle"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_always_in_range_and_exclusive(self, tag_rows, gap, eye_state):
        tags = [Tag(name, conf) for name, conf in tag_rows]
        shapes = fuse_sources(
            tags,
            landmarks(with_eye_gap(base_points(), gap)),
            answer_poses({"eye_state": eye_state}),
        )
        assert set(shapes) == set(CHANNEL_REGISTRY)
        for value in shapes.values():
            assert 0.0 <= value <= 1.0
        if shapes["circleEyes"] > 0 or shapes["angleEyes"] > 0:
            assert all(shapes[name] == 0.0 for name in EYELID_CHANNELS)


class TestLandmarkValidation:
    def test_wrong_point_count(self):
        with pytest.raises(InvalidLandmarks):
            LandmarkSet(points=base_points()[:27], bbox=BBOX)

    def test_degenerate_bbox(self):
        with pytest.raises(InvalidLandmarks):
            LandmarkSet(points=base_points(), bbox=(100, 100, 100, 320))

    def test_point_outside_bbox(self):
        pts = base_points()
        pts[0] = [900.0, 900.0]
        with pytest.raises(InvalidLandmarks) as info:
            LandmarkSet(points=pts, bbox=BBOX)
        assert "landmark 0" in str(info.value)

    def test_slack_tolerates_slightly_outside(self):
        pts = base_points()
        pts[0] = [100 - 39.0, 260.0]  # within the 20% slack band
        landmarks(pts)

    def test_degenerate_eye(self):
        pts = base_points()
        pts[11] = pts[13]  # outer corner collapses onto inner
        with pytest.raises(InvalidLandmarks):
            landmarks(pts)

    def test_degenerate_mouth(self):
        pts = base_points()
        pts[26] = pts[24]  # right mouth corner collapses onto the left
        with pytest.raises(InvalidLandmarks, match="degenerate mouth width"):
            landmarks(pts)

    def test_overflowing_geometry_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidLandmarks, match="landmark geometry overflows"):
                parse_source_fixture(overflowing_source())


class TestEmotionRestriction:
    KNOWN = {"Joy", "Sadness", "Anger", "Fear", "Calmness", "Surprise",
             "Interest", "Amusement", "Shock", "Curiosity"}

    def test_unknown_categories_dropped(self):
        out = restrict_emotion_response({"Joy": 0.8, "Zeal": 0.9}, self.KNOWN)
        assert out == {"Joy": 0.8}

    def test_non_positive_dropped(self):
        out = restrict_emotion_response(
            {"Joy": 0.8, "Sadness": 0.0, "Anger": -0.5}, self.KNOWN
        )
        assert out == {"Joy": 0.8}

    def test_overrange_clamped(self):
        out = restrict_emotion_response({"Joy": 1.7}, self.KNOWN)
        assert out == {"Joy": 1.0}

    def test_top_eight_by_intensity_then_name(self):
        response = {name: 0.5 for name in sorted(self.KNOWN)}
        response["Joy"] = 0.9
        out = restrict_emotion_response(response, self.KNOWN)
        assert len(out) == 8
        assert list(out)[0] == "Joy"
        # The two alphabetically last of the 0.5 ties are dropped.
        dropped = sorted(set(self.KNOWN) - set(out))
        assert dropped == ["Shock", "Surprise"]

    def test_empty_response_raises(self):
        with pytest.raises(EmptyEmotionResponse):
            restrict_emotion_response({"Zeal": 0.9}, self.KNOWN)


# Each case: where a source fixture gets a value of the wrong kind, the
# value, and the field its error names.
MISTYPED_SOURCE_FIELDS = {
    "confidence_word": (("tags", 0, "confidence"), "high", "tags"),
    "confidence_numeric_string": (("tags", 0, "confidence"), "0.9", "tags"),
    "confidence_boolean": (("tags", 0, "confidence"), True, "tags"),
    "tag_number": (("tags", 0, "tag"), 5, "tags"),
    "tag_without_confidence": (("tags", 0), {"tag": "smile"}, "tags"),
    "bbox_three_values": (("landmarks", "bbox"), [0, 0, 1], "landmarks"),
    "bbox_infinite": (("landmarks", "bbox"), [0, 0, math.inf, math.inf], "landmarks"),
    "point_string_coordinate": (("landmarks", "points", 3), ["x", 1], "landmarks"),
    "image_id_number": (("image_id",), 5, "image_id"),
    "image_id_array": (("image_id",), ["a"], "image_id"),
}


class TestSourceParsing:
    def good_fixture(self):
        return {
            "image_id": "imgX",
            "dialogue": "hello",
            "tags": [{"tag": "Blush", "confidence": 0.9}],
            "landmarks": {"points": base_points(), "bbox": list(BBOX)},
            "answers": {"mouth": "smile"},
        }

    def test_parse_good_fixture(self):
        image_id, dialogue, tags, lms, answers = parse_source_fixture(
            self.good_fixture()
        )
        assert image_id == "imgX"
        assert tags[0].tag == "blush"  # lowercased
        assert answers == {"mouth": {"mouthSmileL": 0.8, "mouthSmileR": 0.8}}
        assert lms.mouth_width == pytest.approx(60.0)

    def test_missing_image_id(self):
        raw = self.good_fixture()
        del raw["image_id"]
        with pytest.raises(MalformedEntry):
            parse_source_fixture(raw)

    def test_confidence_out_of_range(self):
        raw = self.good_fixture()
        raw["tags"][0]["confidence"] = 1.5
        with pytest.raises(MalformedEntry):
            parse_source_fixture(raw)

    def test_unknown_question_id(self):
        raw = self.good_fixture()
        raw["answers"]["nostrils"] = "flared"
        with pytest.raises(UnknownOption):
            parse_source_fixture(raw)

    def test_null_dialogue_allowed(self):
        raw = self.good_fixture()
        raw["dialogue"] = None
        _, dialogue, _, _, _ = parse_source_fixture(raw)
        assert dialogue is None

    @pytest.mark.parametrize("case", sorted(MISTYPED_SOURCE_FIELDS))
    def test_mistyped_value_names_its_field(self, case):
        path, value, field = MISTYPED_SOURCE_FIELDS[case]
        with pytest.raises(MalformedEntry) as info:
            parse_source_fixture(put(self.good_fixture(), path, value))
        assert info.value.field == field

    @pytest.mark.parametrize("value,message", [
        (None, "missing image_id"),
        ("", "missing image_id"),
        (5, "image_id must be a string, not 5"),
        (["a"], "image_id must be a string, not an array"),
        ({}, "image_id must be a string, not an object"),
        (False, "image_id must be a string, not false"),
    ])
    def test_image_id_fault_says_what_is_wrong(self, value, message):
        with pytest.raises(MalformedEntry) as info:
            parse_source_fixture(put(self.good_fixture(), ("image_id",), value))
        assert str(info.value) == f"{message} (field: image_id)"


def img01_source():
    return json.loads((FIXTURES / "expression_sources" / "img01.json").read_text("utf-8"))


def far_contour_source():
    """img01 with its contour and nose points, which no measurement reads,
    near the float limit: their sum overflows, each value is finite."""
    raw = img01_source()
    for i in (*range(0, 5), *range(19, 24)):
        raw["landmarks"]["points"][i] = [1.5e308, 1.5e308]
    raw["landmarks"]["bbox"] = [0, 0, 1.6e308, 1.6e308]
    return raw


def coordinates_written_as(raw, kind):
    """*raw* with every landmark coordinate written as a JSON real (*kind*
    float) or integer (*kind* int), decoded back from JSON text."""
    lms = raw["landmarks"]
    lms["points"] = [[kind(v) for v in point] for point in lms["points"]]
    lms["bbox"] = [kind(v) for v in lms["bbox"]]
    return json.loads(json.dumps(raw))


def landmark_outcome(raw):
    """The landmark measurements parse_source_fixture takes from *raw*, or
    the error it raises."""
    try:
        lms = parse_source_fixture(raw)[3]
    except (MalformedEntry, InvalidLandmarks) as exc:
        return type(exc).__name__, str(exc)
    return (lms.mouth_width, lms.mouth_gap, lms.mouth_center_y, lms.eye_width,
            lms.eye_gap, lms.eye_center_y, lms.brow_y)


class TestLandmarkPointFastPath:
    """Points that are all JSON reals are checked in one pass; an integer
    among them sends the check value by value. Both must decide alike."""

    @pytest.mark.parametrize("source, sum_overflows, loads", [
        (img01_source, False, True),
        (far_contour_source, True, True),
        (overflowing_source, True, False),
    ], ids=["plain", "sum_overflows", "geometry_overflows"])
    def test_reals_decide_as_integers_do(self, source, sum_overflows, loads):
        reals = coordinates_written_as(source(), float)
        total = sum(v for point in reals["landmarks"]["points"] for v in point)
        assert math.isinf(total) == sum_overflows
        outcome = landmark_outcome(reals)
        assert outcome == landmark_outcome(coordinates_written_as(source(), int))
        assert (outcome[0] != "InvalidLandmarks") == loads

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    def test_non_finite_real_named_as_the_slow_path_names_it(self, value):
        outcomes = []
        for kind in (float, int):
            raw = coordinates_written_as(img01_source(), kind)
            raw["landmarks"]["points"][3][1] = value
            outcomes.append(landmark_outcome(json.loads(json.dumps(raw))))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "MalformedEntry"
        assert "landmark point 3 is non-finite" in outcomes[0][1]


class TestAnnotation:
    def make_entry(self, dialogue):
        return ExpressionEntry(
            id="e1",
            blendshapes=empty_blendshapes(),
            emotions={},
            source={"image_id": "e1", "dialogue": dialogue},
        )

    def test_lexicon_annotation(self):
        from toonmotion.expression_dataset import annotate_emotion

        entry = annotate_emotion(self.make_entry("That is wonderful"),
                                 LexiconEmotionProvider(),
                                 categories=load_emotion_categories())
        assert entry.emotions == {"Joy": 0.8}

    def test_missing_dialogue_goes_calm(self):
        from toonmotion.expression_dataset import annotate_emotion

        entry = annotate_emotion(self.make_entry(None), LexiconEmotionProvider(),
                                 categories=load_emotion_categories())
        assert entry.emotions == {"Calmness": 0.5}


class TestBuild:
    def test_fixture_corpus_builds_clean(self, tmp_path):
        out = tmp_path / "expressions.jsonl"
        entries, report = build_dataset(
            FIXTURES / "expression_sources", LexiconEmotionProvider(), out,
            categories=load_emotion_categories()
        )
        assert report.total == 10
        assert report.rejects == []
        assert report.exaggeration_share == pytest.approx(0.5)
        assert all(
            count == 1 for count in report.exaggeration_counts.values()
        ), report.exaggeration_counts
        assert [e.id for e in entries] == sorted(e.id for e in entries)

    def test_rebuild_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        build_dataset(FIXTURES / "expression_sources", LexiconEmotionProvider(), a,
                      categories=load_emotion_categories())
        build_dataset(FIXTURES / "expression_sources", LexiconEmotionProvider(), b,
                      categories=load_emotion_categories())
        assert a.read_bytes() == b.read_bytes()

    def test_built_file_round_trips(self, tmp_path):
        out = tmp_path / "expressions.jsonl"
        entries, _ = build_dataset(
            FIXTURES / "expression_sources", LexiconEmotionProvider(), out,
            categories=load_emotion_categories()
        )
        loaded = load_expression_dataset(out, load_emotion_categories())
        assert [e.id for e in loaded] == [e.id for e in entries]
        # Serialization rounds to 6 decimals.
        for built, back in zip(entries, loaded):
            assert back.blendshapes == pytest.approx(built.blendshapes, abs=1e-6)
            assert back.emotions == pytest.approx(built.emotions, abs=1e-6)

    def test_bad_fixture_rejected_in_isolation(self, tmp_path):
        src = tmp_path / "sources"
        shutil.copytree(FIXTURES / "expression_sources", src)
        (src / "img03.json").write_text('{"image_id": "img03"}', encoding="utf-8")
        entries, report = build_dataset(src, LexiconEmotionProvider(),
                                        categories=load_emotion_categories())
        assert report.total == 9
        assert len(report.rejects) == 1
        assert report.rejects[0]["file"] == "img03.json"
        assert "img03" not in [e.id for e in entries]

    @pytest.mark.parametrize("case", sorted(MISTYPED_SOURCE_FIELDS))
    def test_mistyped_fixture_rejected_naming_the_field(self, tmp_path, case):
        path, value, field = MISTYPED_SOURCE_FIELDS[case]
        src = tmp_path / "sources"
        shutil.copytree(FIXTURES / "expression_sources", src)
        raw = json.loads((src / "img01.json").read_text(encoding="utf-8"))
        (src / "img01.json").write_text(json.dumps(put(raw, path, value)),
                                        encoding="utf-8")
        entries, report = build_dataset(src, LexiconEmotionProvider(),
                                        categories=load_emotion_categories())
        assert report.total == 9
        assert [r["file"] for r in report.rejects] == ["img01.json"]
        assert report.rejects[0]["error"].endswith(f"(field: {field})")

    def test_report_does_not_depend_on_the_source_directory(self, tmp_path, capsys):
        reports = []
        for sources in (tmp_path / "a", tmp_path / "longer_directory_name" / "b"):
            shutil.copytree(FIXTURES / "expression_sources", sources)
            (sources / "zz_bad.json").write_text('{"image_id": ', encoding="utf-8")
            report = sources.parent / f"{sources.name}_report.json"
            assert main(["build-expressions", "--sources", str(sources),
                         "--out", str(sources.parent / "out.jsonl"),
                         "--report", str(report)]) == 0
            reports.append(report.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]
        rejects = json.loads(reports[0])["rejects"]
        assert [r["file"] for r in rejects] == ["zz_bad.json"]
        assert rejects[0]["error"].startswith("zz_bad.json: line 1, col 14: invalid JSON")

    def test_overflowing_geometry_is_one_reject(self, tmp_path, capsys):
        src = tmp_path / "sources"
        shutil.copytree(FIXTURES / "expression_sources", src)
        (src / "img01.json").write_text(json.dumps(overflowing_source()),
                                        encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["build-expressions", "--sources", str(src),
                     "--out", str(tmp_path / "out.jsonl"),
                     "--report", str(report)]) == 0
        capsys.readouterr()
        assert json.loads(report.read_text("utf-8"))["rejects"] == [
            {"file": "img01.json", "error": "landmark geometry overflows"}]

    def test_unreadable_source_is_a_reject_named_by_file(self, tmp_path):
        src = tmp_path / "sources"
        shutil.copytree(FIXTURES / "expression_sources", src)
        (src / "zz.json").mkdir()
        _, report = build_dataset(src, LexiconEmotionProvider(),
                                  categories=load_emotion_categories())
        assert report.total == 10
        [reject] = report.rejects
        assert reject["file"] == "zz.json"
        assert reject["error"].endswith("'zz.json'")
        assert str(tmp_path) not in reject["error"]

    def test_program_fault_propagates(self, tmp_path, monkeypatch):
        def broken(*args):
            raise RuntimeError("fault in fusion")

        monkeypatch.setattr(expression_dataset, "fuse_sources", broken)
        with pytest.raises(RuntimeError, match="fault in fusion"):
            build_dataset(FIXTURES / "expression_sources", LexiconEmotionProvider(),
                          categories=load_emotion_categories())

    def test_provider_outage_aborts_the_build(self, tmp_path):
        class Down:
            def infer(self, text, image_ref=None):
                raise ProviderUnavailable("emotion endpoint unreachable")

        out = tmp_path / "expressions.jsonl"
        with pytest.raises(ProviderUnavailable):
            build_dataset(FIXTURES / "expression_sources", Down(), out,
                          categories=load_emotion_categories())
        assert not out.exists()

    def test_empty_directory(self, tmp_path):
        entries, report = build_dataset(tmp_path, LexiconEmotionProvider(),
                                        categories=load_emotion_categories())
        assert entries == []
        assert report.total == 0
        assert report.exaggeration_share == 0.0

    def test_duplicate_image_ids_rejected(self, tmp_path):
        src = tmp_path / "sources"
        src.mkdir()
        fixture = json.loads(
            (FIXTURES / "expression_sources" / "img01.json").read_text("utf-8")
        )
        for name, image_id in [("a.json", "img_b"), ("b.json", "img_b"), ("c.json", "img_c"),
                               ("d.json", "img_a"), ("e.json", "img_a")]:
            (src / name).write_text(json.dumps({**fixture, "image_id": image_id}),
                                    encoding="utf-8")
        with pytest.raises(MalformedEntry) as info:
            build_dataset(src, LexiconEmotionProvider(),
                          categories=load_emotion_categories())
        assert str(info.value) == "duplicate entry id 'img_a' across fixtures (field: id)"


def test_questionnaire_matches_frozen_golden(tmp_path, capsys):
    golden = GOLDENS / "questionnaire"
    out, report = tmp_path / "expressions.jsonl", tmp_path / "report.json"
    assert main(["build-expressions", "--sources", str(golden / "sources"),
                 "--out", str(out), "--report", str(report)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (golden / "expressions.jsonl").read_bytes()
    assert report.read_bytes() == (golden / "report.json").read_bytes()


class TestLoad:
    def test_empty_file_is_an_empty_dataset(self, tmp_path):
        path = tmp_path / "expressions.jsonl"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(EmptyDataset):
            load_expression_dataset(path, CATEGORIES)

    def test_entry_without_emotions_rejected(self, tmp_path):
        lines = (FIXTURES / "expressions.jsonl").read_text("utf-8").splitlines()
        record = json.loads(lines[0])
        record["emotions"] = {}
        path = tmp_path / "expressions.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(MalformedEntry, match="empty emotion vector"):
            load_expression_dataset(path, CATEGORIES)


class TestValidateEntry:
    def valid_entry(self):
        return ExpressionEntry(
            id="ok",
            blendshapes=empty_blendshapes(),
            emotions={"Joy": 0.5},
            source={},
        )

    def test_valid_entry_passes(self):
        assert validate_entry(self.valid_entry(), CATEGORIES) == []

    def test_unknown_channel(self):
        entry = self.valid_entry()
        entry.blendshapes["eyebrowWiggle"] = 0.5
        assert any("unknown channel" in v for v in validate_entry(entry, CATEGORIES))

    def test_missing_channel(self):
        entry = self.valid_entry()
        del entry.blendshapes["jawOpen"]
        assert any("missing channel" in v for v in validate_entry(entry, CATEGORIES))

    def test_range_violation(self):
        for value in (1.2, math.nan, math.inf, -math.inf):
            entry = self.valid_entry()
            entry.blendshapes["jawOpen"] = value
            violations = validate_entry(entry, CATEGORIES)
            assert any("range violation" in v for v in violations), value

    def test_exclusivity_violation(self):
        entry = self.valid_entry()
        entry.blendshapes["circleEyes"] = 1.0
        entry.blendshapes["eyeBlinkL"] = 0.4
        assert any("exclusivity" in v for v in validate_entry(entry, CATEGORIES))

    def test_empty_emotions(self):
        entry = self.valid_entry()
        entry.emotions = {}
        assert any("empty emotion" in v for v in validate_entry(entry, CATEGORIES))

    def test_emotion_intensity_bounds(self):
        for value in (1.5, math.nan, math.inf, -math.inf):
            entry = self.valid_entry()
            entry.emotions = {"Joy": value}
            violations = validate_entry(entry, CATEGORIES)
            assert any("emotion intensity" in v for v in violations), value

    def test_unknown_emotion_category(self):
        entry = self.valid_entry()
        entry.emotions = {"Zeal": 0.5}
        violations = validate_entry(entry, CATEGORIES)
        assert any("not in configured list" in v for v in violations)

    def test_more_than_eight_emotions(self):
        entry = self.valid_entry()
        entry.emotions = {name: 0.5 for name in sorted(CATEGORIES)[:9]}
        assert validate_entry(entry, CATEGORIES) == ["more than 8 emotion categories"]

    def test_fixture_dataset_validates(self):
        for entry in load_expression_dataset(FIXTURES / "expressions.jsonl",
                                             CATEGORIES):
            assert validate_entry(entry, CATEGORIES) == []
