"""The fast paths of the expression build against plain oracles kept here:
canonical_json on float maps, the indexed lexicon scan, the landmark
geometry of fuse_sources, and fuse_sources without a final clamp. Each must
give exactly the oracle's output."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toonmotion.errors import InvalidLandmarks, ToonmotionError
from toonmotion.expression_dataset import (
    BROW_GAIN,
    BROW_NEUTRAL_RATIO,
    CORNER_SLOPE_GAIN,
    EYE_GAP_SCALE,
    MOUTH_GAP_SCALE,
    QUESTIONS,
    LandmarkSet,
    Tag,
    answer_poses,
    empty_blendshapes,
    fuse_sources,
    parse_source_fixture,
)
from toonmotion.jsonutil import canonical_json, read_json
from toonmotion.providers import LexiconEmotionProvider, load_emotion_lexicon

from conftest import FIXTURES, GOLDENS

# ----------------------------------------------------------- canonical_json


def reference_float_map(obj: dict) -> str:
    """Member by member, in sorted key order: JSON key, ``:``, 6 decimals."""
    members = []
    for key in sorted(obj):
        value = obj[key]
        if not math.isfinite(value):
            raise ValueError(f"non-finite float in JSON output: {value!r}")
        members.append(json.dumps(key, ensure_ascii=False) + ":" + f"{value:.6f}")
    return "{" + ",".join(members) + "}"


def reference_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.6f}"


KEYS = st.text(alphabet=st.one_of(st.sampled_from('%"\\\x00\x1f\n\t é字'),
                                  st.characters()), max_size=6)
SPECIAL_FLOATS = [0.0, -0.0, 5e-7, -5e-7, 4.9999999e-7, 1e300, -1e300, 5e-324,
                  -5e-324, 2.2250738585072014e-308 / 3, 0.5, 1.0000005, 123.4564999]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL_FLOATS))


@given(st.dictionaries(KEYS, FLOATS, min_size=1, max_size=40))
@example({"%s": 1.0, "%%": -0.0, "%.6f": 5e-7, '"': -5e-7, "\\": 1e300, "\x01": 5e-324})
@settings(max_examples=200, deadline=None)
def test_float_map_matches_reference(obj):
    assert canonical_json(obj) == reference_float_map(obj)
    assert canonical_json({"outer": obj}) == '{"outer":' + reference_float_map(obj) + "}"


@given(st.dictionaries(KEYS, FLOATS, min_size=1, max_size=12),
       st.lists(st.tuples(KEYS, st.sampled_from([math.nan, math.inf, -math.inf])),
                min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_non_finite_float_map_raises_the_reference_error(obj, bad):
    obj = {**obj, **dict(bad)}
    with pytest.raises(ValueError) as expected:
        reference_float_map(obj)
    with pytest.raises(ValueError) as got:
        canonical_json(obj)
    assert str(got.value) == str(expected.value)


MIXED_VALUES = st.one_of(FLOATS, st.integers(), st.booleans(),
                         FLOATS.map(np.float64))


@given(st.dictionaries(KEYS, MIXED_VALUES, max_size=12))
@settings(max_examples=150, deadline=None)
def test_mixed_map_matches_reference(obj):
    expected = "{" + ",".join(json.dumps(key, ensure_ascii=False) + ":"
                              + reference_scalar(obj[key]) for key in sorted(obj)) + "}"
    assert canonical_json(obj) == expected


def test_empty_map():
    assert canonical_json({}) == "{}"
    assert canonical_json({"a": {}}) == '{"a":{}}'


# ------------------------------------------------------------------ lexicon


def naive_infer(lexicon: dict, text: str) -> dict:
    """Every stem against every token: ASCII stems by prefix of a lowercased
    word token, the others by substring of the text."""
    tokens = re.findall(r"[a-z']+", text.lower())
    found = {}
    for stem, emotions in lexicon.items():
        if stem.isascii():
            hit = any(token.startswith(stem) for token in tokens)
        else:
            hit = stem in text
        if hit:
            for name, intensity in emotions.items():
                if intensity > found.get(name, 0.0):
                    found[name] = intensity
    return found or {"Calmness": 0.5}


PACKAGED = load_emotion_lexicon()
PACKAGED_STEMS = sorted(PACKAGED)
JAPANESE_STEMS = [stem for stem in PACKAGED_STEMS if not stem.isascii()]
NOISE = st.text(alphabet="abcdefghijklmnopqrstuvwxyz' -.,!?ÄéÜ字あ\n", max_size=8)


def words(stems):
    stem = st.sampled_from(stems)
    return st.one_of(
        stem,
        st.tuples(stem, NOISE).map("".join),  # a stem with a suffix
        st.tuples(stem, st.integers(0, 10)).map(lambda s: s[0][:s[1]]),  # a prefix
        stem.map(str.upper),
        NOISE,
    )


def texts(stems):
    return st.lists(st.tuples(words(stems), st.sampled_from([" ", "", ", ", "! ", "\n"])),
                    max_size=14).map(lambda parts: "".join(w + sep for w, sep in parts))


def assert_same_result(got: dict, expected: dict):
    assert list(got.items()) == list(expected.items())


@given(texts(PACKAGED_STEMS + JAPANESE_STEMS))
@settings(max_examples=200, deadline=None)
def test_packaged_lexicon_matches_naive_scan(text):
    assert_same_result(LexiconEmotionProvider().infer(text), naive_infer(PACKAGED, text))


CUSTOM_STEMS = st.text(alphabet="ab'Aあい", max_size=4)
CUSTOM_LEXICONS = st.dictionaries(
    CUSTOM_STEMS,
    st.dictionaries(st.sampled_from(["Joy", "Awe", "Fear", "Calmness"]),
                    st.floats(0.0, 1.0), max_size=3),
    max_size=8)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_custom_lexicon_matches_naive_scan(data):
    lexicon = data.draw(CUSTOM_LEXICONS)
    text = data.draw(texts(sorted(lexicon) + ["ab", "あい", "b'a"]))
    assert_same_result(LexiconEmotionProvider(lexicon).infer(text),
                       naive_infer(lexicon, text))


# ------------------------------------------------------ landmark geometry


def reference_geometry(points: np.ndarray) -> dict:
    """fuse_sources' geometry pass computed on numpy rows, as it was before
    LandmarkSet kept its widths and y coordinates."""
    p = np.asarray(points, dtype=np.float64)
    eyes = {"L": p[11:15], "R": p[15:19]}
    brows = {"L": p[5:8], "R": p[8:11]}

    def clamp(v):
        return min(max(v, 0.0), 1.0)

    def eye_width(side):
        return float(np.linalg.norm(eyes[side][0] - eyes[side][2]))

    shapes = empty_blendshapes()
    for side in "LR":
        gap = abs(float(eyes[side][3][1] - eyes[side][1][1]))
        shapes[f"eyeBlink{side}"] = clamp(1.0 - gap / (EYE_GAP_SCALE * eye_width(side)))
    mouth_width = float(np.linalg.norm(p[24] - p[26]))
    shapes["jawOpen"] = clamp(abs(float(p[27][1] - p[25][1]))
                              / (MOUTH_GAP_SCALE * mouth_width))
    center_y = (float(p[25][1]) + float(p[27][1])) / 2.0
    for side, corner in (("L", 24), ("R", 26)):
        lift = (center_y - float(p[corner][1])) / mouth_width
        if lift >= 0:
            shapes[f"mouthSmile{side}"] = clamp(CORNER_SLOPE_GAIN * lift)
        else:
            shapes[f"mouthFrown{side}"] = clamp(-CORNER_SLOPE_GAIN * lift)
    for side in "LR":
        center = float(np.mean(eyes[side][:, 1]))
        brow = float(np.mean(brows[side][:, 1]))
        delta = (center - brow) / eye_width(side) - BROW_NEUTRAL_RATIO
        if delta >= 0:
            shapes[f"browUp{side}"] = clamp(BROW_GAIN * delta)
        else:
            shapes[f"browDown{side}"] = clamp(-BROW_GAIN * delta)
    return shapes


def bits(shapes: dict) -> dict:
    return {name: float(v).hex() for name, v in shapes.items()}


def geometry_of(landmarks: LandmarkSet) -> dict:
    """fuse_sources with no tags and no answers: the geometry pass alone."""
    return bits(fuse_sources([], landmarks, {}))


SOURCE_FILES = sorted((FIXTURES / "expression_sources").glob("*.json")) + sorted(
    (GOLDENS / "questionnaire" / "sources").glob("*.json"))


def test_committed_sources_match_reference_geometry():
    checked = 0
    for path in SOURCE_FILES:
        try:
            _, _, _, landmarks, _ = parse_source_fixture(read_json(path))
        except ToonmotionError:
            continue  # a deliberately malformed fixture
        assert geometry_of(landmarks) == bits(reference_geometry(landmarks.points)), path
        checked += 1
    assert checked >= 30  # of the 51 committed fixtures, 36 are valid


NEUTRAL_FACE = np.array(read_json(FIXTURES / "expression_sources" / "img01.json")
                        ["landmarks"]["points"], dtype=np.float64)
NEUTRAL_BBOX = (100.0, 100.0, 300.0, 320.0)


# Box corners near zero and far from it, where sums of y coordinates round.
OFFSETS = st.one_of(st.floats(-1e9, 1e9), st.sampled_from([1e16, -3e15, 2.0**53]))


@given(st.lists(st.floats(-0.05, 0.05), min_size=56, max_size=56),
       OFFSETS, OFFSETS, st.floats(1e-3, 1e6), st.floats(1e-3, 1e6))
@settings(max_examples=200, deadline=None)
def test_random_landmarks_match_reference_geometry(jitter, x0, y0, width, height):
    # The neutral face in a unit box, jittered, then moved into a random box.
    unit = (NEUTRAL_FACE - NEUTRAL_BBOX[:2]) / 200.0 + np.reshape(jitter, (28, 2))
    points = unit * (width, height) + (x0, y0)
    try:
        landmarks = LandmarkSet(points=points.tolist(),
                                bbox=(x0, y0, x0 + 1.1 * width, y0 + 1.1 * height))
    except InvalidLandmarks:
        assume(False)  # a box too small to tell the points apart at this offset
    assert geometry_of(landmarks) == bits(reference_geometry(points))


# --------------------------------------------- fusion without a final clamp


def fuse_with_final_clamp(tags, landmarks, answers) -> dict:
    """fuse_sources as it was, ending with a clamp of every channel to
    [0, 1]. The clamp keeps a value positive or not, so running it after the
    overlay-eye repair instead of before it changes nothing."""
    return {name: min(max(v, 0.0), 1.0)
            for name, v in fuse_sources(tags, landmarks, answers).items()}


TAGS = st.lists(st.builds(Tag, st.sampled_from(
    ["smile", "frown", "blush", "sweat", "sweat_drop", "shock", "shock_lines", "wink"]),
    st.floats(0.0, 1.0)), max_size=5)
ANSWERS = st.fixed_dictionaries({}, optional={
    question: (st.one_of(st.just(["none"]), st.lists(
                   st.sampled_from(sorted(set(options) - {"none"})), unique=True))
               if question == "overlays" else st.sampled_from([None, *options]))
    for question, (_, options) in QUESTIONS.items()
})
# The two sides of a box, from near zero to the float limit, where the
# geometry overflows.
SIDES = st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
    [-1.7e308, -1e300, -3e15, -0.0, 1e16, 1e300, 1.7e308])),
    min_size=2, max_size=2).map(sorted)


@given(TAGS, ANSWERS, st.lists(st.floats(0.0, 1.0), min_size=56, max_size=56),
       SIDES, SIDES)
@settings(max_examples=300, deadline=None)
def test_fuse_matches_fusion_with_a_final_clamp(tags, answers, fractions,
                                                xs, ys):
    (x0, x1), (y0, y1) = xs, ys
    # Each point is a convex combination of the box corners, so it is finite.
    points = [[(1.0 - fx) * x0 + fx * x1, (1.0 - fy) * y0 + fy * y1]
              for fx, fy in zip(fractions[::2], fractions[1::2])]
    try:
        landmarks = LandmarkSet(points=points, bbox=(x0, y0, x1, y1))
    except InvalidLandmarks:
        return  # degenerate, or geometry that overflows: never fused
    poses = answer_poses(answers)
    shapes = fuse_sources(tags, landmarks, poses)
    assert all(0.0 <= v <= 1.0 for v in shapes.values())
    assert bits(shapes) == bits(fuse_with_final_clamp(tags, landmarks, poses))

