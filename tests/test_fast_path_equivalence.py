"""The fast paths against plain oracles kept here: canonical_json on float
maps, the lookup-word "%.6f" float tables, the indexed lexicon scan, the
landmark geometry of fuse_sources, fuse_sources without a final clamp,
slerp with nlerp weights picked per row, the written-out length-4 sums of
slerp and normalize, every stitch seam blended in one call, the landmark
box test on Python floats, the lip-sync fallback's one-pass vowel scan, and
phrase segmentation by patterns. Each must give exactly the oracle's output."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toonmotion import jsonutil
from toonmotion.bvh import GestureClip
from toonmotion.curves import smoothstep
from toonmotion.errors import InvalidLandmarks, ToonmotionError
from toonmotion.expression_dataset import (
    BBOX_SLACK,
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
from toonmotion.face_engine import _KANA_VOWEL, _SMALL_KANA_VOWEL, _text_vowels
from toonmotion.jsonutil import (
    FORMAT_BLOCK_ROWS,
    canonical_json,
    format_float_blocks,
    read_json,
)
from toonmotion.motion_compose import _BLOCK_FRAMES, stitch_clips
from toonmotion.providers import LexiconEmotionProvider, load_emotion_lexicon
from toonmotion.quat import _NLERP_DOT_THRESHOLD, _dot4, normalize, slerp
from toonmotion.text_semantics import (
    ASCII_DELIMITERS,
    MAX_PHRASE_CHARS,
    PHRASE_DELIMITERS,
    segment_phrases,
)

from conftest import FIXTURES, GOLDENS, make_skeleton

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


# ------------------------------------------------------ "%.6f" float tables


def reference_table(table, field_sep, row_sep, row_open="", row_close="") -> bytes:
    """Value by value through ``"%.6f" %``, the oracle of the word path."""
    return row_sep.join(row_open + field_sep.join("%.6f" % v for v in row) + row_close
                        for row in np.asarray(table).tolist()).encode("utf-8")


def formatted(table, field_sep, row_sep, row_open="", row_close="") -> bytes:
    return row_sep.encode("utf-8").join(
        format_float_blocks(table, field_sep, row_sep, row_open, row_close))


# The separators of the BVH motion table and of canonical_json's float rows.
LAYOUTS = [(" ", "\n", "", ""), (",", ",", "[", "]")]


@given(st.lists(st.floats(-2000.0, 2000.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=600),
       st.integers(1, 7), st.sampled_from(LAYOUTS))
@settings(max_examples=300, deadline=None)
def test_table_matches_percent_format(values, cols, layout):
    rows = -(-len(values) // cols)
    table = np.resize(np.array(values), rows * cols).reshape(rows, cols)
    assert formatted(table, *layout) == reference_table(table, *layout)


FIXED_VALUES = [
    -0.0, 0.0, -1e-9, 1e-9, 999.9999995, -999.9999995, 999.999999, -999.999999,
    1e9, -1e9, 1 / 128, 3 / 128, -1 / 128, -3 / 128, 5e-324, -5e-324, 4.9999999e-7,
    -4.9999999e-7, 5e-7, 0.5, 1.0000005, 123.4564999, 999.0, 1000.0, -1000.0,
]


@pytest.mark.parametrize("layout", LAYOUTS, ids=["bvh", "json"])
def test_fixed_values_match_percent_format(layout):
    for value in FIXED_VALUES:  # each alone, so no other value picks its path
        table = np.array([[value]])
        assert formatted(table, *layout) == reference_table(table, *layout), value
    table = np.resize(np.array(FIXED_VALUES), (7, 5))
    assert formatted(table, *layout) == reference_table(table, *layout)


@pytest.mark.parametrize("table", [
    np.zeros((0, 5)),
    np.zeros((4, 0)),
    np.arange(60.0).reshape(6, 10)[1:5:2, ::3] / 7,
    np.arange(40, dtype=np.float32).reshape(4, 10) / 3,
], ids=["zero-rows", "zero-columns", "non-contiguous", "float32"])
@pytest.mark.parametrize("layout", LAYOUTS, ids=["bvh", "json"])
def test_table_shapes_match_percent_format(table, layout):
    assert formatted(table, *layout) == reference_table(table, *layout)


@pytest.mark.parametrize("layout", [("", "\n"), (", ", "\n"), ("%", "\n"), (" ", "\n", "\0")],
                         ids=["no-field-sep", "long-field-sep", "percent", "nul-open"])
def test_other_separators_are_refused(layout):
    with pytest.raises(AssertionError):
        formatted(np.zeros((2, 2)), *layout)


def test_block_with_fallback_values_matches_percent_format():
    """Blocks holding a near tie, a large value or a NaN print by ``%``;
    the blocks around them and their other values print the same."""
    table = np.random.default_rng(6).uniform(-180.0, 180.0, (4 * FORMAT_BLOCK_ROWS, 9))
    table[FORMAT_BLOCK_ROWS + 3, 4] = 1 / 128
    table[2 * FORMAT_BLOCK_ROWS, 0] = 12345.678
    table[3 * FORMAT_BLOCK_ROWS + 7, 8] = math.nan
    for layout in (" ", "\n"), (",", ",", "[", "]"):
        assert formatted(table, *layout) == reference_table(table, *layout)


def test_ordinary_blocks_take_the_word_path(monkeypatch):
    fast = []

    def counted(*args):
        text = format_block(*args)
        fast.append(text is not None)
        return text

    format_block = jsonutil._format_block
    monkeypatch.setattr(jsonutil, "_format_block", counted)
    table = np.random.default_rng(7).uniform(-999.0, 999.0, (3 * FORMAT_BLOCK_ROWS, 6))
    assert formatted(table, " ", "\n") == reference_table(table, " ", "\n")
    assert fast == [True, True, True]


def near_tie_values() -> np.ndarray:
    """Values up to 4 ulps from a half-micro tie, in the fast path's range."""
    ties = (np.random.default_rng(8).integers(-999_999_999, 999_999_999, 2000) + 0.5) / 1e6
    values = [ties]
    for direction in (math.inf, -math.inf):
        moved = ties
        for _ in range(4):
            moved = np.nextafter(moved, direction)
            values.append(moved)
    return np.concatenate(values).reshape(-1, 1)


def test_near_ties_match_percent_format():
    table = near_tie_values()
    assert formatted(table, " ", "\n") == reference_table(table, " ", "\n")


def test_near_tie_guard_is_load_bearing(monkeypatch):
    # Without the guard, rint of the rounded product misses some decimal
    # roundings near a tie.
    monkeypatch.setattr(jsonutil, "_TIE_BAND", -1.0)
    table = near_tie_values()
    got = formatted(table, " ", "\n").split(b"\n")
    expected = reference_table(table, " ", "\n").split(b"\n")
    assert sum(a != b for a, b in zip(got, expected)) > 100


BUNDLES = sorted((GOLDENS / "bundles").iterdir())


@pytest.mark.parametrize("bundle", BUNDLES, ids=lambda p: p.name)
def test_golden_tables_format_to_their_bytes(bundle):
    """The motion rows of body.bvh and the frames of face.json, read back
    as floats, print to the golden bytes by both paths."""
    bvh = (bundle / "body.bvh").read_bytes()
    motion = bvh.split(b"Frame Time: ")[1].split(b"\n", 1)[1]
    table = np.array([line.split() for line in motion.splitlines()], dtype=np.float64)
    assert formatted(table, " ", "\n") + b"\n" == motion
    assert reference_table(table, " ", "\n") + b"\n" == motion
    face = (bundle / "face.json").read_text("utf-8")
    frames = np.array(json.loads(face)["frames"], dtype=np.float64)
    assert '"frames":' + canonical_json(frames) + "," in face
    assert "[" + reference_table(frames, ",", ",", "[", "]").decode() + "]" in face


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



# ------------------------------------------------------------------- slerp


def reference_normalize(q):
    """normalize as it was: divided by ``np.linalg.norm`` over the last axis."""
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def reference_slerp(q0, q1, t):
    """slerp as it was: nlerp computed for every row, then discarded by
    ``np.where`` where the pair is not nearly parallel."""
    q0 = np.asarray(q0, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)[..., np.newaxis]
    dot = np.sum(q0 * q1, axis=-1, keepdims=True)
    q1 = np.where(dot < 0.0, -q1, q1)
    dot = np.abs(dot)
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    sin_theta = np.sin(theta)
    safe_sin = np.where(sin_theta < 1e-12, 1.0, sin_theta)
    w0 = np.sin((1.0 - t) * theta) / safe_sin
    w1 = np.sin(t * theta) / safe_sin
    out = w0 * q0 + w1 * q1
    near = np.broadcast_to(dot > _NLERP_DOT_THRESHOLD, out.shape)
    lerped = (1.0 - t) * q0 + t * q1
    return reference_normalize(np.where(near, lerped, out))


def unit_quats(rng, shape):
    return reference_normalize(rng.normal(size=shape + (4,)))


def turned(rng, q, angle):
    """*q* turned by *angle* radians about a random axis."""
    axis = reference_normalize(np.concatenate([np.zeros(q.shape[:-1] + (1,)),
                                     rng.normal(size=q.shape[:-1] + (3,))], axis=-1))
    half = np.asarray(angle)[..., np.newaxis] / 2.0
    turn = np.cos(half) * np.array([1.0, 0.0, 0.0, 0.0]) + np.sin(half) * axis
    w0, v0 = q[..., :1], q[..., 1:]
    w1, v1 = turn[..., :1], turn[..., 1:]
    return np.concatenate([w0 * w1 - np.sum(v0 * v1, axis=-1, keepdims=True),
                           w0 * v1 + w1 * v0 + np.cross(v0, v1)], axis=-1)


# Angles between the pair from far apart to both sides of the nlerp
# threshold (dot = 1 - 1e-9 is a half-angle of about 4.5e-5).
ANGLES = [2.5, 1e-2, 1e-4, 9.2e-5, 8.8e-5, 1e-5, 0.0]


@pytest.mark.parametrize("angle", ANGLES)
@pytest.mark.parametrize("t_shape", [(), (64, 1), (64, 5)], ids=["scalar-t", "per-frame-t",
                                                                  "per-joint-t"])
def test_slerp_matches_reference(angle, t_shape):
    rng = np.random.default_rng(9)
    q0 = unit_quats(rng, (64, 5))
    q1 = turned(rng, q0, np.full((64, 5), angle))
    q1[::3] *= -1.0  # the other cover of the same rotation
    t = rng.uniform(0.0, 1.0, t_shape)
    np.testing.assert_array_equal(slerp(q0, q1, t), reference_slerp(q0, q1, t))


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, np.linspace(0.0, 1.0, 7)[:, None]],
                         ids=["t0", "t-mid", "t1", "t-column"])
def test_slerp_edge_pairs_match_reference(t):
    rng = np.random.default_rng(10)
    q0 = unit_quats(rng, (7, 3))
    mixed = np.where(rng.random((7, 3, 1)) < 0.5, q0, unit_quats(rng, (7, 3)))
    for q1 in (q0, -q0, unit_quats(rng, (7, 3)), mixed):  # equal, antipodal, random, both
        np.testing.assert_array_equal(slerp(q0, q1, t), reference_slerp(q0, q1, t))
    # One quaternion against many, and a single pair.
    np.testing.assert_array_equal(slerp(q0[0, 0], q0, t), reference_slerp(q0[0, 0], q0, t))
    np.testing.assert_array_equal(slerp(q0[0, 0], -q0[0, 0], 0.25),
                                  reference_slerp(q0[0, 0], -q0[0, 0], 0.25))


# Rows whose four products sum to different values in different orders.
ORDER_ROWS = np.array([[1e16, 1.0, -1e16, 1.0], [1.0, 1e16, 1.0, -1e16],
                       [1e16, -1e16, 1.0, 1e-16], [1.0, 2.0**-53, 2.0**-53, -1.0]])


def test_dot4_pins_numpys_length_4_reduce_order():
    a, b = ORDER_ROWS, np.ones_like(ORDER_ROWS)
    for (x0, x1, x2, x3), got in zip(a.tolist(), _dot4(a, b)[:, 0].tolist()):
        assert len({((x0 + x1) + x2) + x3, x0 + ((x1 + x2) + x3),
                    (x0 + x1) + (x2 + x3)}) > 1  # the row tells the orders apart
        assert got == ((x0 + x1) + x2) + x3
    # A numpy whose add.reduce sums four values in another order fails here.
    np.testing.assert_array_equal(_dot4(a, b), np.sum(a * b, axis=-1, keepdims=True))
    np.testing.assert_array_equal(np.sqrt(_dot4(a, a)),
                                  np.linalg.norm(a, axis=-1, keepdims=True))


def test_dot4_matches_numpy_sum_on_random_rows():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(10**6, 4)), rng.normal(size=(10**6, 4))
    np.testing.assert_array_equal(_dot4(a, b), np.sum(a * b, axis=-1, keepdims=True))
    np.testing.assert_array_equal(normalize(a), reference_normalize(a))
    # A quaternion against a block of them, and one alone.
    np.testing.assert_array_equal(_dot4(a[0], b[:64].reshape(8, 8, 4)),
                                  np.sum(a[0] * b[:64].reshape(8, 8, 4), axis=-1,
                                         keepdims=True))
    np.testing.assert_array_equal(normalize(a[1]), reference_normalize(a[1]))


# ------------------------------------------------------- stitch seams


def reference_blend_into(root, rots, frames, a, a_idx, b, b_idx, weights):
    """The per-seam blend, reading the two clips of one seam."""
    for start in range(0, len(frames), _BLOCK_FRAMES):
        block = slice(start, start + _BLOCK_FRAMES)
        w = weights[block, np.newaxis]
        ia, ib = a_idx[block], b_idx[block]
        dst = frames[block]
        root[dst] = (1.0 - w) * a.root_positions[ia] + w * b.root_positions[ib]
        rots[dst] = slerp(a.rotations[ia], b.rotations[ib], w)


def reference_stitch_per_seam(clips, blend_s):
    """stitch_clips as it was: one blend call per seam."""
    fps = clips[0].fps
    root = np.concatenate(
        [c.root_positions[:-1] for c in clips[:-1]] + [clips[-1].root_positions])
    rots = np.concatenate([c.rotations[:-1] for c in clips[:-1]] + [clips[-1].rotations])
    total_frames = rots.shape[0]
    seam = 0
    for out_clip, in_clip in zip(clips, clips[1:]):
        out_start = seam
        seam += out_clip.frame_count - 1
        w = min(blend_s, out_clip.duration_s / 2.0, in_clip.duration_s / 2.0)
        if w <= 0.0:
            continue
        half_frames = w * fps / 2.0
        f_lo = max(0, int(math.ceil(seam - half_frames - 1e-9)))
        f_hi = min(total_frames - 1, int(math.floor(seam + half_frames + 1e-9)))
        frames = np.arange(f_lo, f_hi + 1)
        out_local = np.minimum(frames - out_start, out_clip.frame_count - 1)
        in_local = np.maximum(frames - seam, 0)
        s = smoothstep(((frames - seam) / fps + w / 2.0) / w)
        reference_blend_into(root, rots, frames, out_clip, out_local, in_clip, in_local, s)
    return root, rots


@given(st.sampled_from([24.0, 29.97, 30.0, 60.0]), st.integers(1, 3),
       st.lists(st.one_of(st.just(2), st.integers(2, 80)), min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.one_of(st.sampled_from([0.0, 1e-3, 0.3, 100.0]), st.floats(0.0, 3.0)),
       st.integers(0, 2**32 - 1))
@example(30.0, 2, [2, 2], [0, 1, 0, 0, 1], 0.3, 0)  # 2-frame clips, repeated
@example(30.0, 2, [31, 7], [0, 1, 0], 100.0, 1)  # windows cut by either neighbor
@example(30.0, 2, [31, 31], [0, 1], 0.0, 2)  # a hard cut
@settings(max_examples=150, deadline=None)
def test_stitch_matches_one_blend_per_seam(fps, joints, frame_counts, order, blend_s,
                                           seed):
    """Repeated clips are the same object, as a library hands them out."""
    rng = np.random.default_rng(seed)
    skeleton = make_skeleton(joints)
    library = [GestureClip(skeleton, fps, rng.normal(scale=10.0, size=(n, 3)),
                           reference_normalize(rng.normal(size=(n, joints, 4))))
               for n in frame_counts]
    clips = [library[i % len(library)] for i in order]
    stitched = stitch_clips(clips, blend_s)
    root, rots = reference_stitch_per_seam(clips, blend_s)
    np.testing.assert_array_equal(stitched.root_positions, root)
    np.testing.assert_array_equal(stitched.rotations, rots)


# ---------------------------------------------------- landmark box test


def reference_box_fault(points, bbox) -> str | None:
    """The box test as numpy column comparisons: the first landmark out of
    the slack-expanded box, or None."""
    points = np.asarray(points, dtype=np.float64)
    x0, y0, x1, y1 = map(float, bbox)
    sx, sy = (x1 - x0) * BBOX_SLACK, (y1 - y0) * BBOX_SLACK
    inside = ((points[:, 0] >= x0 - sx) & (points[:, 0] <= x1 + sx)
              & (points[:, 1] >= y0 - sy) & (points[:, 1] <= y1 + sy))
    if inside.all():
        return None
    return f"landmark {int(np.flatnonzero(~inside)[0])} outside expanded bounding box"


BOX = (100.0, 100.0, 300.0, 320.0)
# The expanded box's edges and their neighbouring floats.
EDGES = [BOX[0] - 200.0 * BBOX_SLACK, BOX[2] + 200.0 * BBOX_SLACK,
         BOX[1] - 220.0 * BBOX_SLACK, BOX[3] + 220.0 * BBOX_SLACK]
COORDS = st.one_of(st.floats(50.0, 370.0), st.sampled_from(
    [math.nan, math.inf, -math.inf, *EDGES, *np.nextafter(EDGES, math.inf).tolist(),
     *np.nextafter(EDGES, -math.inf).tolist()]))


@given(st.lists(st.tuples(COORDS, COORDS), min_size=28, max_size=28))
@example([(200.0, 200.0)] * 27 + [(math.nan, 200.0)])
@settings(max_examples=300, deadline=None)
def test_box_test_matches_reference(points):
    try:
        LandmarkSet(points=[list(p) for p in points], bbox=BOX)
    except InvalidLandmarks as exc:  # the box fault, or one found after it
        got = str(exc) if "outside" in str(exc) else None
    else:
        got = None
    assert got == reference_box_fault(points, BOX)


# ------------------------------------------------- lip-sync fallback vowels

REFERENCE_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
REFERENCE_WORD_RE = re.compile(r"[a-zA-Z']+")


def reference_text_vowels(text: str) -> list[str]:
    """The position-tagged form: every ASCII-word vowel first, tagged with
    its word's start, then the other characters, then a stable sort by
    position. It agrees with the one-pass scan unless a long mark or a
    small kana follows an ASCII word."""
    positioned = []
    covered = [False] * len(text)
    for m in REFERENCE_WORD_RE.finditer(text):
        covered[m.start():m.end()] = [True] * (m.end() - m.start())
        groups = REFERENCE_VOWEL_GROUP_RE.findall(m.group().lower())
        for g in groups or ["u"]:
            positioned.append(("i" if g[0] == "y" else g[0], m.start()))
    for i, ch in enumerate(text):
        if covered[i] or ch in "っッ":
            continue
        if ch in _SMALL_KANA_VOWEL:
            if positioned and positioned[-1][1] < i:
                positioned[-1] = (_SMALL_KANA_VOWEL[ch], positioned[-1][1])
        elif ch == "ー":
            if positioned:
                positioned.append((positioned[-1][0], i))
        elif ch in _KANA_VOWEL:
            positioned.append((_KANA_VOWEL[ch], i))
        elif "一" <= ch <= "鿿":
            positioned.append(("a", i))
    positioned.sort(key=lambda pair: pair[1])
    return [v for v, _ in positioned]


KANA = "".join(_KANA_VOWEL)
SMALL_KANA = "".join(_SMALL_KANA_VOWEL)
OTHER = " 、。！？,.!?0123456789本当字鿿一Äé\n"


@given(st.text(alphabet="abcdeiouyzAEIYZ'" + KANA + "っッ" + OTHER, max_size=40))
@example("すごい、Nice！きhello。ちっとOKね")
@settings(max_examples=300, deadline=None)
def test_vowels_without_marks_match_reference(text):
    assert _text_vowels(text) == reference_text_vowels(text)


@given(st.text(alphabet=KANA + SMALL_KANA + "ーっッ" + OTHER, max_size=40))
@example("ーすごーい、きゃー！ちょっと")
@settings(max_examples=300, deadline=None)
def test_vowels_without_ascii_words_match_reference(text):
    assert _text_vowels(text) == reference_text_vowels(text)


# ------------------------------------------------------ phrase segmentation


def reference_trimmed(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def reference_rechunk(text: str, start: int, end: int) -> list[tuple[int, int]]:
    """Split an over-long span at whitespace where possible, else hard-cut."""
    chunks: list[tuple[int, int]] = []
    while end - start > MAX_PHRASE_CHARS:
        cut = -1
        for p in range(start + MAX_PHRASE_CHARS, start, -1):
            if text[p].isspace():
                cut = p
                break
        if cut > start:
            chunk = reference_trimmed(text, start, cut)
            start = cut + 1
        else:
            chunk = (start, start + MAX_PHRASE_CHARS)
            start = start + MAX_PHRASE_CHARS
        if chunk[0] < chunk[1]:
            chunks.append(chunk)
    final = reference_trimmed(text, start, end)
    if final[0] < final[1]:
        chunks.append(final)
    return chunks


def reference_segment_phrases(text: str) -> list[tuple[str, int, int, int]]:
    """The character scanner: delimiter runs first, then trimming, then
    re-chunking of over-long spans, as (text, start, end, ordinal)."""
    raw: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] in PHRASE_DELIMITERS:
            run_end = i
            while run_end < n and text[run_end] in PHRASE_DELIMITERS:
                run_end += 1
            attached = i
            while attached < run_end and text[attached] in ASCII_DELIMITERS:
                attached += 1
            raw.append((start, attached))
            start = run_end
            i = run_end
        else:
            i += 1
    if start < n:
        raw.append((start, n))

    bounded: list[tuple[int, int]] = []
    for s, e in raw:
        s, e = reference_trimmed(text, s, e)
        if s >= e:
            continue
        bounded.extend(reference_rechunk(text, s, e))
    return [(text[s:e], s, e, k) for k, (s, e) in enumerate(bounded)]


# Character pools a text draws one to four of: with the delimiters left out,
# phrases run past MAX_PHRASE_CHARS and are cut at whitespace or hard-cut.
PHRASE_POOLS = [PHRASE_DELIMITERS, "abcXYZ", " \t\n\u3000\x1c\x85\u2028", "あいうカ"]


@st.composite
def dialogue_texts(draw) -> str:
    pools = draw(st.lists(st.sampled_from(PHRASE_POOLS), min_size=1, max_size=4))
    size = draw(st.integers(0, 4 * MAX_PHRASE_CHARS))
    return draw(st.text(alphabet="".join(pools), min_size=size, max_size=size))


@given(dialogue_texts())
@example("")
@example("Hello there, 。.!、world...? あ")
@example("a" * 40 + "  " + "b" * 45)  # a hard cut that keeps a leading space
@example("a" * 39 + "  " + "b" * 80)
@settings(max_examples=1000, deadline=None)
def test_segment_phrases_matches_the_character_scanner(text):
    got = [(p.text, p.start_char, p.end_char, p.ordinal) for p in segment_phrases(text)]
    assert got == reference_segment_phrases(text)
