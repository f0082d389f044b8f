"""Fuzzing every reader: one field of a valid JSON document replaced by an
arbitrary JSON value must load or raise a ToonmotionError, nothing else; a
BVH clip mutated token by token must parse or raise a ValidationError."""

import copy
import io
import json
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toonmotion.bvh import MAX_JOINTS, parse_bvh
from toonmotion.cli import main
from toonmotion.errors import ToonmotionError, ValidationError
from toonmotion.expression_dataset import (
    fuse_sources,
    load_expression_dataset,
    parse_source_fixture,
)
from toonmotion.face_engine import load_phoneme_file, load_viseme_table
from toonmotion.gesture_retrieval import load_gesture_dataset
from toonmotion.jsonutil import read_json
from toonmotion.pipeline import load_config
from toonmotion.providers import (
    HttpEmbeddingProvider,
    HttpEmotionProvider,
    ReferenceEmbedder,
    load_emotion_categories,
    packaged_data_path,
)

from conftest import FIXTURES, put

# Null, booleans, integers (some beyond the float range), reals with NaN and
# both infinities, strings (some that look like numbers), arrays and objects.
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
        st.sampled_from([10**400, -(10**400), "0.5", "NaN", "", 0, 1, 0.5, -1.0]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)


def replaced(doc, paths):
    """A strategy for *doc* with the value at one of *paths* replaced."""
    return st.tuples(st.sampled_from(paths), JSON_VALUES).map(
        lambda pv: put(copy.deepcopy(doc), *pv))


def loads_or_raises_package_error(read):
    try:
        read()
    except ToonmotionError:
        pass


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(FIXTURES / "gestures", root / "gestures")
    return root


GESTURES = [json.loads(line) for line in
            (FIXTURES / "gestures" / "gestures.jsonl").read_text("utf-8").splitlines()
            if '"g_hello"' in line or '"n_idle1"' in line]
GESTURE_PATHS = [()] + [(i,) for i in range(2)] + [
    (i, key) for i in range(2) for key in GESTURES[0]]


@given(replaced(GESTURES, GESTURE_PATHS))
@settings(max_examples=100, deadline=None)
def test_gesture_dataset(workdir, records):
    if not isinstance(records, list):
        records = [records]
    path = write_jsonl(workdir / "gestures" / "fuzz.jsonl", records)
    loads_or_raises_package_error(lambda: load_gesture_dataset(path, ReferenceEmbedder()))


EXPRESSIONS = [json.loads(line) for line in
               (FIXTURES / "expressions.jsonl").read_text("utf-8").splitlines()[:2]]
EXPRESSION_PATHS = [(0,)] + [(0, key) for key in EXPRESSIONS[0]] + [
    (0, "blendshapes", "jawOpen"), (0, "emotions", next(iter(EXPRESSIONS[0]["emotions"])))]
CATEGORIES = load_emotion_categories()


@given(replaced(EXPRESSIONS, EXPRESSION_PATHS))
@settings(max_examples=100, deadline=None)
def test_expression_dataset(workdir, records):
    path = write_jsonl(workdir / "expressions.jsonl", records)
    loads_or_raises_package_error(lambda: load_expression_dataset(path, CATEGORIES))


SOURCE = read_json(FIXTURES / "expression_sources" / "img01.json")
SOURCE_PATHS = [(), ("image_id",), ("dialogue",), ("tags",), ("tags", 0),
                ("tags", 0, "tag"), ("tags", 0, "confidence"), ("landmarks",),
                ("landmarks", "points"), ("landmarks", "bbox"), ("answers",)] + [
    ("landmarks", "points", i) for i in (0, 13, 27)] + [
    ("landmarks", "points", i, j) for i in (0, 13, 27) for j in (0, 1)] + [
    ("landmarks", "bbox", k) for k in range(4)]


@given(replaced(SOURCE, SOURCE_PATHS))
@settings(max_examples=300, deadline=None)
def test_source_fixture(raw):
    def parse_and_fuse():
        _, _, tags, landmarks, answers = parse_source_fixture(
            json.loads(json.dumps(raw)))
        fuse_sources(tags, landmarks, answers)

    loads_or_raises_package_error(parse_and_fuse)


PHONEMES = [{"ph": "a", "start": 0.0, "end": 0.2}, {"ph": "MBP", "start": 0.2, "end": 0.35}]
PHONEME_PATHS = [(), (0,), (1,)] + [(i, key) for i in range(2) for key in PHONEMES[0]]


@given(replaced(PHONEMES, PHONEME_PATHS))
@settings(max_examples=100, deadline=None)
def test_phoneme_file(workdir, doc):
    path = write_json(workdir / "phonemes.json", doc)
    loads_or_raises_package_error(lambda: load_phoneme_file(path))


VISEMES = read_json(packaged_data_path("viseme_table.json"))
VISEME_PATHS = [(), ("sil",), ("other",), ("a",), ("a", "jawOpen"), ("MBP", "mouthPressL")]


@given(replaced(VISEMES, VISEME_PATHS))
@settings(max_examples=100, deadline=None)
def test_viseme_table(workdir, doc):
    path = write_json(workdir / "visemes.json", doc)
    loads_or_raises_package_error(lambda: load_viseme_table(path))


@given(replaced(["Joy", "Awe", "Calmness"], [(), (0,), (2,)]))
@settings(max_examples=60, deadline=None)
def test_emotion_categories(workdir, doc):
    path = write_json(workdir / "categories.json", doc)
    loads_or_raises_package_error(lambda: load_emotion_categories(path))


CONFIG = {
    "gesture_dataset": str(FIXTURES / "gestures" / "gestures.jsonl"),
    "expression_dataset": str(FIXTURES / "expressions.jsonl"),
    "provider_mode": "offline", "embed_endpoint": "http://localhost:1/e",
    "emotion_endpoint": "http://localhost:1/m", "emotion_fallback_lexicon": False,
    "similarity_threshold": 0.55, "blend_s": 0.3, "transition_s": 0.4,
    "blink_mean_gap_s": 4.0, "blink_min_gap_s": 1.0,
    "viseme_table": str(packaged_data_path("viseme_table.json")),
    "emotion_categories": str(packaged_data_path("emotion_categories.json")),
    "fps": 30.0, "timeout_s": 10.0, "retries": 2,
}


@given(replaced(CONFIG, [()] + [(key,) for key in CONFIG]))
@settings(max_examples=200, deadline=None)
def test_config(workdir, doc):
    path = write_json(workdir / "config.json", doc)
    loads_or_raises_package_error(lambda: load_config(path))


class FakeSession:
    """Answers every POST with status 200 and *body*."""

    def __init__(self, body):
        self.body = body

    def post(self, url, json=None, timeout=None):
        return SimpleNamespace(status_code=200, json=lambda: self.body)


def client(kind, body):
    return kind("http://x", timeout_s=1.0, retries=0, backoff_s=0,
                session=FakeSession(body))


EMBED_BODY = {"vectors": [[1.0, 0.0]], "dim": 2, "model": "stub"}
EMBED_PATHS = [(), ("vectors",), ("vectors", 0), ("vectors", 0, 0), ("vectors", 0, 1),
               ("dim",), ("model",)]


@given(replaced(EMBED_BODY, EMBED_PATHS))
@settings(max_examples=150, deadline=None)
def test_embed_response(body):
    loads_or_raises_package_error(
        lambda: client(HttpEmbeddingProvider, body).embed(["a"]))


EMOTION_BODY = {"emotions": {"Joy": 0.5, "Awe": 0.25}}


@given(replaced(EMOTION_BODY, [(), ("emotions",), ("emotions", "Joy")]))
@settings(max_examples=100, deadline=None)
def test_emotion_response(body):
    loads_or_raises_package_error(
        lambda: client(HttpEmotionProvider, body).infer("That is wonderful"))


# Text-level: json.loads raises a plain ValueError, without a position, for an
# integer literal of more than sys.get_int_max_str_digits() digits. The cases
# above mutate decoded values, so they never write such text.
LONG_INTEGER = "\0long integer\0"  # a placeholder; its JSON text is replaced
TEXT_READERS = {
    "phonemes.json": (PHONEMES, PHONEME_PATHS, load_phoneme_file),
    "visemes.json": (VISEMES, VISEME_PATHS, load_viseme_table),
    "config.json": (CONFIG, [()] + [(key,) for key in CONFIG], load_config),
    "expressions.jsonl": (EXPRESSIONS, EXPRESSION_PATHS,
                          lambda path: load_expression_dataset(path, CATEGORIES)),
    "gestures/fuzz.jsonl": (GESTURES, GESTURE_PATHS[1:],
                            lambda path: load_gesture_dataset(path, ReferenceEmbedder())),
}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_oversized_integer_text(workdir, data):
    name = data.draw(st.sampled_from(sorted(TEXT_READERS)))
    doc, paths, read = TEXT_READERS[name]
    doc = put(copy.deepcopy(doc), data.draw(st.sampled_from(paths)), LONG_INTEGER)
    digits = sys.get_int_max_str_digits() + data.draw(st.integers(1, 2000))
    literal = data.draw(st.sampled_from(["", "-"])) + "7" * digits
    if name.endswith(".jsonl"):
        text = "".join(json.dumps(record) + "\n" for record in doc)
    else:
        text = json.dumps(doc, indent=data.draw(st.sampled_from([None, 2])))
    text = text.replace(json.dumps(LONG_INTEGER), literal)
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    line = text.count("\n", 0, text.index(literal)) + 1
    with pytest.raises(ToonmotionError) as info:
        read(path)
    message = str(info.value)
    assert f"line {line}" in message
    assert f"integer longer than {sys.get_int_max_str_digits()} digits" in message


# BVH text, token by token: a fixture clip with tokens dropped, repeated or
# swapped, and nested or unbalanced `JOINT x {` blocks put in, must parse or
# raise a ValidationError, and `validate-dataset` on a library holding it
# must exit 0 or 1 with one error line.
CLIP_TOKENS = (FIXTURES / "gestures" / "clips" / "g_hello.bvh").read_text("utf-8").split()
HEADER_TOKENS = CLIP_TOKENS.index("MOTION") + 8


def joint_blocks(depth: int, with_body: bool, closed: bool) -> list[str]:
    body = ["OFFSET", "0", "1", "0", "CHANNELS", "3", "Zrotation", "Xrotation",
            "Yrotation"] if with_body else []
    opened = [token for k in range(depth) for token in ("JOINT", f"x{k}", "{", *body)]
    return opened + ["}"] * (depth if closed else 0)


AT = st.integers(0, HEADER_TOKENS)
TOKEN_EDITS = st.one_of(
    st.tuples(st.just("drop"), AT),
    st.tuples(st.just("repeat"), AT, st.integers(1, 3)),
    st.tuples(st.just("swap"), AT, AT),
    st.tuples(st.just("nest"), AT,
              st.one_of(st.integers(1, 3), st.sampled_from([MAX_JOINTS, 1000])),
              st.booleans(), st.booleans()),
)


def mutated_clip(edits) -> str:
    tokens = list(CLIP_TOKENS)
    for op, at, *args in edits:
        at %= len(tokens) + (op == "nest")
        if op == "drop":
            del tokens[at]
        elif op == "repeat":
            tokens[at:at] = [tokens[at]] * args[0]
        elif op == "swap":
            other = args[0] % len(tokens)
            tokens[at], tokens[other] = tokens[other], tokens[at]
        else:
            tokens[at:at] = joint_blocks(*args)
    return "\n".join(tokens) + "\n"


@pytest.fixture(scope="module")
def bvh_library(tmp_path_factory):
    root = tmp_path_factory.mktemp("bvh_fuzz")
    shutil.copytree(FIXTURES / "gestures", root / "gestures")
    return root / "gestures"


@given(st.lists(TOKEN_EDITS, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_bvh_tokens(bvh_library, edits):
    text = mutated_clip(edits)
    try:
        parse_bvh(text, "g_hello")
    except ValidationError:
        pass
    (bvh_library / "clips" / "g_hello.bvh").write_text(text, encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["validate-dataset", "--kind", "gesture",
                     "--path", str(bvh_library / "gestures.jsonl")])
    assert (code, err.getvalue().count("\n")) in [(0, 0), (1, 1)]
    assert code == 0 or err.getvalue().startswith("error: ")
