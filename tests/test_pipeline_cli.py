"""Configuration, end-to-end synthesis and command-line behavior."""

import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toonmotion import pipeline
from toonmotion.bvh import MAX_JOINTS, parse_bvh
from toonmotion.cli import main
from toonmotion.errors import (
    ConfigError,
    DurationMismatch,
    MalformedEntry,
    ValidationError,
)
from toonmotion.expression_dataset import load_expression_dataset
from toonmotion.face_engine import MAX_PHONEME_EVENTS
from toonmotion.pipeline import (
    Config,
    DialogueRequest,
    OutputBundle,
    load_config,
    synthesize,
)
from toonmotion.providers import (
    FallbackEmotionProvider,
    HttpEmbeddingProvider,
    HttpEmotionProvider,
    LexiconEmotionProvider,
    load_emotion_categories,
)
from toonmotion.text_semantics import segment_phrases

from conftest import FIXTURES, GOLDENS, chain_bvh

CONFIG_PATH = FIXTURES / "config.json"


def write_config(tmp_path, **overrides):
    raw = {
        "gesture_dataset": str(FIXTURES / "gestures" / "gestures.jsonl"),
        "expression_dataset": str(FIXTURES / "expressions.jsonl"),
        "provider_mode": "offline",
    }
    raw.update(overrides)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def request(text="Hello there. That is wonderful!", duration=4.5, **kwargs):
    return DialogueRequest(text=text, speech_duration_s=duration, **kwargs)


class TestConfig:
    def test_fixture_config_loads_with_defaults(self):
        config = load_config(CONFIG_PATH)
        assert config.provider_mode == "offline"
        assert config.similarity_threshold == 0.55
        assert config.blend_s == 0.3
        assert config.transition_s == 0.4
        assert config.fps == 30.0
        assert config.gesture_dataset.is_file()
        assert config.expression_dataset.is_file()

    def test_readme_lists_the_config_defaults(self):
        readme = (FIXTURES.parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        listed = dict(re.findall(r"`(\w+)`\s+(\d[\d.]*\d|\d)", section))
        numeric = {f.name for f in dataclasses.fields(Config)
                   if type(f.default) in (int, float)}
        assert set(listed) == numeric
        for key, value in listed.items():
            assert float(value) == getattr(Config, key), key

    def test_relative_paths_resolve_against_config_dir(self):
        config = load_config(CONFIG_PATH)
        assert config.gesture_dataset == FIXTURES / "gestures" / "gestures.jsonl"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, wobble=1)
        with pytest.raises(ConfigError, match="wobble"):
            load_config(path)

    def test_missing_dataset_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"gesture_dataset": "x.jsonl"}', encoding="utf-8")
        with pytest.raises(ConfigError, match="expression_dataset"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="provider_mode"):
            load_config(write_config(tmp_path, provider_mode="local"))

    def test_remote_mode_requires_endpoints(self, tmp_path):
        with pytest.raises(ConfigError, match="endpoint"):
            load_config(write_config(tmp_path, provider_mode="remote"))

    def test_remote_mode_with_endpoints(self, tmp_path):
        config = load_config(write_config(
            tmp_path,
            provider_mode="remote",
            embed_endpoint="http://e",
            emotion_endpoint="http://m",
        ))
        assert config.embed_endpoint == "http://e"

    def test_remote_fallback_flag_wraps_the_emotion_client(self, tmp_path):
        config = load_config(write_config(
            tmp_path,
            provider_mode="remote",
            embed_endpoint="http://e",
            emotion_endpoint="http://m",
            emotion_fallback_lexicon=True,
        ))
        embedder, emotion = pipeline.provider_clients(config)
        assert isinstance(embedder, HttpEmbeddingProvider)
        assert isinstance(emotion, FallbackEmotionProvider)
        assert isinstance(emotion.primary, HttpEmotionProvider)
        assert isinstance(emotion.fallback, LexiconEmotionProvider)

    def test_env_overrides_endpoints(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOONMOTION_EMBED_ENDPOINT", "http://env-e")
        monkeypatch.setenv("TOONMOTION_EMOTION_ENDPOINT", "http://env-m")
        config = load_config(write_config(tmp_path, provider_mode="remote"))
        assert config.embed_endpoint == "http://env-e"
        assert config.emotion_endpoint == "http://env-m"

    def test_env_endpoints_leave_an_offline_manifest_alone(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.setenv("TOONMOTION_EMBED_ENDPOINT", "http://env-e")
        monkeypatch.setenv("TOONMOTION_EMOTION_ENDPOINT", "http://env-m")
        golden = GOLDENS / "bundles" / "short_en"
        req = json.loads((golden / "request.json").read_text(encoding="utf-8"))
        bundle = synthesize(request(req["text"], req["duration"], seed=req["seed"]),
                            load_config(CONFIG_PATH))
        assert bundle.manifest_json.encode("utf-8") == (
            golden / "manifest.json").read_bytes()

    def test_out_of_range_threshold(self, tmp_path):
        with pytest.raises(ConfigError, match="similarity_threshold"):
            load_config(write_config(tmp_path, similarity_threshold=1.5))

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean_fallback_flag_rejected(self, tmp_path, value):
        path = write_config(tmp_path, emotion_fallback_lexicon=value)
        with pytest.raises(ConfigError, match="emotion_fallback_lexicon"):
            load_config(path)

    def test_nonpositive_fps(self, tmp_path):
        with pytest.raises(ConfigError, match="fps"):
            load_config(write_config(tmp_path, fps=0))

    @pytest.mark.parametrize("key, value, message", [
        ("blend_s", -0.1, "blend_s must be >= 0"),
        ("transition_s", 0, "transition_s must be positive"),
    ], ids=["blend_s_negative", "transition_s_zero"])
    def test_out_of_range_duration_rejected(self, tmp_path, key, value, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, **{key: value}))

    def test_negative_retries(self, tmp_path):
        with pytest.raises(ConfigError, match="retries must be >= 0"):
            load_config(write_config(tmp_path, retries=-1))

    def test_missing_dataset_file(self, tmp_path):
        with pytest.raises(ConfigError, match="gesture_dataset"):
            load_config(write_config(tmp_path, gesture_dataset="nope.jsonl"))

    def test_path_too_long_for_the_file_system_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, viseme_table="x" * 5000)
        code = main(["synthesize", "--text", "Hello there.", "--duration", "2.0",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {config}: viseme_table file not found: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides, message", [
        ({"fpz": 3}, "unknown config key 'fpz'"),
        ({"gesture_dataset": None}, "config key 'gesture_dataset' must be a string, not null"),
        ({"fps": "30"}, "config key 'fps' must be a number, not a string"),
        ({"fps": 0}, "fps must be positive"),
        ({"similarity_threshold": 1.5}, "similarity_threshold must be within [0, 1]"),
        ({"viseme_table": "nope.json"}, "viseme_table file not found: {dir}/nope.json"),
    ], ids=["unknown_key", "null_path", "mistyped", "fps_zero", "threshold", "missing_file"])
    def test_fault_names_the_config_file(self, tmp_path, overrides, message):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: " + message.format(dir=tmp_path)

    def test_missing_key_names_the_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"gesture_dataset": "g.jsonl"}), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: config is missing 'expression_dataset'"

    def test_hash_is_stable_across_locations(self, tmp_path):
        a = load_config(write_config(tmp_path / "a", **{}))
        b = load_config(write_config(tmp_path / "b", **{}))
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 64
        int(a.config_hash(), 16)

    def test_hash_changes_with_values(self, tmp_path):
        a = load_config(write_config(tmp_path / "a"))
        b = load_config(write_config(tmp_path / "b", similarity_threshold=0.6))
        assert a.config_hash() != b.config_hash()

    @pytest.mark.parametrize("raw, expected", [
        ({"gesture_dataset": "g.jsonl", "expression_dataset": "e.jsonl"},
         "2f76165cf3478bd50fa83d63abe791acc3e472723f8bc179fa0dfcc48dfcf56c"),
        ({"gesture_dataset": "g.jsonl", "expression_dataset": "e.jsonl",
          "provider_mode": "remote", "embed_endpoint": "http://localhost:1/e",
          "emotion_endpoint": "http://localhost:1/m",
          "emotion_fallback_lexicon": True, "similarity_threshold": 0.6,
          "blend_s": 0.25, "transition_s": 0.5, "blink_mean_gap_s": 3.0,
          "blink_min_gap_s": 0.5, "viseme_table": "v.json",
          "emotion_categories": "c.json", "fps": 24, "timeout_s": 5, "retries": 1},
         "e778e4967d3aac233d588a67a77df838e8135663a363f41ee316b2b507e8e181"),
    ], ids=["defaults", "every_key"])
    def test_hash_is_frozen(self, tmp_path, monkeypatch, raw, expected):
        # Manifests record this hash, so it is hashed over the raw (pre-cast)
        # values and must not move.
        monkeypatch.delenv("TOONMOTION_EMBED_ENDPOINT", raising=False)
        monkeypatch.delenv("TOONMOTION_EMOTION_ENDPOINT", raising=False)
        for name in ("g.jsonl", "e.jsonl", "v.json", "c.json"):
            (tmp_path / name).touch()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert load_config(path).config_hash() == expected

    @pytest.mark.parametrize("override", [
        {"blend_s": float("nan")},
        {"transition_s": float("inf")},
    ], ids=["blend_s_nan", "transition_s_inf"])
    def test_non_finite_float_exits_1(self, tmp_path, capsys, override):
        code = main([
            "synthesize", "--text", "Hello there.", "--duration", "2.0",
            "--config", str(write_config(tmp_path, **override)),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("embed_endpoint", 5), ("fps", "30"), ("similarity_threshold", True),
        ("retries", 2.7), ("fps", 10**400),
    ], ids=["embed_endpoint_number", "fps_string", "threshold_boolean",
            "retries_real", "fps_beyond_float_range"])
    def test_mistyped_value_exits_1(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.delenv("TOONMOTION_EMBED_ENDPOINT", raising=False)
        overrides = {key: value}
        if key == "embed_endpoint":
            overrides.update(provider_mode="remote",
                             emotion_endpoint="http://localhost:1/m")
        config = write_config(tmp_path, **overrides)
        code = main([
            "synthesize", "--text", "Hello there.", "--duration", "2.0",
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: config key {key!r} ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_fps_must_match_the_gesture_library(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "synthesize", "--text", "Hello there.", "--duration", "3.0",
            "--config", str(write_config(tmp_path, fps=24.0)), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "config fps 24.0" in err and "library's 30.0" in err
        assert not out.exists()


def tmp_dirs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    return tmp_path / "a", tmp_path / "b"


class TestRequestValidation:
    def test_empty_text(self):
        with pytest.raises(ValidationError):
            request(text="  ").validate()

    def test_nonpositive_duration(self):
        with pytest.raises(ValidationError):
            request(duration=0).validate()

    def test_negative_seed(self):
        with pytest.raises(ValidationError):
            request(seed=-1).validate()

    def test_duration_cap(self):
        request(duration=pipeline.MAX_SPEECH_DURATION_S).validate()
        above = math.nextafter(pipeline.MAX_SPEECH_DURATION_S, math.inf)
        with pytest.raises(ValidationError, match="exceeds the 600.0 s limit"):
            request(duration=above).validate()

    def test_text_cap(self):
        request(text="a" * pipeline.MAX_TEXT_CHARS).validate()
        with pytest.raises(ValidationError, match="10001 characters, more than 10000"):
            request(text="a" * (pipeline.MAX_TEXT_CHARS + 1)).validate()

    def test_retrieve_shares_the_text_cap(self, capsys):
        code = main(["retrieve", "--text", "a" * (pipeline.MAX_TEXT_CHARS + 1),
                     "--config", str(CONFIG_PATH)])
        assert code == 1
        assert "more than 10000" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_exits_1(self, tmp_path, capsys, duration):
        code = main([
            "synthesize", "--text", "Hello there.", "--duration", duration,
            "--config", str(CONFIG_PATH), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def config():
    return load_config(CONFIG_PATH)


class TestSynthesize:
    def test_bundle_contents(self, config):
        bundle = synthesize(request(seed=7), config)
        clip = parse_bvh(bundle.body, "out")
        assert clip.frame_count == 136  # round(4.5 * 30) + 1
        face = json.loads(bundle.face_json)
        assert len(face["frames"]) == 136
        assert len(face["channels"]) == 30
        manifest = json.loads(bundle.manifest_json)
        assert manifest["body_frames"] == 136
        assert manifest["face_frames"] == 136

    def test_manifest_records_everything(self, config):
        bundle = synthesize(request(seed=7), config)
        manifest = json.loads(bundle.manifest_json)
        assert manifest["config_hash"] == config.config_hash()
        assert manifest["provider_mode"] == "offline"
        assert manifest["embedding_model"] == "ngram-hash-256-v1"
        assert manifest["inputs"]["seed"] == 7
        assert manifest["inputs"]["text"] == "Hello there. That is wonderful!"
        rows = manifest["gestures"]
        assert [r["query_phrase"] for r in rows] == [
            "Hello there.", "That is wonderful!",
        ]
        assert [r["entry_id"] for r in rows] == ["g_hello", "g_wonderful"]
        assert rows[0]["similarity"] == pytest.approx(1.0, abs=1e-6)
        assert not rows[0]["fallback"]
        assert manifest["expression"]["entry_id"] == "img01"
        assert manifest["dialogue_emotions"] == {"Joy": 0.8}
        assert manifest["lipsync_source"] == "fallback"
        assert isinstance(manifest["blink_onsets"], list)

    def test_same_seed_is_byte_identical(self, config):
        a = synthesize(request(seed=7), config)
        b = synthesize(request(seed=7), config)
        assert a.body == b.body
        assert a.face_json == b.face_json
        assert a.manifest_json == b.manifest_json

    def test_different_seed_changes_blinks(self, config):
        a = json.loads(synthesize(request(seed=1), config).manifest_json)
        b = json.loads(synthesize(request(seed=2), config).manifest_json)
        assert a["blink_onsets"] != b["blink_onsets"]

    def test_bundle_writes_three_files(self, config, tmp_path):
        out = tmp_path / "bundle"
        synthesize(request(), config, out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            "body.bvh", "face.json", "manifest.json",
        ]
        parse_bvh((out / "body.bvh").read_bytes(), "written")
        json.loads((out / "face.json").read_text(encoding="utf-8"))

    def test_repeated_writes_are_stable(self, config, tmp_path):
        a_dir, b_dir = tmp_dirs(tmp_path)
        synthesize(request(seed=3), config, out_dir=a_dir)
        synthesize(request(seed=3), config, out_dir=b_dir)
        for name in ("body.bvh", "face.json", "manifest.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_phoneme_file_input(self, config, tmp_path):
        ph = tmp_path / "ph.json"
        ph.write_text(json.dumps([
            {"ph": "e", "start": 0.0, "end": 0.4},
            {"ph": "o", "start": 0.4, "end": 0.9},
        ]), encoding="utf-8")
        bundle = synthesize(request(duration=1.5, phoneme_file=ph), config)
        manifest = json.loads(bundle.manifest_json)
        assert manifest["lipsync_source"] == "file:ph.json"
        assert manifest["inputs"]["phoneme_file"] == "ph.json"

    def test_phonemes_beyond_duration_rejected(self, config, tmp_path):
        ph = tmp_path / "ph.json"
        ph.write_text(json.dumps([
            {"ph": "a", "start": 0.0, "end": 2.0},
        ]), encoding="utf-8")
        with pytest.raises(DurationMismatch) as info:
            synthesize(request(duration=1.0, phoneme_file=ph), config)
        assert str(info.value) == (
            f"{ph}: phoneme timeline ends at 2.0s, speech is 1.0s")

    def test_unmatched_text_uses_neutral_fallback(self, config):
        bundle = synthesize(request(text="zqxv jkwp mbfg", duration=2.0), config)
        manifest = json.loads(bundle.manifest_json)
        row = manifest["gestures"][0]
        assert row["fallback"] is True
        assert row["entry_id"].startswith("n_")

    def test_delimiter_only_text_still_synthesizes(self, config):
        bundle = synthesize(request(text="...", duration=1.0), config)
        manifest = json.loads(bundle.manifest_json)
        assert len(manifest["gestures"]) == 1
        assert manifest["gestures"][0]["fallback"] is True

    def test_injected_emotion_provider(self, config):
        class Stub:
            def infer(self, text, image_ref=None):
                return {"Shock": 0.9, "Surprise": 0.7}

        bundle = synthesize(request(seed=0), config, emotion_provider=Stub())
        manifest = json.loads(bundle.manifest_json)
        assert manifest["dialogue_emotions"] == {"Shock": 0.9, "Surprise": 0.7}
        assert manifest["expression"]["entry_id"] == "img06"

    def test_overlay_expression_suppresses_blinks(self, config):
        class Stub:
            def infer(self, text, image_ref=None):
                return {"Shock": 0.9, "Surprise": 0.7}

        bundle = synthesize(request(seed=7, duration=10.0), config,
                            emotion_provider=Stub())
        manifest = json.loads(bundle.manifest_json)
        assert manifest["expression"]["entry_id"] == "img06"
        # img06 has shockLines only; blinking continues.
        face = json.loads(bundle.face_json)
        blink_idx = face["channels"].index("eyeBlinkL")
        peak = max(row[blink_idx] for row in face["frames"])
        assert peak > 0.9

        class Circle:
            def infer(self, text, image_ref=None):
                return {"Amazement": 0.8, "Surprise": 0.6}

        bundle = synthesize(request(seed=7, duration=10.0), config,
                            emotion_provider=Circle())
        manifest = json.loads(bundle.manifest_json)
        assert manifest["expression"]["entry_id"] == "img08"
        assert manifest["blink_onsets"] == []

    def test_retrieve_agrees_with_synthesize_on_delimiter_only_text(
        self, config, capsys
    ):
        text = "。、"
        assert main(["retrieve", "--text", text, "--config", str(CONFIG_PATH),
                     "--seed", "4"]) == 0
        retrieved = [
            (m["phrase"], m["ordinal"], m["entry_id"], m["similarity"], m["fallback"])
            for m in json.loads(capsys.readouterr().out)["matches"]
        ]
        manifest = json.loads(
            synthesize(request(text=text, duration=1.0, seed=4), config).manifest_json
        )
        synthesized = [
            (g["query_phrase"], g["ordinal"], g["entry_id"], g["similarity"],
             g["fallback"])
            for g in manifest["gestures"]
        ]
        assert len(retrieved) == 1 and retrieved[0][-1] is True
        assert retrieved == synthesized

    def test_body_track_is_valid_bvh_with_unit_quats(self, config):
        bundle = synthesize(request(seed=7), config)
        clip = parse_bvh(bundle.body, "check")
        norms = np.linalg.norm(clip.rotations, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-5


class TestBundleWrite:
    @pytest.mark.parametrize("stage", ["staging", "rename"])
    def test_failed_write_leaves_no_temp_or_member(self, tmp_path, monkeypatch,
                                                   stage):
        real_fdopen = os.fdopen
        opened = []

        def fdopen_failing_on_second(fd, *args):
            opened.append(fd)
            if len(opened) == 2:
                os.close(fd)
                raise OSError(errno.ENOSPC, "no space left on device")
            return real_fdopen(fd, *args)

        def failing_replace(src, dst):
            raise OSError(errno.EIO, "rename failed")

        if stage == "staging":
            monkeypatch.setattr(os, "fdopen", fdopen_failing_on_second)
        else:
            monkeypatch.setattr(os, "replace", failing_replace)
        out = tmp_path / "bundle"
        bundle = OutputBundle(body=b"HIERARCHY\n", face_json="{}\n",
                              manifest_json="{}\n")
        with pytest.raises(OSError):
            bundle.write(out)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_face_frame_writes_nothing(self, config, tmp_path,
                                                  monkeypatch, bad):
        real_compose = pipeline.compose_face_track

        def compose_with_bad_frame(*args, **kwargs):
            track = real_compose(*args, **kwargs)
            track.frames[-1, 3] = bad
            return track

        monkeypatch.setattr(pipeline, "compose_face_track", compose_with_bad_frame)
        out = tmp_path / "bundle"
        with pytest.raises(ValueError, match="non-finite float in JSON output"):
            synthesize(request(), config, out_dir=out)
        assert not out.exists() or list(out.iterdir()) == []


BUNDLE_GOLDENS = sorted((GOLDENS / "bundles").iterdir())


@pytest.mark.parametrize("golden", BUNDLE_GOLDENS, ids=lambda p: p.name)
def test_bundle_matches_frozen_golden(golden, tmp_path, capsys):
    req = json.loads((golden / "request.json").read_text(encoding="utf-8"))
    argv = [
        "synthesize", "--text", req["text"], "--duration", str(req["duration"]),
        "--seed", str(req["seed"]), "--config", str(CONFIG_PATH),
        "--out", str(tmp_path),
    ]
    if req["phonemes"] is not None:
        argv += ["--phonemes", str(FIXTURES / req["phonemes"])]
    assert main(argv) == 0
    capsys.readouterr()
    for name in ("body.bvh", "face.json", "manifest.json"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def test_long_request_matches_frozen_digests(tmp_path, capsys):
    """A 240 s request with 120 phrases and 1,100 timed phonemes, some
    silent and some not in the viseme table, against the SHA-256 digests of
    its frozen bundle."""
    golden = GOLDENS / "long_request"
    req = json.loads((golden / "request.json").read_text(encoding="utf-8"))
    events = json.loads((FIXTURES / req["phonemes"]).read_text(encoding="utf-8"))
    assert len(segment_phrases(req["text"])) >= 100 and len(events) >= 1000
    assert {"sil", "zz"} <= {ev["ph"] for ev in events}
    assert main([
        "synthesize", "--text", req["text"], "--duration", str(req["duration"]),
        "--seed", str(req["seed"]), "--config", str(CONFIG_PATH),
        "--out", str(tmp_path), "--phonemes", str(FIXTURES / req["phonemes"]),
    ]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("body.bvh", "face.json", "manifest.json")}
    assert digests == json.loads((golden / "digests.json").read_text(encoding="utf-8"))


class TestCli:
    def test_synthesize_happy_path(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main([
            "synthesize", "--text", "Hello there.", "--duration", "2.0",
            "--config", str(CONFIG_PATH), "--out", str(out),
        ])
        assert code == 0
        assert (out / "manifest.json").is_file()
        assert "bundle written" in capsys.readouterr().out

    def test_usage_errors_exit_64(self, capsys):
        assert main([]) == 64
        assert main(["frobnicate"]) == 64
        assert main(["synthesize", "--text", "hi"]) == 64
        assert main(["synthesize", "--text", "hi", "--duration", "fast",
                     "--config", str(CONFIG_PATH), "--out", "x"]) == 64
        assert main(["validate-dataset", "--kind", "movie",
                     "--path", "x"]) == 64
        capsys.readouterr()

    def test_validation_error_exits_1(self, tmp_path, capsys):
        code = main([
            "synthesize", "--text", "hi", "--duration", "-3",
            "--config", str(CONFIG_PATH), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_non_finite_clip_value_exits_1(self, tmp_path, capsys):
        library = tmp_path / "gestures"
        shutil.copytree(FIXTURES / "gestures", library)
        clip = library / "clips" / "g_hello.bvh"
        lines = clip.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1] = "nan" + lines[-1][lines[-1].index(" "):]
        clip.write_text("".join(lines), encoding="utf-8")
        config = write_config(tmp_path / "cfg",
                              gesture_dataset=str(library / "gestures.jsonl"))
        code = main([
            "synthesize", "--text", "Hello there.", "--duration", "2.0",
            "--config", str(config), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"line {len(lines)}, col 1: expected a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main([
            "synthesize", "--text", "hi", "--duration", "2",
            "--config", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        capsys.readouterr()

    def test_unreachable_provider_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            provider_mode="remote",
            embed_endpoint="http://127.0.0.1:9",
            emotion_endpoint="http://127.0.0.1:9",
            retries=0,
            timeout_s=0.5,
        )
        code = main([
            "synthesize", "--text", "hi", "--duration", "2",
            "--config", str(config), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "provider error" in capsys.readouterr().err

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_retrieve_matches_golden(self, capsys):
        code = main([
            "retrieve", "--text", "Hello there. That is wonderful!",
            "--config", str(CONFIG_PATH), "--seed", "0",
        ])
        assert code == 0
        golden = (GOLDENS / "retrieve_cli.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_retrieve_threshold_override(self, capsys):
        code = main([
            "retrieve", "--text", "Hello there.",
            "--config", str(CONFIG_PATH), "--threshold", "0.999",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["threshold"] == pytest.approx(0.999)
        assert data["matches"][0]["fallback"] is False

    @pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
    def test_retrieve_rejects_threshold_outside_unit_interval(self, capsys, threshold):
        code = main([
            "retrieve", "--text", "Hello there.",
            "--config", str(CONFIG_PATH), "--threshold", threshold,
        ])
        assert code == 1
        assert "error: similarity_threshold" in capsys.readouterr().err

    def test_build_expressions(self, tmp_path, capsys):
        out = tmp_path / "expr.jsonl"
        report = tmp_path / "report.json"
        code = main([
            "build-expressions",
            "--sources", str(FIXTURES / "expression_sources"),
            "--out", str(out), "--report", str(report),
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 10
        assert data["exaggeration_share"] == pytest.approx(0.5)
        assert json.loads(report.read_text(encoding="utf-8")) == data
        assert len(out.read_text(encoding="utf-8").splitlines()) == 10

    @pytest.mark.parametrize("kind, code", [("missing", errno.ENOENT),
                                            ("file", errno.ENOTDIR)])
    def test_build_expressions_needs_a_sources_directory(self, tmp_path, capsys,
                                                         kind, code):
        sources = tmp_path / "sources"
        if kind == "file":
            sources.write_text("{}", encoding="utf-8")
        out, report = tmp_path / "expr.jsonl", tmp_path / "report.json"
        assert main(["build-expressions", "--sources", str(sources),
                     "--out", str(out), "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"i/o error: [Errno {code}] {os.strerror(code)}: "
                                f"{str(sources)!r}\n")
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("command", ["synthesize", "retrieve", "validate-dataset",
                                         "build-expressions"])
    def test_commands_do_not_import_scipy(self, tmp_path, command):
        # scipy takes about 0.4 s to import; it is the tests' rotation oracle only.
        text = ["--text", "Hello there. That is wonderful!"]
        argv = {
            "synthesize": [*text, "--duration", "4.5", "--config", str(CONFIG_PATH),
                           "--out", str(tmp_path / "out")],
            "retrieve": [*text, "--config", str(CONFIG_PATH)],
            "validate-dataset": ["--kind", "gesture", "--path",
                                 str(FIXTURES / "gestures" / "gestures.jsonl")],
            "build-expressions": ["--sources", str(FIXTURES / "expression_sources"),
                                  "--out", str(tmp_path / "expr.jsonl")],
        }[command]
        script = ("import sys\nfrom toonmotion.cli import main\n"
                  f"code = main({[command, *argv]!r})\n"
                  "print(code, 'scipy' in sys.modules)\n")
        src = Path(pipeline.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split()[-2:] == ["0", "False"]
        if command == "synthesize":
            assert (tmp_path / "out" / "body.bvh").stat().st_size > 0

    def test_build_expressions_reproducible(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert main([
                "build-expressions",
                "--sources", str(FIXTURES / "expression_sources"),
                "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_annotate_emotions_is_idempotent(self, tmp_path, capsys):
        out = tmp_path / "re.jsonl"
        code = main([
            "annotate-emotions",
            "--dataset", str(FIXTURES / "expressions.jsonl"),
            "--out", str(out),
        ])
        assert code == 0
        assert "annotated 10 entries" in capsys.readouterr().out
        assert out.read_bytes() == (FIXTURES / "expressions.jsonl").read_bytes()

    @pytest.mark.parametrize("command", ["build-expressions", "annotate-emotions"])
    def test_emotion_commands_use_the_config_categories(self, tmp_path, capsys,
                                                        command):
        categories = [c for c in load_emotion_categories() if c != "Surprise"]
        (tmp_path / "categories.json").write_text(json.dumps(categories),
                                                  encoding="utf-8")
        config = write_config(tmp_path, emotion_categories="categories.json")
        if command == "build-expressions":
            source = ["--sources", str(FIXTURES / "expression_sources")]
        else:
            source = ["--dataset", str(FIXTURES / "expressions.jsonl")]
        out = tmp_path / "out.jsonl"
        assert main([command, *source, "--out", str(out), "--config", str(config)]) == 0
        capsys.readouterr()
        emotions = {record["id"]: record["emotions"] for record in
                    map(json.loads, out.read_text("utf-8").splitlines())}
        assert emotions["img06"] == {"Shock": 0.85}
        assert emotions["img08"] == {"Amazement": 0.8}

    def test_validate_gesture_dataset(self, capsys):
        code = main([
            "validate-dataset", "--kind", "gesture",
            "--path", str(FIXTURES / "gestures" / "gestures.jsonl"),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"violations": []}

    def test_validate_expression_dataset(self, capsys):
        code = main([
            "validate-dataset", "--kind", "expression",
            "--path", str(FIXTURES / "expressions.jsonl"),
        ])
        assert code == 0
        capsys.readouterr()

    def test_validate_reports_all_violations(self, tmp_path, capsys):
        rows = []
        for line in (FIXTURES / "expressions.jsonl").read_text("utf-8").splitlines()[:2]:
            rows.append(json.loads(line))
        rows[0]["blendshapes"]["jawOpen"] = 1.8
        rows[1]["blendshapes"]["circleEyes"] = 1.0
        rows[1]["blendshapes"]["eyeBlinkL"] = 0.5
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        code = main(["validate-dataset", "--kind", "expression",
                     "--path", str(path)])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert len(data["violations"]) == 2
        assert any("range violation" in v for v in data["violations"])
        assert any("exclusivity" in v for v in data["violations"])

    def test_validate_reports_duplicate_ids(self, tmp_path, capsys):
        line = (FIXTURES / "expressions.jsonl").read_text("utf-8").splitlines()[0]
        path = tmp_path / "dup.jsonl"
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        code = main(["validate-dataset", "--kind", "expression",
                     "--path", str(path)])
        assert code == 1
        entry_id = json.loads(line)["id"]
        assert json.loads(capsys.readouterr().out) == {
            "violations": [f"{entry_id}: duplicate id"]}

    def test_validate_gesture_library_names_the_bad_clip(self, tmp_path, capsys):
        shutil.copytree(FIXTURES / "gestures", tmp_path / "gestures")
        clip = tmp_path / "gestures" / "clips" / "g_hello.bvh"
        clip.write_bytes(clip.read_bytes().replace(
            b"OFFSET 0.000000 90.000000", b"OFFSET zz 90.000000", 1))
        code = main(["validate-dataset", "--kind", "gesture",
                     "--path", str(tmp_path / "gestures" / "gestures.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {clip}: line 4, col 9: expected a number for offset "
            "component, found 'zz'\n")

    def test_validate_gesture_library_with_a_deep_skeleton_exits_1(self, tmp_path,
                                                                   capsys):
        shutil.copytree(FIXTURES / "gestures", tmp_path / "gestures")
        clip = tmp_path / "gestures" / "clips" / "g_hello.bvh"
        clip.write_text(chain_bvh(3000), encoding="utf-8")
        code = main(["validate-dataset", "--kind", "gesture",
                     "--path", str(tmp_path / "gestures" / "gestures.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {clip}: line {2 + 4 * MAX_JOINTS}, col 1: "
            f"skeleton has more than {MAX_JOINTS} joints\n")

    def test_validate_bad_gesture_dataset_exits_1(self, tmp_path, capsys):
        path = tmp_path / "g.jsonl"
        path.write_text(json.dumps({
            "id": "g1", "phrase": "hi", "category": "greeting",
            "neutral": False, "clip": "missing.bvh", "duration_s": 1.0,
        }) + "\n", encoding="utf-8")
        code = main(["validate-dataset", "--kind", "gesture",
                     "--path", str(path)])
        assert code == 1
        capsys.readouterr()


# Each case: how line 3 of an expression file breaks, and the field named.
MALFORMED_EXPRESSION_RECORDS = {
    "non_object": None,
    "non_numeric_blendshape": "blendshapes",
    "missing_id": "id",
    "list_id": "id",
    "string_weight": "blendshapes",
    "boolean_weight": "emotions",
    "source_dialogue_number": "source",
    "source_image_id_list": "source",
}


def _malformed_expression_file(tmp_path, kind):
    """A valid record, a blank line, then one malformed record on line 3."""
    good = json.loads(
        (FIXTURES / "expressions.jsonl").read_text("utf-8").splitlines()[0]
    )
    bad = json.loads(json.dumps(good))
    bad["id"] = "bad"
    if kind == "non_object":
        bad = 42
    elif kind == "non_numeric_blendshape":
        bad["blendshapes"]["jawOpen"] = "wide"
    elif kind == "list_id":
        bad["id"] = [1]
    elif kind == "string_weight":
        bad["blendshapes"]["jawOpen"] = "0.5"
    elif kind == "boolean_weight":
        bad["emotions"][next(iter(bad["emotions"]))] = True
    elif kind == "source_dialogue_number":
        bad["source"]["dialogue"] = 5
    elif kind == "source_image_id_list":
        bad["source"]["image_id"] = ["Hello"]
    else:
        del bad["id"]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("kind", sorted(MALFORMED_EXPRESSION_RECORDS))
@pytest.mark.parametrize("reader", ["load", "validate-dataset", "annotate-emotions"])
def test_malformed_expression_record_reported_with_line(tmp_path, capsys, reader,
                                                        kind):
    path = _malformed_expression_file(tmp_path, kind)
    if reader == "load":
        with pytest.raises(MalformedEntry) as info:
            load_expression_dataset(path, load_emotion_categories())
        assert info.value.line == 3
        assert info.value.file == path
        assert info.value.field == MALFORMED_EXPRESSION_RECORDS[kind]
        return
    if reader == "validate-dataset":
        argv = ["validate-dataset", "--kind", "expression", "--path", str(path)]
    else:
        argv = ["annotate-emotions", "--dataset", str(path),
                "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3:")
    assert not (tmp_path / "out.jsonl").exists()


# Each case: the retrieve request text and seed, the config overrides, and
# the error synthesize exits 1 with.
RETRIEVE_REJECTS = {
    "blank_text": ("   ", "0", {}, "request text is empty"),
    "negative_seed": ("Hello there.", "-1", {}, "seed must be a non-negative integer"),
    "fps_mismatch": ("Hello there.", "0", {"fps": 25.0},
                     "config fps 25.0 differs from the gesture library's "
                     "30.000003000000298"),
}


@pytest.mark.parametrize("case", sorted(RETRIEVE_REJECTS))
def test_retrieve_rejects_what_synthesize_rejects(tmp_path, capsys, case):
    text, seed, overrides, message = RETRIEVE_REJECTS[case]
    request_args = ["--text", text, "--seed", seed,
                    "--config", str(write_config(tmp_path, **overrides))]
    assert main(["synthesize", *request_args, "--duration", "2.0",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["retrieve", *request_args]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Each case: the input it breaks and the bytes that input holds. None appends
# one 0xff byte to the fixture gesture library.
MALFORMED_JSON_INPUTS = {
    "phonemes_invalid_json": ("phonemes", b'[{"ph": "a",'),
    "phonemes_invalid_utf8": ("phonemes", b'[{"ph": "\xff"}]'),
    "config_invalid_utf8": ("config", b'{"provider_mode": "\xff"}'),
    "viseme_table_invalid_json": ("viseme_table", b'{"sil": {}'),
    "viseme_weight_not_a_number": ("viseme_table",
                                   b'{"sil": {}, "other": {"jawOpen": "x"}}'),
    "categories_invalid_json": ("emotion_categories", b'["Joy",'),
    "categories_not_a_list": ("emotion_categories", b"5"),
    "gestures_invalid_utf8": ("gesture_dataset", None),
    "phonemes_oversized_integer": (
        "phonemes", b'[{"ph": "a", "start": 0, "end": ' + b"1" * 5000 + b"}]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON_INPUTS))
def test_malformed_json_input_exits_1(tmp_path, capsys, case):
    target, data = MALFORMED_JSON_INPUTS[case]
    bad = tmp_path / "bad.json"
    overrides, extra = {}, []
    if data is None:
        library = tmp_path / "gestures"
        shutil.copytree(FIXTURES / "gestures", library)
        bad = library / "gestures.jsonl"
        data = bad.read_bytes() + b"\xff\n"
    bad.write_bytes(data)
    if target == "phonemes":
        extra = ["--phonemes", str(bad)]
    elif target != "config":
        overrides[target] = str(bad)
    config = bad if target == "config" else write_config(tmp_path / "cfg", **overrides)
    code = main([
        "synthesize", "--text", "Hello there.", "--duration", "2.0",
        "--config", str(config), "--out", str(tmp_path / "o"), *extra,
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("start", [-1e308, -3.0])
def test_phonemes_starting_before_zero_exit_1(tmp_path, capsys, start):
    ph = tmp_path / "ph.json"
    ph.write_text(json.dumps([{"ph": "a", "start": start, "end": 0.5}]),
                  encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        "synthesize", "--text", "Hello there.", "--duration", "2.0",
        "--config", str(CONFIG_PATH), "--out", str(out), "--phonemes", str(ph),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {ph}: event 'a' starts before 0 s, at {start}\n"
    assert not out.exists()


def test_too_many_phoneme_events_exit_1(tmp_path, capsys):
    count = MAX_PHONEME_EVENTS + 1
    ph = tmp_path / "ph.json"
    ph.write_text(json.dumps([{"ph": "a", "start": i / 100, "end": (i + 1) / 100}
                              for i in range(count)]), encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        "synthesize", "--text", "Hello there.", "--duration", "600",
        "--config", str(CONFIG_PATH), "--out", str(out), "--phonemes", str(ph),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"error: {ph}: phoneme file has {count} events, "
                            f"more than the {MAX_PHONEME_EVENTS} allowed\n")
    assert not out.exists()


def test_unknown_emotion_category_is_rejected_everywhere(tmp_path, capsys):
    lines = (FIXTURES / "expressions.jsonl").read_text("utf-8").splitlines()
    record = json.loads(lines[0])
    record["emotions"] = {"Bloop": 0.5}
    path = tmp_path / "expressions.jsonl"
    path.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n",
                    encoding="utf-8")

    code = main(["validate-dataset", "--kind", "expression", "--path", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["violations"] == [
        f"{record['id']}: emotion category 'Bloop' not in configured list"
    ]

    with pytest.raises(MalformedEntry, match="'Bloop' not in configured list"):
        load_expression_dataset(path, load_emotion_categories())

    config = write_config(tmp_path / "cfg", expression_dataset=str(path))
    code = main(["synthesize", "--text", "Hello there.", "--duration", "2.0",
                 "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "'Bloop' not in configured list" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["synthesize", "validate-dataset",
                                     "annotate-emotions"])
def test_empty_expression_file_is_rejected_everywhere(tmp_path, capsys, command):
    path = tmp_path / "empty.jsonl"
    path.write_bytes(b"")
    out = tmp_path / "out"
    argv = {
        "synthesize": ["synthesize", "--text", "Hello there.", "--duration", "2.0",
                       "--config", str(write_config(tmp_path / "cfg",
                                                    expression_dataset=str(path))),
                       "--out", str(out)],
        "validate-dataset": ["validate-dataset", "--kind", "expression",
                             "--path", str(path)],
        "annotate-emotions": ["annotate-emotions", "--dataset", str(path),
                              "--out", str(out)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: expression dataset has no entries\n"
    assert captured.out == ""
    assert not out.exists()


# The bytes appended to a dataset file: each breaks the line after the last
# valid record, and the error goes on from "line L" with the given text.
BROKEN_DATASET_LINES = {
    "invalid_utf8": (b"\xff\n", ", col 1: invalid UTF-8 byte 0xff\n"),
    "invalid_json": (b'{"id": \n', ", col 7: invalid JSON: Expecting value\n"),
    "missing_field": (b'{"id": "broken"}\n', ": missing field"),
    "oversized_integer": (b'{"id": ' + b"1" * 5000 + b"}\n",
                          ", col 8: integer longer than 4300 digits\n"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_DATASET_LINES))
@pytest.mark.parametrize("dataset", ["gesture_dataset", "expression_dataset"])
def test_dataset_error_names_file_and_line(tmp_path, capsys, dataset, case):
    if dataset == "gesture_dataset":
        shutil.copytree(FIXTURES / "gestures", tmp_path / "gestures")
        bad = tmp_path / "gestures" / "gestures.jsonl"
    else:
        bad = tmp_path / "expressions.jsonl"
        shutil.copy(FIXTURES / "expressions.jsonl", bad)
    appended, message = BROKEN_DATASET_LINES[case]
    line = len(bad.read_bytes().splitlines()) + 1
    bad.write_bytes(bad.read_bytes() + appended)
    config = write_config(tmp_path / "cfg", **{dataset: str(bad)})
    code = main(["synthesize", "--text", "Hello there.", "--duration", "2.0",
                 "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {bad}: line {line}{message}")
