"""End-to-end synthesis: dialogue text + duration to an animation bundle.

The bundle is a BVH body track, a face track JSON, and a manifest recording
every retrieved asset plus a config hash, so offline runs are byte-for-byte
reproducible given (request, config, datasets).
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import get_args, get_type_hints

from . import __version__
from .bvh import serialize_bvh
from .errors import ConfigError, DurationMismatch, ValidationError
from .expression_dataset import load_expression_dataset
from .face_engine import (
    compose_face_track,
    fallback_phonemes,
    infer_dialogue_emotion,
    load_phoneme_file,
    load_viseme_table,
    retrieve_expression,
    schedule_blinks,
)
from .gesture_retrieval import FPS_REL_TOL, load_gesture_dataset, retrieve_text
from .jsonutil import atomic_write_files, canonical_json, json_value, read_json
from .motion_compose import retime_to_speech, stitch_clips
from .providers import (
    FallbackEmotionProvider,
    HttpEmbeddingProvider,
    HttpEmotionProvider,
    LexiconEmotionProvider,
    ReferenceEmbedder,
    load_emotion_categories,
)

# The bounds on one request's work. They are constants, not Config fields,
# so that they stay out of every manifest's config hash.
MAX_SPEECH_DURATION_S = 600.0
MAX_TEXT_CHARS = 10_000

EMBED_ENDPOINT_ENV = "TOONMOTION_EMBED_ENDPOINT"
EMOTION_ENDPOINT_ENV = "TOONMOTION_EMOTION_ENDPOINT"


@dataclass
class Config:
    """Every tunable of a run. Its field defaults are the only copy of each
    default: library functions take these values as arguments."""

    gesture_dataset: Path
    expression_dataset: Path
    provider_mode: str = "offline"
    embed_endpoint: str | None = None
    emotion_endpoint: str | None = None
    emotion_fallback_lexicon: bool = False
    similarity_threshold: float = 0.55
    blend_s: float = 0.3
    transition_s: float = 0.4
    blink_mean_gap_s: float = 4.0
    blink_min_gap_s: float = 1.0
    viseme_table: Path | None = None
    emotion_categories: Path | None = None
    fps: float = 30.0
    timeout_s: float = 10.0
    retries: int = 2

    # The config file's values merged with the defaults, before path
    # resolution and the endpoint overrides; config_hash hashes them.
    _raw: dict = field(kw_only=True)

    def config_hash(self) -> str:
        """Stable hash of the configuration values as the file gave them,
        defaults filled in."""
        return hashlib.sha256(canonical_json(self._raw).encode("utf-8")).hexdigest()

    def validate(self, file: str | Path | None = None):
        """Raise ConfigError on the first value out of its range, naming
        *file*, the config file the values came from, when given."""
        error = partial(ConfigError, file=file)
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise error(f"{f.name} must be finite")
        if self.provider_mode not in ("offline", "remote"):
            raise error(f"provider_mode must be offline|remote, got {self.provider_mode!r}")
        if self.provider_mode == "remote":
            if not self.embed_endpoint or not self.emotion_endpoint:
                raise error("remote mode requires embed and emotion endpoints")
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise error("similarity_threshold must be within [0, 1]")
        for name in ("blend_s",):
            if getattr(self, name) < 0:
                raise error(f"{name} must be >= 0")
        for name in ("transition_s", "blink_mean_gap_s", "blink_min_gap_s",
                     "fps", "timeout_s"):
            if getattr(self, name) <= 0:
                raise error(f"{name} must be positive")
        if self.retries < 0:
            raise error("retries must be >= 0")
        for label, path in (
            ("gesture_dataset", self.gesture_dataset),
            ("expression_dataset", self.expression_dataset),
            ("viseme_table", self.viseme_table),
            ("emotion_categories", self.emotion_categories),
        ):
            # os.path.isfile, unlike Path.is_file, is False (not an OSError)
            # for a path too long for the file system.
            if path is not None and not os.path.isfile(path):
                raise error(f"{label} file not found: {path}")


# The config file's keys are Config's public fields, each of the JSON kind of
# its annotation; "Path" fields are strings resolved against the config directory.
_CONFIG_FIELDS = [f for f in fields(Config) if not f.name.startswith("_")]
_CONFIG_TYPES = get_type_hints(Config)


def load_config(path: str | Path) -> Config:
    """Read a JSON config; relative paths resolve against the config file.

    Provider endpoints may be overridden through the environment
    (TOONMOTION_EMBED_ENDPOINT / TOONMOTION_EMOTION_ENDPOINT); the overrides
    do not enter the config hash.
    """
    path = Path(path)
    error = partial(ConfigError, file=path)
    raw = json_value(read_json(path, ConfigError), dict, "config", error)

    unknown = set(raw) - {f.name for f in _CONFIG_FIELDS}
    if unknown:
        raise error(f"unknown config key {sorted(unknown)[0]!r}")
    for f in _CONFIG_FIELDS:
        if f.default is MISSING and f.name not in raw:
            raise error(f"config is missing {f.name!r}")

    merged = {f.name: f.default for f in _CONFIG_FIELDS if f.default is not MISSING}
    merged.update(raw)

    values = {}
    for f in _CONFIG_FIELDS:
        hint = _CONFIG_TYPES[f.name]
        nullable = type(None) in get_args(hint)
        kind = get_args(hint)[0] if nullable else hint
        value = json_value(merged[f.name], str if kind is Path else kind,
                           f"config key {f.name!r}", error, nullable=nullable)
        if kind is Path and value is not None:
            value = path.parent / value
        values[f.name] = value
    # The endpoint overrides reach the fields only, so the environment does
    # not change the hash, and with it an offline manifest.
    for name, env in (("embed_endpoint", EMBED_ENDPOINT_ENV),
                      ("emotion_endpoint", EMOTION_ENDPOINT_ENV)):
        values[name] = os.environ.get(env, values[name])
    # Hash the pre-resolution values so the hash does not depend on where
    # the config file happens to live.
    config = Config(**values, _raw=merged)
    config.validate(file=path)
    return config


@dataclass
class DialogueRequest:
    text: str
    speech_duration_s: float
    phoneme_file: Path | None = None
    seed: int = 0
    character_profile: str | None = None

    def validate(self):
        check_text_and_seed(self.text, self.seed)
        if not math.isfinite(self.speech_duration_s) or self.speech_duration_s <= 0:
            raise ValidationError("speech duration must be positive and finite")
        if self.speech_duration_s > MAX_SPEECH_DURATION_S:
            raise ValidationError(
                f"speech duration {self.speech_duration_s} s exceeds the "
                f"{MAX_SPEECH_DURATION_S} s limit"
            )


def check_text_and_seed(text: str, seed: int) -> None:
    """The request checks that `retrieve` shares with `synthesize`."""
    if not text.strip():
        raise ValidationError("request text is empty")
    if len(text) > MAX_TEXT_CHARS:
        raise ValidationError(
            f"request text has {len(text)} characters, more than {MAX_TEXT_CHARS}"
        )
    if seed < 0:
        raise ValidationError("seed must be a non-negative integer")


@dataclass
class OutputBundle:
    body: bytes
    face_json: str
    manifest_json: str

    def write(self, out_dir: str | Path):
        """Write body.bvh, face.json and manifest.json atomically.

        All three files are staged as temporaries first and renamed last, so
        a failure never leaves a partially written bundle member behind.
        """
        out_dir = Path(out_dir)
        atomic_write_files([
            (out_dir / "body.bvh", self.body),
            (out_dir / "face.json", self.face_json.encode("utf-8")),
            (out_dir / "manifest.json", self.manifest_json.encode("utf-8")),
        ])


def provider_clients(config: Config):
    """Embedding and emotion providers for the configured mode."""
    if config.provider_mode == "offline":
        return ReferenceEmbedder(), LexiconEmotionProvider()
    embedder = HttpEmbeddingProvider(
        config.embed_endpoint, timeout_s=config.timeout_s, retries=config.retries
    )
    emotion = HttpEmotionProvider(
        config.emotion_endpoint, timeout_s=config.timeout_s, retries=config.retries
    )
    if config.emotion_fallback_lexicon:
        emotion = FallbackEmotionProvider(emotion, LexiconEmotionProvider())
    return embedder, emotion


def load_gesture_library(config: Config, embedder):
    """The config's gesture library, whose frame rate must be the config's."""
    gestures = load_gesture_dataset(config.gesture_dataset, embedder)
    if not math.isclose(config.fps, gestures.fps, rel_tol=FPS_REL_TOL):
        raise ConfigError(
            f"config fps {config.fps} differs from the gesture library's {gestures.fps}"
        )
    return gestures


def synthesize(
    request: DialogueRequest,
    config: Config,
    out_dir: str | Path | None = None,
    emotion_provider=None,
) -> OutputBundle:
    """Run the full pipeline and optionally write the bundle.

    A single seeded generator drives all randomness, consumed in a fixed
    documented order: gesture fallback draws (phrase order) first, blink
    scheduling second. Offline runs are therefore byte-deterministic.
    """
    request.validate()
    config.validate()
    embedder, default_emotion = provider_clients(config)
    emotion_provider = emotion_provider or default_emotion

    categories = load_emotion_categories(config.emotion_categories)
    gestures = load_gesture_library(config, embedder)
    expressions = load_expression_dataset(config.expression_dataset, categories)
    viseme_table = load_viseme_table(config.viseme_table)

    rng = random.Random(request.seed)

    phrases, matches = retrieve_text(
        request.text, gestures, config.similarity_threshold, rng
    )

    clips = [gestures.clip_for(m.entry.id) for m in matches]
    body = retime_to_speech(stitch_clips(clips, config.blend_s),
                            request.speech_duration_s)

    emotions = infer_dialogue_emotion(request.text, emotion_provider, categories)
    expression, expr_similarity = retrieve_expression(emotions, expressions)

    if request.phoneme_file is not None:
        phonemes = load_phoneme_file(request.phoneme_file)
        last_end = max((ev.end_s for ev in phonemes), default=0.0)
        if last_end > request.speech_duration_s + 1e-6:
            raise DurationMismatch(
                f"phoneme timeline ends at {last_end}s, speech is "
                f"{request.speech_duration_s}s", file=request.phoneme_file
            )
        lipsync_source = f"file:{Path(request.phoneme_file).name}"
    else:
        phonemes = fallback_phonemes(request.text, request.speech_duration_s)
        lipsync_source = "fallback"

    blink_onsets = schedule_blinks(
        request.speech_duration_s,
        rng,
        mean_gap_s=config.blink_mean_gap_s,
        min_gap_s=config.blink_min_gap_s,
    )
    face = compose_face_track(
        expression,
        phonemes,
        blink_onsets,
        request.speech_duration_s,
        fps=config.fps,
        transition_s=config.transition_s,
        viseme_table=viseme_table,
        lipsync_source=lipsync_source,
    )

    manifest = {
        "tool_version": __version__,
        "config_hash": config.config_hash(),
        "provider_mode": config.provider_mode,
        "embedding_model": embedder.model,
        "fps": config.fps,
        "inputs": {
            "text": request.text,
            "speech_duration_s": request.speech_duration_s,
            "seed": request.seed,
            "phoneme_file": (
                Path(request.phoneme_file).name if request.phoneme_file else None
            ),
            "character_profile": request.character_profile,
        },
        "gestures": [
            {
                "query_phrase": phrase.text,
                "ordinal": match.phrase_ordinal,
                "entry_id": match.entry.id,
                "similarity": match.similarity,
                "fallback": match.fallback,
            }
            for phrase, match in zip(phrases, matches)
        ],
        "expression": {"entry_id": expression.id, "similarity": expr_similarity},
        "dialogue_emotions": emotions,
        "blink_onsets": face.provenance["blink_onsets"],
        "lipsync_source": lipsync_source,
        "body_frames": body.frame_count,
        "face_frames": face.frame_count,
    }

    bundle = OutputBundle(
        body=serialize_bvh(body),
        face_json=canonical_json(face.to_json_dict()) + "\n",
        manifest_json=canonical_json(manifest) + "\n",
    )
    if out_dir is not None:
        bundle.write(out_dir)
    return bundle
