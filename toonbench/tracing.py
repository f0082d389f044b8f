"""Traced mode: spans around the package's public functions, from outside.

Each wrapped function records one span (name, start, end, parent span,
operation id) per call made during an operation. Callers import these
functions by name (``pipeline`` imports ``serialize_bvh``), so a wrapper
replaces the function wherever any ``toonmotion`` module holds it; methods
are replaced on their class. A target that no longer exists is skipped and
its metrics read zero. Spans stay in memory until the run writes them out.

Per-layer metrics are means per operation: ``*_ms`` is self time (a span's
duration minus the time covered by its child spans), the rest are counts.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _n(args, result):
    return 1


def _len_result(args, result):
    return len(result)


def _frames(args, result):
    return result.frame_count


def _fallbacks(args, result):
    return sum(1 for m in result if m.fallback)


def _utf8_len(args, result):
    return len(result.encode("utf-8"))


def _bundle_bytes(args, result):
    bundle = args[0]
    return (len(bundle.body) + len(bundle.face_json.encode("utf-8"))
            + len(bundle.manifest_json.encode("utf-8")))


def _build_images(args, result):
    return result[1].total + len(result[1].rejects)


def _build_rejects(args, result):
    return len(result[1].rejects)


def _embed_texts(args, result):
    return len(args[1])


# (module, attribute or Class.method, span name, [(counter, fn(args, result))])
TARGETS = [
    ("pipeline", "load_config", "pipeline.load_config", []),
    ("pipeline", "synthesize", "pipeline.synthesize", []),
    ("pipeline", "OutputBundle.write", "pipeline.write",
     [("pipeline.write_bytes", _bundle_bytes)]),
    ("gesture_retrieval", "load_gesture_dataset", "gesture_retrieval.load", []),
    ("gesture_retrieval", "retrieve_sequence", "gesture_retrieval.retrieve",
     [("gesture_retrieval.fallbacks", _fallbacks)]),
    ("bvh", "parse_bvh", "bvh.parse", [("bvh.parse_calls", _n)]),
    ("bvh", "serialize_bvh", "bvh.serialize", [("bvh.serialize_bytes", _len_result)]),
    ("providers", "ReferenceEmbedder.embed", "providers.embed",
     [("providers.embed_texts", _embed_texts)]),
    ("providers", "LexiconEmotionProvider.infer", "providers.emotion",
     [("providers.emotion_calls", _n)]),
    ("text_semantics", "segment_phrases", "text_semantics.segment",
     [("text_semantics.phrases", _len_result)]),
    ("expression_dataset", "load_expression_dataset", "expression_dataset.load",
     [("expression_dataset.entries", _len_result)]),
    ("expression_dataset", "parse_source_fixture", "expression_dataset.parse_source", []),
    ("expression_dataset", "fuse_sources", "expression_dataset.fuse", []),
    ("expression_dataset", "annotate_emotion", "expression_dataset.annotate", []),
    ("expression_dataset", "build_dataset", "expression_dataset.build",
     [("expression_dataset.images", _build_images),
      ("expression_dataset.rejects", _build_rejects)]),
    ("face_engine", "retrieve_expression", "face_engine.expression", []),
    ("face_engine", "infer_dialogue_emotion", "face_engine.emotion", []),
    ("face_engine", "load_phoneme_file", "face_engine.phonemes",
     [("face_engine.phoneme_events", _len_result)]),
    ("face_engine", "fallback_phonemes", "face_engine.phonemes",
     [("face_engine.phoneme_events", _len_result)]),
    ("face_engine", "lipsync_track", "face_engine.lipsync", []),
    ("face_engine", "schedule_blinks", "face_engine.blinks", []),
    ("face_engine", "compose_face_track", "face_engine.compose",
     [("face_engine.frames", _frames)]),
    ("motion_compose", "stitch_clips", "motion_compose.stitch", []),
    ("motion_compose", "retime_to_speech", "motion_compose.retime",
     [("motion_compose.frames", _frames)]),
    ("jsonutil", "canonical_json", "jsonutil.encode",
     [("jsonutil.encode_bytes", _utf8_len)]),
    ("jsonutil", "atomic_write_text", "jsonutil.write", []),
    ("jsonutil", "atomic_write_bytes", "jsonutil.write", []),
]

OP_SPAN = "bench.op"

# Per-layer metric -> span whose self time it reports. The "_self" names
# mark layers whose children are reported separately.
SELF_TIME_METRICS = {
    "pipeline.load_config_ms": "pipeline.load_config",
    "pipeline.synthesize_self_ms": "pipeline.synthesize",
    "gesture_retrieval.load_self_ms": "gesture_retrieval.load",
    "bvh.parse_ms": "bvh.parse",
    "providers.embed_ms": "providers.embed",
    "text_semantics.segment_ms": "text_semantics.segment",
    "gesture_retrieval.retrieve_ms": "gesture_retrieval.retrieve",
    "expression_dataset.load_ms": "expression_dataset.load",
    "face_engine.expression_ms": "face_engine.expression",
    "motion_compose.stitch_ms": "motion_compose.stitch",
    "motion_compose.retime_ms": "motion_compose.retime",
    "face_engine.phonemes_ms": "face_engine.phonemes",
    "face_engine.lipsync_ms": "face_engine.lipsync",
    "face_engine.blinks_ms": "face_engine.blinks",
    "face_engine.compose_ms": "face_engine.compose",
    "providers.emotion_ms": "providers.emotion",
    "face_engine.emotion_self_ms": "face_engine.emotion",
    "bvh.serialize_ms": "bvh.serialize",
    "jsonutil.encode_ms": "jsonutil.encode",
    "pipeline.write_ms": "pipeline.write",
    "jsonutil.write_ms": "jsonutil.write",
    "expression_dataset.parse_source_ms": "expression_dataset.parse_source",
    "expression_dataset.fuse_ms": "expression_dataset.fuse",
    "expression_dataset.annotate_self_ms": "expression_dataset.annotate",
    "expression_dataset.build_self_ms": "expression_dataset.build",
    "bench.op_self_ms": OP_SPAN,
}
COUNT_METRICS = sorted({c for *_, counters in TARGETS for c, _ in counters})
COUNT_UNITS = {"bvh.serialize_bytes": "B", "jsonutil.encode_bytes": "B",
               "pipeline.write_bytes": "B"}


def metric_units() -> dict[str, str]:
    units = {name: "ms" for name in SELF_TIME_METRICS}
    units.update({name: COUNT_UNITS.get(name, "count") for name in COUNT_METRICS})
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            for counter, count in counters:
                tracer.counts[counter] += count(args, result)
            return result

        return wrapper

    def _open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def install(self) -> None:
        """Replace every target wherever a toonmotion module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "toonmotion" or n.startswith("toonmotion."))]
        for module_name, attr, span, counters in TARGETS:
            module = sys.modules.get(f"toonmotion.{module_name}")
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(method) if owner is not None else None
                if original is None:
                    continue
                self._restore.append((owner, method, original))
                setattr(owner, method, self._wrap(original, span, counters))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span, counters)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def op(self):
        """One operation's root span; wrapped calls inside it are recorded."""
        self._op = self._ops
        index = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._op = None
            self._ops += 1

    def metrics(self) -> dict[str, float]:
        """Mean self time (ms) per layer and mean counts, per operation."""
        ops = max(self._ops, 1)
        self_s = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_s[i]
        out = {metric: 1000.0 * self_s.get(span, 0.0) / ops
               for metric, span in SELF_TIME_METRICS.items()}
        out.update({name: self.counts.get(name, 0.0) / ops for name in COUNT_METRICS})
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }, separators=(",", ":")) + "\n", encoding="utf-8")
