"""Command-line interface.

Exit codes: 0 success, 1 validation/data errors, 2 provider or I/O errors,
64 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import random
import sys
from pathlib import Path

from . import __version__
from .errors import ProviderError, ValidationError
from .expression_dataset import (
    annotate_emotion,
    build_dataset,
    check_expression_records,
    write_expression_dataset,
)
from .gesture_retrieval import load_gesture_dataset, retrieve_text
from .jsonutil import atomic_write_text, canonical_json
from .pipeline import (
    DialogueRequest,
    check_text_and_seed,
    load_config,
    load_gesture_library,
    provider_clients,
    synthesize,
)
from .providers import LexiconEmotionProvider, ReferenceEmbedder, load_emotion_categories

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> _Parser:
    parser = _Parser(prog="toonmotion",
                     description="Gesture and face animation synthesis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synthesize", help="produce a BVH + face track bundle")
    p.add_argument("--text", required=True, help="dialogue text")
    p.add_argument("--duration", required=True, type=float,
                   help="speech duration in seconds")
    p.add_argument("--phonemes", type=Path, default=None,
                   help="timed phoneme JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output directory")

    p = sub.add_parser("build-expressions",
                       help="fuse source fixtures into an expression dataset")
    p.add_argument("--sources", required=True, type=Path,
                   help="directory of per-image JSON fixtures")
    p.add_argument("--out", required=True, type=Path, help="output JSONL path")
    p.add_argument("--report", type=Path, default=None,
                   help="where to write the build report JSON")
    p.add_argument("--config", type=Path, default=None)

    p = sub.add_parser("annotate-emotions",
                       help="recompute emotion vectors for a dataset")
    p.add_argument("--dataset", required=True, type=Path,
                   help="expression JSONL to annotate")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--config", type=Path, default=None)

    p = sub.add_parser("validate-dataset", help="check a dataset file")
    p.add_argument("--kind", required=True, choices=("gesture", "expression"))
    p.add_argument("--path", required=True, type=Path)

    p = sub.add_parser("retrieve",
                       help="debug dump of per-phrase gesture matches")
    p.add_argument("--text", required=True)
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=None)
    return parser


def _emotion_annotator(config_path: Path | None):
    """Emotion provider and category list of the config, or the offline
    lexicon and the packaged categories without one."""
    if config_path is None:
        return LexiconEmotionProvider(), load_emotion_categories(None)
    config = load_config(config_path)
    _, emotion = provider_clients(config)
    return emotion, load_emotion_categories(config.emotion_categories)


def _cmd_synthesize(args) -> int:
    config = load_config(args.config)
    request = DialogueRequest(
        text=args.text,
        speech_duration_s=args.duration,
        phoneme_file=args.phonemes,
        seed=args.seed,
    )
    synthesize(request, config, out_dir=args.out)
    print(f"bundle written to {args.out}")
    return 0


def _cmd_build_expressions(args) -> int:
    provider, categories = _emotion_annotator(args.config)
    _, report = build_dataset(
        args.sources, provider, out_path=args.out, categories=categories
    )
    report_json = canonical_json(report.to_json_dict())
    if args.report is not None:
        atomic_write_text(args.report, report_json + "\n")
    print(report_json)
    return 0


def _cmd_annotate_emotions(args) -> int:
    provider, categories = _emotion_annotator(args.config)
    categories = frozenset(categories)
    # Violations are not checked: the emotions are about to be replaced.
    entries = [
        entry for _, entry, _ in check_expression_records(args.dataset, categories)
    ]
    for entry in entries:
        annotate_emotion(entry, provider, categories)
    entries.sort(key=lambda e: e.id)
    write_expression_dataset(args.out, entries)
    print(f"annotated {len(entries)} entries")
    return 0


def _cmd_validate_dataset(args) -> int:
    if args.kind == "gesture":
        load_gesture_dataset(args.path, ReferenceEmbedder())
        print(canonical_json({"violations": []}))
        return 0
    violations = [
        f"{entry.id}: {issue}"
        for _, entry, issues in check_expression_records(
            args.path, load_emotion_categories()
        )
        for issue in issues
    ]
    print(canonical_json({"violations": violations}))
    return 0 if not violations else 1


def _cmd_retrieve(args) -> int:
    config = load_config(args.config)
    if args.threshold is not None:
        config = dataclasses.replace(config, similarity_threshold=args.threshold)
        config.validate()
    check_text_and_seed(args.text, args.seed)
    embedder, _ = provider_clients(config)
    dataset = load_gesture_library(config, embedder)
    threshold = config.similarity_threshold
    phrases, matches = retrieve_text(
        args.text, dataset, threshold, random.Random(args.seed)
    )
    print(
        canonical_json(
            {
                "text": args.text,
                "threshold": threshold,
                "matches": [
                    {
                        "phrase": phrase.text,
                        "ordinal": match.phrase_ordinal,
                        "entry_id": match.entry.id,
                        "similarity": match.similarity,
                        "fallback": match.fallback,
                    }
                    for phrase, match in zip(phrases, matches)
                ],
            }
        )
    )
    return 0


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "build-expressions": _cmd_build_expressions,
    "annotate-emotions": _cmd_annotate_emotions,
    "validate-dataset": _cmd_validate_dataset,
    "retrieve": _cmd_retrieve,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
