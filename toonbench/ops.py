"""One benchmark operation per workload, through the package's public API.

Each function mirrors its CLI command: from the config or source directory
on disk to the files on disk. Package functions are looked up on their
modules at call time, so the traced mode's wrappers are the ones called.
"""

from __future__ import annotations

from pathlib import Path

from toonmotion import expression_dataset, jsonutil, pipeline, providers


def synthesize(config_path: str, request: dict, out_dir: Path) -> None:
    """``toonmotion synthesize``: load the config, synthesize, write the bundle."""
    config = pipeline.load_config(config_path)
    phonemes = request["phonemes"]
    dialogue = pipeline.DialogueRequest(
        text=request["text"],
        speech_duration_s=request["duration"],
        phoneme_file=Path(phonemes) if phonemes else None,
        seed=request["seed"],
    )
    pipeline.synthesize(dialogue, config, out_dir=out_dir)


def build_expressions(sources_dir: str, out_path: Path, report_path: Path) -> None:
    """``toonmotion build-expressions`` with the lexicon provider and the
    packaged categories."""
    provider = providers.LexiconEmotionProvider()
    categories = providers.load_emotion_categories()
    _, report = expression_dataset.build_dataset(
        sources_dir, provider, out_path=out_path, categories=categories
    )
    jsonutil.atomic_write_text(
        report_path, jsonutil.canonical_json(report.to_json_dict()) + "\n"
    )


def run(workload: str, inputs: dict, request: dict, out_dir: Path) -> None:
    """One operation of *workload*; *inputs* holds the generated config
    path or source directory."""
    if workload == "build_expressions":
        build_expressions(inputs["sources_dir"], out_dir / "expressions.jsonl",
                          out_dir / "report.json")
    else:
        synthesize(inputs["config"], request, out_dir)
