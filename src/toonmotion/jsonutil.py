"""Canonical JSON output, JSONL record reading and atomic file writes.

Every JSON artifact this package emits (datasets, reports, face tracks,
manifests) goes through :func:`canonical_json` so repeated runs produce
byte-identical files: keys sorted, reals fixed at 6 decimals, UTF-8, no
platform-dependent float repr.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import MalformedEntry


def _encode(obj: Any, out: list[str]) -> None:
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, bool):  # pragma: no cover - caught above
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in JSON output: {obj!r}")
        out.append(f"{obj:.6f}")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    else:
        # numpy scalars and similar duck-typed numbers
        if hasattr(obj, "item"):
            _encode(obj.item(), out)
        else:
            raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Serialize *obj* deterministically: sorted keys, 6-decimal reals."""
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, object)`` for every non-blank line of a JSONL file.

    Line numbers are 1-based. Invalid JSON and lines that are not JSON
    objects raise :class:`MalformedEntry` carrying the line number.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedEntry(f"invalid JSON: {exc}", line=line_no) from exc
            if not isinstance(raw, dict):
                raise MalformedEntry("entry must be a JSON object", line=line_no)
            yield line_no, raw


def atomic_write_files(files: Iterable[tuple[str | Path, bytes]]) -> None:
    """Write each ``(path, data)`` pair so readers never observe a partial file.

    Every file is staged as a temporary next to its target first and all are
    renamed last; on failure the staged temporaries are removed.
    """
    staged: list[tuple[str, Path]] = []
    try:
        for path, data in files:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
            )
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write *data* to *path* via a temp file and rename."""
    atomic_write_files([(path, data)])


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
