"""Canonical JSON output, JSON and JSONL reading, JSON field checks and
atomic file writes.

Every JSON artifact this package emits (datasets, reports, face tracks,
manifests) goes through :func:`canonical_json` so repeated runs produce
byte-identical files: keys sorted, reals fixed at 6 decimals, UTF-8, no
platform-dependent float repr. :func:`format_float_blocks` prints float
tables in that same 6-decimal form, a block of rows at a time, for the
face-track frames here and the BVH motion rows. It builds each value from
lookup words made once at import (sign and integer part, ``"."`` and three
decimals, three decimals and a separator byte) indexed by the value scaled
to an integer number of millionths, with no Python call per value, and
deletes their NUL padding with ``bytes.translate``. A block with a value
that may round differently from ``"%.6f"`` (within a guard band of a
half-millionth tie) or that needs four or more integer digits is printed
by ``"%.6f" %`` instead, which stays the oracle of the word path.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .errors import MalformedEntry, ValidationError

# Rows formatted per block: for a 60-joint BVH table (183 values a row) a
# block's lookup words take about 0.55 MiB and its fallback's argument tuple
# a few MiB.
FORMAT_BLOCK_ROWS = 256


def _words(texts: Iterable[str]) -> np.ndarray:
    """The little-endian uint32 words of 4-character ASCII texts."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype="<u4")


# Lookup words of the "%.6f" fast path, NUL-padded. _SIGN_INT[i] is the
# integer part 0..999 right-aligned, with a minus sign at i + 1000;
# _DOT_HIGH[i] is "." and the first three decimals; _LOW[i] is the last
# three decimals and a NUL byte left for the field separator.
_SIGN_INT = _words(f"{sign}{i}".rjust(4, "\0") for sign in ("", "-") for i in range(1000))
_DOT_HIGH = _words(f".{i:03d}" for i in range(1000))
_LOW = _words(f"{i:03d}\0" for i in range(1000))

# x * 1e6 is off the exact product by at most 2**-53 of it, so rint of its
# size is the correctly rounded 6-decimal value unless that size lies within
# _TIE_BAND of itself from a half-integer.
_TIE_BAND = 2.3e-16


def _padded_words(text: bytes, count: int) -> np.ndarray:
    return np.frombuffer(text.rjust(4 * count, b"\0"), dtype="<u4")


def _word_layout(cols: int, field_sep: str, row_sep: str, row_open: str,
                 row_close: str) -> tuple[np.ndarray, ...] | None:
    """The separator words of a row of *cols* values (per-column separator
    bytes, opening words, closing words and the last row's closing words),
    or None for a row with no values."""
    seps = (field_sep, row_sep, row_open, row_close)
    assert len(field_sep) == 1 and all(
        len(s) <= 1 and s.isascii() and s not in ("\0", "%") for s in seps), seps
    if cols == 0:
        return None
    field_seps = np.full(cols, ord(field_sep) << 24, dtype="<u4")
    field_seps[-1] = 0
    opening, closing, last = (s.encode("ascii") for s in (
        row_open, row_close + row_sep, row_close))
    return (field_seps, _padded_words(opening, len(opening)),
            _padded_words(closing, 1), _padded_words(last, 1))


def _format_block(block: np.ndarray, field_seps: np.ndarray, open_words: np.ndarray,
                  close_words: np.ndarray, last_close_words: np.ndarray) -> bytes | None:
    """The block's text from lookup words, or None when a value prints
    with more than three integer digits or lies near a rounding tie."""
    x = np.asarray(block, dtype=np.float64)
    with np.errstate(over="ignore"):
        a = np.abs(x * 1e6)
    k = np.rint(a)
    if not (k < 1e9).all() or (0.5 - np.abs(a - k) <= a * _TIE_BAND).any():
        return None
    low = k.astype(np.uint32)
    high = low // 1000
    low -= high * 1000
    whole = high // 1000
    high -= whole * 1000
    start, end = open_words.size, open_words.size + 3 * x.shape[1]
    words = np.empty((x.shape[0], end + close_words.size), dtype="<u4")
    words[:, :start] = open_words
    words[:, start:end:3] = _SIGN_INT[whole + 1000 * np.signbit(x)]
    words[:, start + 1:end:3] = _DOT_HIGH[high]
    words[:, start + 2:end:3] = _LOW[low] | field_seps
    words[:, end:] = close_words
    words[-1, end:] = last_close_words
    return words.tobytes().translate(None, b"\0")


def format_float_blocks(table: np.ndarray, field_sep: str, row_sep: str,
                        row_open: str = "", row_close: str = "") -> Iterator[bytes]:
    """Yield the rows of a 2-D float array as ASCII text, FORMAT_BLOCK_ROWS
    rows per bytes object.

    Each value prints as ``"%.6f" % v`` does; fields are joined by
    *field_sep*, each row is wrapped in *row_open*/*row_close* and rows
    within a block are joined by *row_sep*. Joining the blocks with
    *row_sep* gives the whole table. Each separator is at most one ASCII
    character (*field_sep* exactly one), neither NUL nor ``%``.

    A block is assembled from little-endian uint32 lookup words, with no
    Python call per value: per value, from ``k = rint(|v| * 1e6)`` and the
    sign bit of ``v``, the sign and integer part, ``"."`` and three
    decimals, and three decimals with the field separator; per row, words
    for *row_open* and for *row_close* + *row_sep*. One ``bytes.translate``
    then deletes the NUL bytes that pad the words. A block falls back to one
    ``%`` operation, the oracle of the fast path, when some ``|k|`` reaches
    10**9 (four or more integer digits, or a non-finite value) or some
    ``|v| * 1e6`` lies within ``_TIE_BAND`` of itself from a half-integer,
    where its rint may differ from the decimal rounding. So does every block
    of a table with no columns.
    """
    cols = table.shape[1]
    layout = _word_layout(cols, field_sep, row_sep, row_open, row_close)
    row = row_open + field_sep.join(["%.6f"] * cols) + row_close
    for start in range(0, table.shape[0], FORMAT_BLOCK_ROWS):
        block = table[start:start + FORMAT_BLOCK_ROWS]
        text = _format_block(block, *layout) if layout else None
        if text is None:
            rows = row_sep.join([row] * block.shape[0])
            text = (rows % tuple(block.ravel().tolist())).encode("ascii")
        yield text


def _non_finite(value: float) -> ValueError:
    return ValueError(f"non-finite float in JSON output: {value!r}")


def _encode_float_table(table: np.ndarray, out: list[str]) -> None:
    finite = np.isfinite(table)
    if not finite.all():
        raise _non_finite(float(table[~finite][0]))
    out.append("[")
    out.append(b",".join(format_float_blocks(table, ",", ",", "[", "]")).decode("ascii"))
    out.append("]")


_FLOAT = frozenset([float])
_STR = frozenset([str])


@functools.lru_cache(maxsize=4096)
def _float_field(key: str) -> str:
    """``"key":%.6f`` with *key* as canonical JSON, its ``%`` escaped."""
    return json.dumps(key, ensure_ascii=False).replace("%", "%%") + ":%.6f"


def _encode_float_map(keys: list[str], values: list[float], out: list[str]) -> None:
    """An object whose keys are exactly str and values exactly float, in one
    ``%`` operation: the same text as the general path, member by member."""
    if not all(map(math.isfinite, values)):
        raise _non_finite(next(v for v in values if not math.isfinite(v)))
    out.append(("{" + ",".join(map(_float_field, keys)) + "}") % tuple(values))


def _encode(obj: Any, out: list[str]) -> None:
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise _non_finite(obj)
        out.append(f"{obj:.6f}")
    elif isinstance(obj, dict):
        keys = sorted(obj)
        values = [obj[key] for key in keys]
        if (values and _FLOAT.issuperset(map(type, values))
                and _STR.issuperset(map(type, keys))):
            _encode_float_map(keys, values, out)
            return
        out.append("{")
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _encode(values[i], out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f":
        _encode_float_table(obj, out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Serialize *obj* deterministically: sorted keys, 6-decimal reals."""
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


# The line breaks of a text-mode file, which number the lines of JSON and
# JSONL inputs.
TEXT_BREAKS = re.compile("\r\n|[\r\n]")


def line_col(text: str, offset: int, breaks: re.Pattern) -> dict[str, int]:
    """The 1-based ``line`` and ``column`` of *offset* in *text*, lines split
    on *breaks*, as the keyword arguments of a ValidationError."""
    line, line_start = 1, 0
    for brk in breaks.finditer(text, 0, offset):
        line, line_start = line + 1, brk.end()
    return {"line": line, "column": offset - line_start + 1}


def decode_utf8(data: bytes, error: Callable[..., Exception],
                breaks: re.Pattern) -> str:
    """Decode *data* as UTF-8; an invalid byte raises *error* at its line
    and column, lines split on *breaks*."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        text = data[:exc.start].decode("utf-8")
        raise error(f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                    **line_col(text, len(text), breaks)) from None


# A JSON string or number. json.loads raises a plain ValueError, without a
# position, for an integer literal of more than sys.get_int_max_str_digits()
# digits; _json_fault finds it by skipping strings as the decoder does.
_STRING_OR_NUMBER = re.compile(
    r'"(?:[^"\\]|\\.)*"|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?')


def _json_fault(text: str, exc: ValueError) -> tuple[str, int]:
    """Message and offset of the fault that ``json.loads(text)`` raised
    *exc* for: invalid JSON or an integer literal too long for ``int``."""
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON: {exc.msg}", exc.pos
    limit = sys.get_int_max_str_digits()
    pos = 0
    for match in _STRING_OR_NUMBER.finditer(text):
        digits, fraction, exponent = match.groups()
        if digits and not fraction and not exponent and len(digits) > limit:
            pos = match.start()
            break
    return f"integer longer than {limit} digits", pos


def read_json(path: str | Path, error: type[ValidationError] = ValidationError) -> Any:
    """Parse a UTF-8 JSON file.

    An undecodable byte, invalid JSON or an integer too long to convert
    raises *error* naming the file and the line and column.
    """
    error = functools.partial(error, file=path)
    text = decode_utf8(Path(path).read_bytes(), error, TEXT_BREAKS)
    try:
        return json.loads(text)
    except ValueError as exc:
        message, pos = _json_fault(text, exc)
        raise error(message, **line_col(text, pos, TEXT_BREAKS)) from None


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, object)`` for every non-blank line of a JSONL file.

    Line numbers are 1-based and lines split as a text-mode file splits
    them. Undecodable bytes, invalid JSON, integers too long to convert and
    lines that are not JSON objects raise :class:`MalformedEntry` naming the
    file and line.
    """
    error = functools.partial(MalformedEntry, file=path)
    text = decode_utf8(Path(path).read_bytes(), error, TEXT_BREAKS)
    line_start = 0  # offset of the line in text
    for line_no, line in enumerate(io.StringIO(text, newline=""), start=1):
        record = line.strip()
        if record:
            try:
                raw = json.loads(record)
            except ValueError as exc:
                message, pos = _json_fault(record, exc)
                pos += line_start + len(line) - len(line.lstrip())
                raise error(message, **line_col(text, pos, TEXT_BREAKS)) from None
            if not isinstance(raw, dict):
                raise error("entry must be a JSON object", line=line_no)
            yield line_no, raw
        line_start += len(line)


_FLOAT_MAX = sys.float_info.max
_KINDS = {str: "a string", bool: "a boolean", int: "an integer", float: "a number",
          list: "an array", dict: "an object"}


def json_value(value: Any, kind: type, what: str,
               error: Callable[[str], Exception], *, nullable: bool = False) -> Any:
    """Return the decoded JSON *value* if it is a *kind*, or None with
    *nullable*; else raise ``error(message)``, the message starting with *what*.

    The kinds are ``str``, ``bool``, ``int`` (a JSON integer), ``float`` (a
    JSON number: a finite integer or real, returned as a float), ``list`` and
    ``dict``. A boolean is only a ``bool``, never an ``int`` or ``float``.
    """
    if type(value) is kind:  # exact, as JSON decodes: True is not an int here
        if kind is not float or math.isfinite(value):
            return value
    elif kind is float and type(value) is int:
        if abs(value) <= _FLOAT_MAX:
            return float(value)
    elif value is None and nullable:
        return None
    else:
        scalar = value is None or isinstance(value, (bool, int, float))
        got = json.dumps(value) if scalar else _KINDS.get(type(value), "another type")
        raise error(f"{what} must be {_KINDS[kind]}{' or null' * nullable}, not {got}")
    raise error(f"{what} is non-finite: {value!r}")


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


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write *text* to *path* as UTF-8 via a temp file and rename."""
    atomic_write_files([(path, text.encode("utf-8"))])
