"""canonical_json float tables, the JSON and JSONL readers and the field
reader."""

import errno
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toonmotion.errors import MalformedEntry, ValidationError
from toonmotion.jsonutil import (
    FORMAT_BLOCK_ROWS,
    TEXT_BREAKS,
    atomic_write_files,
    canonical_json,
    iter_jsonl,
    json_value,
    line_col,
    read_json,
)

from conftest import awkward_floats


class TestFloatTables:
    @given(
        st.one_of(st.sampled_from([0, 1, FORMAT_BLOCK_ROWS, FORMAT_BLOCK_ROWS + 1,
                                   2 * FORMAT_BLOCK_ROWS + 1]),
                  st.integers(min_value=0, max_value=700)),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_array_encodes_like_its_list(self, rows, cols, seed):
        table = awkward_floats(np.random.default_rng(seed), (rows, cols), 1e5)
        assert canonical_json(table) == canonical_json(table.tolist())

    @pytest.mark.parametrize("table", [
        np.array([[-0.0, 0.0], [-1e-9, 1e-9]]),
        np.zeros((0, 30)),
        np.zeros((3, 0)),
        np.array([[0.5], [-0.0000005], [2.0]]),
        np.arange(12, dtype=np.float32).reshape(3, 4) / 7,
    ], ids=["negative-zero", "zero-rows", "zero-columns", "one-column", "float32"])
    def test_edge_shapes_encode_like_their_list(self, table):
        assert canonical_json(table) == canonical_json(table.tolist())

    def test_array_nested_in_dict(self):
        table = awkward_floats(np.random.default_rng(3), (300, 5), 1e5)
        obj = {"b": table, "a": [table, {"c": table}], "fps": 30.0}
        listed = {"b": table.tolist(), "a": [table.tolist(), {"c": table.tolist()}],
                  "fps": 30.0}
        assert canonical_json(obj) == canonical_json(listed)

    def test_negative_zero_prints_signed(self):
        assert canonical_json(np.array([[-0.0, 0.0]])) == "[[-0.000000,0.000000]]"


class TestUnencodable:
    def test_non_string_key(self):
        with pytest.raises(TypeError, match="keys must be str, got int"):
            canonical_json({"a": {1: "one"}})

    @pytest.mark.parametrize("value", [{1, 2}, np.float32(0.5)], ids=["set", "float32"])
    def test_object_of_no_json_kind(self, value):
        with pytest.raises(TypeError, match="cannot canonicalize"):
            canonical_json([value])


class TestNonFiniteTables:
    @given(
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_error_as_list_path(self, rows, cols, bad, seed):
        rng = np.random.default_rng(seed)
        table = rng.random((rows, cols))
        n_bad = int(rng.integers(1, 4))
        table.flat[rng.integers(0, table.size, size=n_bad)] = bad
        with pytest.raises(ValueError) as from_list:
            canonical_json({"frames": table.tolist()})
        with pytest.raises(ValueError) as from_array:
            canonical_json({"frames": table})
        assert str(from_array.value) == str(from_list.value)
        assert str(from_array.value).startswith("non-finite float in JSON output: ")

    def test_first_non_finite_in_row_order_is_named(self):
        table = np.zeros((300, 3))
        table[280, 0] = -np.inf
        table[2, 2] = np.nan
        with pytest.raises(ValueError, match=r"JSON output: nan$"):
            canonical_json(table)


class TestReaders:
    def test_jsonl_splits_lines_as_a_text_file_does(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes('{"a": "x\u2028y"}\r\n\n{"a": 2}\r{"a": 3}'.encode("utf-8"))
        assert list(iter_jsonl(path)) == [
            (1, {"a": "x\u2028y"}), (3, {"a": 2}), (4, {"a": 3}),
        ]

    def test_jsonl_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
        with pytest.raises(MalformedEntry, match="invalid UTF-8 byte 0xff") as info:
            list(iter_jsonl(path))
        assert info.value.line == 2

    @pytest.mark.parametrize("data,message", [
        (b'{"a": \n  [1,', "line 2, col 6: invalid JSON"),
        (b'{"a":\n "\xff"}', "line 2, col 3: invalid UTF-8 byte 0xff"),
    ])
    def test_json_errors_name_file_and_position(self, tmp_path, data, message):
        path = tmp_path / "d.json"
        path.write_bytes(data)
        with pytest.raises(ValidationError, match=message) as info:
            read_json(path)
        assert str(info.value).startswith(f"{path}: ")


def fault_position(read, path, data: bytes) -> tuple[int, int]:
    """The line and column of the error *read* raises for a file of *data*."""
    path.write_bytes(data)
    with pytest.raises(ValidationError) as info:
        read(path)
    return info.value.line, info.value.column


def read_jsonl(path):
    return list(iter_jsonl(path))


# The breaks a text-mode file splits on, and line separators that it does not.
TEXT_FILE_BREAKS = ["\n", "\r\n", "\r"]
OTHER_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# An undecodable byte and a syntax error, each put at the same spot.
FAULTS = [b"\xff", b"oops"]


class TestLineRules:
    """Each reader numbers every fault by the breaks it splits lines on, so
    an undecodable byte and a syntax error at one spot get one position."""

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("brk", TEXT_FILE_BREAKS)
    def test_json_counts_text_breaks(self, tmp_path, brk, fault):
        data = f"[1,{brk}  ".encode() + fault + b"]"
        assert fault_position(read_json, tmp_path / "d.json", data) == (2, 3)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029"])
    def test_json_string_separator_is_no_break(self, tmp_path, sep, fault):
        data = f'["{sep}", '.encode() + fault + b"]"
        assert fault_position(read_json, tmp_path / "d.json", data) == (1, 7)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("brk", TEXT_FILE_BREAKS)
    def test_jsonl_counts_text_breaks_and_indents(self, tmp_path, brk, fault):
        data = f'{{"a": 1}}{brk}  {{"b": '.encode() + fault + b"}\n"
        assert fault_position(read_jsonl, tmp_path / "d.jsonl", data) == (2, 9)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("sep", OTHER_SEPARATORS)
    def test_jsonl_trailing_separator_is_no_break(self, tmp_path, sep, fault):
        data = f'{{"a": 1}}{sep}\n{{"b": '.encode() + fault + b"}\n"
        assert fault_position(read_jsonl, tmp_path / "d.jsonl", data) == (2, 7)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029"])
    def test_jsonl_string_separator_is_no_break(self, tmp_path, sep, fault):
        data = f'{{"a": 1}}\n{{"s": "{sep}", "b": '.encode() + fault + b"}\n"
        assert fault_position(read_jsonl, tmp_path / "d.jsonl", data) == (2, 17)

    def test_jsonl_fault_has_the_one_shape(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"a": 1}\f\n{"b": "\xff"}\n')
        with pytest.raises(MalformedEntry) as info:
            read_jsonl(path)
        assert str(info.value) == f"{path}: line 2, col 8: invalid UTF-8 byte 0xff"
        path.write_bytes(b'{"a": 1}\n{"b": oops}\n')
        with pytest.raises(MalformedEntry) as info:
            read_jsonl(path)
        assert str(info.value) == f"{path}: line 2, col 7: invalid JSON: Expecting value"

    def test_line_col_counts_from_the_physical_line(self):
        text = "ab\r\ncd\refg\nh"
        positions = [line_col(text, text.index(ch), TEXT_BREAKS) for ch in "acegh"]
        assert [(p["line"], p["column"]) for p in positions] == [
            (1, 1), (2, 1), (3, 1), (3, 3), (4, 1)]


class TestFieldReader:
    @pytest.mark.parametrize("value, kind, expected", [
        ("a", str, "a"), (True, bool, True), (False, bool, False), (3, int, 3),
        (-(10**30), int, -(10**30)), (3, float, 3.0), (0.5, float, 0.5),
        ([1], list, [1]), ({"a": 1}, dict, {"a": 1}),
    ])
    def test_accepts_its_kind(self, value, kind, expected):
        result = json_value(value, kind, "x", ValidationError)
        assert result == expected and type(result) is type(expected)

    @pytest.mark.parametrize("value, kind, got", [
        (True, int, "true"), (False, float, "false"), (1, bool, "1"),
        ("0.5", float, "a string"), (2.7, int, "2.7"), (2.0, int, "2.0"),
        (5, str, "5"), ([1], str, "an array"), ({}, list, "an object"),
        (None, float, "null"), ("a", dict, "a string"),
    ])
    def test_rejects_any_other_value(self, value, kind, got):
        with pytest.raises(ValidationError) as info:
            json_value(value, kind, "field 'x'", ValidationError)
        assert str(info.value).startswith("field 'x' must be ")
        assert str(info.value).endswith(f", not {got}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(ValidationError, match="^x is non-finite: "):
            json_value(value, float, "x", ValidationError)

    def test_null_only_when_nullable(self):
        assert json_value(None, str, "x", ValidationError, nullable=True) is None
        with pytest.raises(ValidationError, match="must be a string or null, not 5$"):
            json_value(5, str, "x", ValidationError, nullable=True)

    def test_caller_builds_the_error(self):
        def error(message):
            return MalformedEntry(message, line=7, field="x")

        with pytest.raises(MalformedEntry) as info:
            json_value("1", int, "field 'x'", error)
        assert (info.value.line, info.value.field) == (7, "x")
        assert str(info.value) == (
            "line 7: field 'x' must be an integer, not a string (field: x)")


def test_failed_cleanup_keeps_the_original_error(tmp_path, monkeypatch):
    def fail(what):
        def failing(*args):
            raise OSError(errno.EIO, f"{what} failed")
        return failing

    monkeypatch.setattr(os, "replace", fail("rename"))
    monkeypatch.setattr(os, "unlink", fail("unlink"))
    with pytest.raises(OSError, match="rename failed"):
        atomic_write_files([(tmp_path / "a", b"1"), (tmp_path / "b", b"2")])
    monkeypatch.undo()
    staged = sorted(path.name[:3] for path in tmp_path.iterdir())
    assert staged == [".a.", ".b."]
