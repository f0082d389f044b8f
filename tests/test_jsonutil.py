"""canonical_json: float tables encode exactly as their nested-list form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toonmotion.jsonutil import FORMAT_BLOCK_ROWS, canonical_json

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
