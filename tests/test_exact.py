import numpy as np
import pytest

from srlb.errors import ArithmeticOverflow
from srlb.exact import INT64_MAX, INT64_MIN, check_int64, checked_dot, envelope, int64_rows


class TestCheckedScalars:
    def test_check_int64_edges(self):
        assert check_int64(INT64_MIN, "x") == INT64_MIN
        assert check_int64(INT64_MAX, "x") == INT64_MAX
        for value in (INT64_MIN - 1, INT64_MAX + 1):
            with pytest.raises(ArithmeticOverflow):
                check_int64(value, "x")

    def test_checked_dot_bounds_magnitude_not_result(self):
        assert checked_dot((1, -1), (2**61, 2**61)) == 0
        with pytest.raises(ArithmeticOverflow):  # 2**62 + 2**62 wraps, though it cancels
            checked_dot((1, -1), (2**62, 2**62))


class TestInt64Rows:
    def test_values_coerced_as_int_does(self):
        table = int64_rows([("7", 2.5), [True, -3]], 2, "rows")
        assert table.dtype == np.int64
        assert table.tolist() == [[7, 2], [1, -3]]

    def test_empty_input(self):
        for rows in ([], ()):
            table = int64_rows(rows, 3, "rows")
            assert table.shape == (0, 3) and table.dtype == np.int64

    @pytest.mark.parametrize("rows", [[(1, 2), (3,)], [(1, 2), (3, 4, 5)], [()]])
    def test_ragged_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            int64_rows(rows, 2, "rows")

    @pytest.mark.parametrize(
        "rows",
        [["12"], [b"12"], [{"1": 0, "2": 0}], [5], [[[1], [2]]], [(1, None)], "12", 5, None],
        ids=["str", "bytes", "dict", "scalar", "nested", "none", "str_section",
             "scalar_section", "none_section"],
    )
    def test_malformed_rows_are_value_errors(self, rows):
        with pytest.raises(ValueError):
            int64_rows(rows, 2, "rows")

    def test_int64_edges_load_exactly(self):
        table = int64_rows([(INT64_MIN, INT64_MAX)], 2, "rows")
        assert table.tolist() == [[INT64_MIN, INT64_MAX]]

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, float("inf"), str(2**63)])
    def test_value_outside_int64_is_arithmetic_overflow(self, value):
        with pytest.raises(ArithmeticOverflow, match="64-bit"):
            int64_rows([(1, value)], 2, "rows")


class TestEnvelope:
    def test_largest_magnitude_per_column(self):
        assert envelope(np.array([[3, -7], [-4, 2]], dtype=np.int64)) == [4, 7]

    def test_int64_min_reads_two_to_the_63(self):
        table = np.array([[INT64_MIN, INT64_MAX], [0, 0]], dtype=np.int64)
        bounds = envelope(table)
        assert bounds == [2**63, INT64_MAX]
        assert all(type(b) is int for b in bounds)
