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

    def test_checked_dot_overflow_text_on_an_iterator(self):
        # _check_envelope passes map(abs, normal), which can be read only once.
        magnitude = 3 * 2**62
        with pytest.raises(ArithmeticOverflow) as raised:
            checked_dot(map(abs, (-1, 2)), iter((2**62, 2**62)))
        assert str(raised.value) == (
            f"dot product magnitude {magnitude} exceeds the 64-bit safe envelope"
        )
        assert checked_dot(map(abs, (-3, 2)), iter((5, 7)), 4) == 33


class TestInt64Rows:
    def test_non_integer_values_are_refused(self):
        # int() would take each of these: "7" as 7, 2.5 as 2, True as 1.
        for value in ("7", " 7", "+4", "1_000", 2.5, 1.0, np.float64(3), True, np.bool_(True)):
            with pytest.raises(ValueError, match="^every value of rows must be an integer$"):
                int64_rows([(1, 2), [3, value]], 2, "rows")

    def test_numpy_integers_are_integers(self):
        table = int64_rows([(np.int32(-5), np.uint64(7)), [np.int64(INT64_MAX), 3]], 2, "rows")
        assert table.dtype == np.int64
        assert table.tolist() == [[-5, 7], [INT64_MAX, 3]]

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
        [["12"], [b"12"], [{"1": 0, "2": 0}], [5], [[[1], [2]]], [(1, None)], "12", 5, None,
         [(1, float("inf"))], [(1, str(2**63))]],
        ids=["str", "bytes", "dict", "scalar", "nested", "none", "str_section",
             "scalar_section", "none_section", "inf", "str_beyond_int64"],
    )
    def test_malformed_rows_are_value_errors(self, rows):
        with pytest.raises(ValueError):
            int64_rows(rows, 2, "rows")

    def test_int64_edges_load_exactly(self):
        table = int64_rows([(INT64_MIN, INT64_MAX)], 2, "rows")
        assert table.tolist() == [[INT64_MIN, INT64_MAX]]

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, np.uint64(2**63)])
    def test_value_outside_int64_is_arithmetic_overflow(self, value):
        with pytest.raises(ArithmeticOverflow, match="64-bit"):
            int64_rows([(1, value)], 2, "rows")


class TestEnvelope:
    def test_largest_magnitude_per_column(self):
        assert envelope(np.array([[3, -7], [-4, 2]], dtype=np.int64)) == [4, 7]
        # One-signed columns: the reductions start at 0, which never wins.
        assert envelope(np.array([[3, -7], [5, -2]], dtype=np.int64)) == [5, 7]

    def test_no_rows_read_zero(self):
        assert envelope(np.zeros((0, 3), dtype=np.int64)) == [0, 0, 0]

    def test_int64_min_reads_two_to_the_63(self):
        table = np.array([[INT64_MIN, INT64_MAX], [0, 0]], dtype=np.int64)
        bounds = envelope(table)
        assert bounds == [2**63, INT64_MAX]
        assert all(type(b) is int for b in bounds)

    def test_non_contiguous_view(self):
        # The loader hands the family its slopes as table[:, :-1], a strided view.
        rng = np.random.default_rng(5)
        table = rng.integers(-1000, 1000, (200, 4))
        table[17, 2] = INT64_MIN
        view = table[:, :-1]
        assert not view.flags.c_contiguous
        expected = [max(abs(v) for v in column) for column in zip(*view.tolist())]
        assert envelope(view) == expected and expected[2] == 2**63

    def test_sixty_three_columns(self):
        table = np.arange(-63 * 5, 0, dtype=np.int64).reshape(5, 63)
        table[:, ::2] *= -1
        assert envelope(table) == [max(abs(v) for v in column) for column in table.T.tolist()]
        assert envelope(table[:0]) == [0] * 63
