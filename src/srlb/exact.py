"""The int64 contract: checked scalars, row conversion, column envelope.

Python integers never wrap, but every number this package emits (JSON
instances, CSV stats) must stay representable as a signed 64-bit value so
downstream consumers can rely on exact arithmetic too.  These helpers make
that envelope an explicit, testable contract, and they are the only code
that turns rows into int64 tables or bounds a table's columns.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .errors import ArithmeticOverflow

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# Instances are capped well below the int64 envelope so that dot products
# normal . x with |normal_i| <= A and coordinates <= n/t cannot overflow.
MAX_POINTS = 1 << 32


def check_int64(value: int, what: str) -> int:
    """Return value unchanged, raising if it leaves the int64 envelope."""
    if value < INT64_MIN or value > INT64_MAX:
        raise ArithmeticOverflow(f"{what} = {value} exceeds the 64-bit safe envelope")
    return value


def checked_dot(coeffs: Sequence[int], values: Sequence[int], offset: int = 0) -> int:
    """Exact offset + sum(c_i * v_i) with an int64 envelope check.

    The check accumulates magnitudes, so it is safe even when terms cancel:
    a result is accepted only if no partial sum could have wrapped in a
    64-bit implementation.
    """
    total = offset
    magnitude = abs(offset)
    for c, v in zip(coeffs, values):
        term = c * v
        total += term
        magnitude += abs(term)
    if magnitude > INT64_MAX:
        raise ArithmeticOverflow(
            f"dot product magnitude {magnitude} exceeds the 64-bit safe envelope"
        )
    return total


def iroot(value: int, k: int) -> int:
    """Largest integer r >= 0 with r**k <= value (exact, no float error)."""
    if value < 0 or k < 1:
        raise ValueError(f"iroot requires value >= 0 and k >= 1, got ({value}, {k})")
    if value in (0, 1) or k == 1:
        return value
    r = round(value ** (1.0 / k))
    while r > 0 and r**k > value:
        r -= 1
    while (r + 1) ** k <= value:
        r += 1
    return r


def as_int64_array(values, what: str) -> np.ndarray:
    """np.asarray(..., dtype=int64) with overflow surfaced as ArithmeticOverflow."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError as exc:
        raise ArithmeticOverflow(f"{what} exceeds the 64-bit safe envelope") from exc


def int64_rows(rows: Sequence[Sequence[int]], width: int, what: str) -> np.ndarray:
    """rows as a (len(rows), width) int64 array, each value coerced as int() does.

    Every row must be a list or tuple of exactly `width` values; a length
    check alone would pass the str "12" or a dict, whose keys it yields.
    """
    if not (
        isinstance(rows, (list, tuple))
        and all(issubclass(kind, (list, tuple)) for kind in set(map(type, rows)))
        and set(map(len, rows)) <= {width}
    ):
        raise ValueError(f"{what} must be a list of rows of {width} values")
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * width)
    except OverflowError as exc:
        raise ArithmeticOverflow(f"{what} exceeds the 64-bit safe envelope") from exc
    except TypeError as exc:  # a nested or otherwise non-numeric value
        raise ValueError(f"every value of {what} must be an integer") from exc
    return flat.reshape(len(rows), width)


def envelope(table: np.ndarray) -> list[int]:
    """Largest |entry| per column of a non-empty int64 table, as Python ints.

    np.abs wraps INT64_MIN onto itself, whose bits read 2**63 as uint64.
    """
    return np.abs(table).view(np.uint64).max(axis=0).tolist()
