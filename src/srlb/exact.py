"""The int64 contract and the resource budget.

Python integers never wrap, but every number this package emits (JSON
instances, CSV stats) must stay representable as a signed 64-bit value so
downstream consumers can rely on exact arithmetic too.  These helpers make
that envelope an explicit, testable contract, state the one rule for values
from outside (all_integers) and the one grammar for integers written as text
(integer), and alone turn rows into int64 tables or bound a table's columns.
charge alone refuses an instance as too large.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .errors import ArithmeticOverflow, InstanceTooLarge

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# Instances are capped well below the int64 envelope so that dot products
# normal . x with |normal_i| <= A and coordinates <= n/t cannot overflow.
MAX_POINTS = 1 << 32

# Bytes that one phase of gen, verify or bench may hold at its peak, and
# operations that one phase may spend.  Read only by charge.
MEMORY_BUDGET = 2**30
WORK_BUDGET = 10**9


def charge(what: str, amount: int, unit: str = "bytes") -> None:
    """Refuse `what` with InstanceTooLarge when `amount` is over its budget:
    bytes against MEMORY_BUDGET, any other unit against WORK_BUDGET.
    Callers charge a phase before they allocate for it."""
    budget = MEMORY_BUDGET if unit == "bytes" else WORK_BUDGET
    if amount > budget:
        raise InstanceTooLarge(f"{what} take up to {amount} {unit}, over the budget of {budget}")


def check_int64(value: int, what: str) -> int:
    """Return value unchanged, raising if it leaves the int64 envelope."""
    if value < INT64_MIN or value > INT64_MAX:
        raise ArithmeticOverflow(f"{what} = {value} exceeds the 64-bit safe envelope")
    return value


def checked_dot(coeffs: Iterable[int], values: Iterable[int], offset: int = 0) -> int:
    """Exact offset + sum(c_i * v_i) with an int64 envelope check.

    The check accumulates magnitudes, so it is safe even when terms cancel:
    a result is accepted only if no partial sum could have wrapped in a
    64-bit implementation.
    """
    total = offset
    magnitude = abs(offset)
    for term in map(mul, coeffs, values):
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
    if int(value).bit_length() <= k:  # 1 <= value < 2**k; never build 2**k
        return 1
    r = round(value ** (1.0 / k))
    while r > 0 and r**k > value:
        r -= 1
    while (r + 1) ** k <= value:
        r += 1
    return r


def integer(text: str, option: str = "") -> int:
    """text as an int when it is an optional '-' and then ASCII decimal digits,
    the one integer grammar of every option (int() also takes '+4', ' 7', '1_0'
    and non-ASCII digits).  argparse, as a type, names the option itself; other
    callers pass it for the ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts; echo only the first 40
            text = f"{text[:40]}..."
    raise ValueError(f"{option}: {text!r} is not an integer")


def all_integers(values: Iterable) -> bool:
    """The value rule for numbers from outside: each is an int or a numpy integer (not a bool)."""
    return all(issubclass(kind, np.integer) for kind in set(map(type, values)) - {int})


def int64_rows(rows: Sequence[Sequence[int]], width: int, what: str) -> np.ndarray:
    """rows as a (len(rows), width) int64 array of values that pass all_integers.

    Every row must be a list or tuple of exactly `width` values; a length
    check alone would pass the str "12" or a dict, whose keys it yields.
    """
    if not (
        isinstance(rows, (list, tuple))
        and all(issubclass(kind, (list, tuple)) for kind in set(map(type, rows)))
        and set(map(len, rows)) <= {width}
    ):
        raise ValueError(f"{what} must be a list of rows of {width} values")
    if not all_integers(chain.from_iterable(rows)):
        raise ValueError(f"every value of {what} must be an integer")
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * width)
    except OverflowError as exc:
        raise ArithmeticOverflow(f"{what} exceeds the 64-bit safe envelope") from exc
    return flat.reshape(len(rows), width)


def envelope(table: np.ndarray) -> list[int]:
    """Largest |entry| per column of an int64 table, as Python ints; 0 for no rows.

    Taken as max(-min, max) of each column of table.T reduced on its own from
    0, with no copy; as Python ints, |INT64_MIN| is 2**63 and does not wrap.
    """
    return [max(-int(column.min(initial=0)), int(column.max(initial=0))) for column in table.T]
