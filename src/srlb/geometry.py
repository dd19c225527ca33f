"""Grid / hyperplane family construction with exact integer arithmetic.

The instance family lives on the integer grid {1..s}^(d-1) x {1..n/t} and
consists of all graph hyperplanes

    X_d = b + a_1*X_1 + ... + a_{d-1}*X_{d-1},   a_i in {1..A}, b in {1..B},

with A = floor(n / (d*s^d)) and B = floor(n / (d*t)).  Every hyperplane of
the family meets the grid in exactly t = s^(d-1) points: one per choice of
the first d-1 coordinates, and the offset bound B + (d-1)*A*s <= n/t keeps
the computed last coordinate inside the grid.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import ArithmeticOverflow, DimensionMismatch, PointEscapesGrid, RangeTooTight
from .exact import INT64_MAX, MAX_POINTS, check_int64, checked_dot, iroot

MAX_DIMENSION = 63  # np.indices adds an axis to a d-axis shape; numpy allows 64

# A grid point is a plain tuple of d integers; coordinate i < d-1 ranges over
# {1..s} and the last coordinate over {1..n/t}.
GridPoint = tuple[int, ...]


def point_table(points: np.ndarray) -> np.ndarray:
    """points, once checked to be an (n, d) int64 table with d >= 1, the one
    form in which the library takes points; anything else is a ValueError."""
    if not (isinstance(points, np.ndarray) and points.dtype == np.int64
            and points.ndim == 2 and points.shape[1] >= 1):
        raise ValueError("need an int64 point table of shape (n, d), d >= 1")
    return points


@dataclass(frozen=True)
class InstanceParams:
    """Validated construction parameters.

    d: ambient dimension (>= 2)
    s: side length of the first d-1 grid axes
    t: exact richness of every family hyperplane, t = s**(d-1)
    n: total number of grid points (multiple of t)
    A: per-coefficient range bound
    B: offset range bound
    m: family size, m = A**(d-1) * B
    """

    d: int
    s: int
    t: int
    n: int
    A: int
    B: int
    m: int

    def __post_init__(self) -> None:
        for f in fields(self):
            check_int64(getattr(self, f.name), f.name)
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        t = _int64_power(self.s, self.d - 1)
        if self.t != t:
            shown = f"{self.s}**{self.d - 1} > INT64_MAX" if t is None else t
            raise ValueError(f"t = {self.t} is not s**(d-1) = {shown}")
        if self.n < 1 or self.n % self.t != 0:
            raise ValueError(f"n = {self.n} is not a positive multiple of t = {self.t}")
        if self.A < 1 or self.B < 1:
            raise RangeTooTight(
                f"coefficient ranges collapsed (A = {self.A}, B = {self.B})"
            )
        power = _int64_power(self.A, self.d - 1)
        m = None if power is None else power * self.B
        if self.m != m:
            shown = f"{self.A}**{self.d - 1}*{self.B} > INT64_MAX" if m is None else m
            raise ValueError(f"m = {self.m} is not A**(d-1)*B = {shown}")
        if not self.containment_holds():
            raise RangeTooTight(
                f"containment violated: B + (d-1)*A*s = {self.max_last_coordinate()}"
                f" > n/t = {self.rows}"
            )

    @property
    def rows(self) -> int:
        """Extent n/t of the last grid axis."""
        return self.n // self.t

    def max_last_coordinate(self) -> int:
        """Largest X_d any family hyperplane attains over the grid base."""
        return self.B + (self.d - 1) * self.A * self.s

    def containment_holds(self) -> bool:
        return self.max_last_coordinate() <= self.rows

    def pair_coverage_bound(self) -> int:
        """Max number of family hyperplanes through any two distinct points."""
        return self.A ** (self.d - 2)


def _int64_power(base: int, exp: int) -> Optional[int]:
    """base**exp for base >= 1, or None where it exceeds INT64_MAX for sure.

    2**64 > INT64_MAX, so a base >= 2 overflows past exponent 63; deciding
    that first keeps a crafted d from computing a power of millions of digits.
    """
    return None if base >= 2 and exp > 63 else base**exp


class Hyperplane(NamedTuple):
    """Graph hyperplane X_d = b + sum(a_i * X_i); HyperplaneFamily checks the coefficients."""

    a: tuple[int, ...]
    b: int

    @property
    def d(self) -> int:
        return len(self.a) + 1


class HyperplaneFamily:
    """Hyperplanes held as int64 columns: slopes (m, d-1) and offsets (m,).

    Sized, int-indexable and iterable: an int index builds one Hyperplane, and
    iteration zips one tolist() per column into (a, b) pairs and makes each
    Hyperplane from its pair in C, by tuple.__new__.  Every row enters the
    library through here, so this is where each coefficient is checked to be
    >= 1, one column at a time; the first row that is not is named.  The arrays
    are frozen in place, not copied, so nothing may write to them or their bases later.
    """

    def __init__(self, slopes: np.ndarray, offsets: np.ndarray) -> None:
        if not (
            slopes.dtype == offsets.dtype == np.int64 and slopes.ndim == 2
            and slopes.shape[1] >= 1 and offsets.shape == slopes.shape[:1]
        ):
            raise ValueError("need int64 slopes of shape (m, d-1), d >= 2, and offsets (m,)")
        bad = offsets < 1
        for column in slopes.T:
            bad |= column < 1
        if bad.any():
            first = int(bad.argmax())
            a, b = tuple(slopes[first].tolist()), int(offsets[first])
            raise ValueError(f"coefficients must be >= 1, got a={a}, b={b}")
        slopes.flags.writeable = offsets.flags.writeable = False
        self.slopes, self.offsets = slopes, offsets

    @property
    def d(self) -> int:
        return self.slopes.shape[1] + 1

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, index: int) -> Hyperplane:
        index = operator.index(index)
        return Hyperplane(tuple(self.slopes[index].tolist()), int(self.offsets[index]))

    def __iter__(self) -> Iterator[Hyperplane]:
        rows = zip(zip(*self.slopes.T.tolist()), self.offsets.tolist())
        return map(partial(tuple.__new__, Hyperplane), rows)


def normalize_params(d: int, n_requested: int, t_requested: int) -> InstanceParams:
    """Round (n, t) down to a valid parameter set and derive A, B, m.

    t is rounded down to the nearest perfect (d-1)-th power s**(d-1) and n
    down to the nearest multiple of t; both shrink, never grow, so validity
    of the result implies validity of the request.

    Raises RangeTooTight when A would fall below 1 (richness too large
    relative to n) and ArithmeticOverflow outside the supported envelope.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if n_requested < 1 or t_requested < 1:
        raise ValueError(
            f"n and t must be >= 1, got n={n_requested}, t={t_requested}"
        )
    check_int64(n_requested, "n")
    check_int64(t_requested, "t")

    s = iroot(t_requested, d - 1)
    t = s ** (d - 1)
    n = (n_requested // t) * t
    if n > MAX_POINTS:
        raise ArithmeticOverflow(
            f"n = {n} exceeds the supported cap of {MAX_POINTS} points"
        )
    if n < 1:
        raise RangeTooTight(f"n = {n_requested} is smaller than t = {t}")

    A = n // (d * s**d)
    B = n // (d * t)  # B >= A as t <= s**d, so A >= 1 below gives B >= 1
    if A < 1:
        raise RangeTooTight(
            f"A = floor(n / (d*t^(d/(d-1)))) = floor({n}/{d * s**d}) = 0;"
            f" t = {t} is too rich for n = {n}"
        )
    power = _int64_power(A, d - 1)
    if power is None or power * B > INT64_MAX:
        raise ArithmeticOverflow(
            f"family size A**(d-1)*B with A={A}, B={B}, d={d} exceeds the 64-bit safe envelope"
        )
    return InstanceParams(d=d, s=s, t=t, n=n, A=A, B=B, m=power * B)


def largest_valid_richness(d: int, n_requested: int) -> InstanceParams:
    """Params for the largest valid richness t = s**(d-1) given n.

    This is the operational form of choosing t = Theta(n^(1-1/d)) with the
    constant made concrete: the largest s for which A and B stay >= 1.
    Rounding n to a multiple of t keeps A = floor(n / (d*s**d)), so A >= 1
    exactly when s**d <= n // d; B >= 1 and containment follow.
    """
    if d < 2 or n_requested < 1:
        raise ValueError(f"need d >= 2 and n >= 1, got d={d}, n={n_requested}")
    if n_requested < d:
        raise RangeTooTight(f"no valid richness exists for d={d}, n={n_requested}")
    s = iroot(check_int64(n_requested, "n") // d, d)  # iroot's float guess overflows on a huge n
    return normalize_params(d, n_requested, s ** (d - 1))


def digit_shape(d: int, side: int, last: int) -> tuple[int, ...]:
    """(side,) * (d-1) + (last,), the shape whose C-order indices number a generated table."""
    if d > MAX_DIMENSION:
        raise ValueError(f"d = {d} exceeds the cap of {MAX_DIMENSION} for generated tables")
    return (side,) * (d - 1) + (last,)


def generate_points(params: InstanceParams) -> np.ndarray:
    """All n grid points as a read-only, C-contiguous (n, d) int64 table, last axis fastest."""
    shape = digit_shape(params.d, params.s, params.rows)
    table = np.ascontiguousarray(np.indices(shape, dtype=np.int64).reshape(params.d, -1).T) + 1
    table.flags.writeable = False
    return table


def generate_hyperplanes(params: InstanceParams) -> HyperplaneFamily:
    """All m = A**(d-1) * B family hyperplanes, lexicographic on (a, b)."""
    shape = digit_shape(params.d, params.A, params.B)
    # Row j of `coeffs` is the mixed-radix digits of j, b varying fastest.
    coeffs = np.indices(shape, dtype=np.int64).reshape(params.d, params.m).T + 1
    return HyperplaneFamily(np.ascontiguousarray(coeffs[:, :-1]), coeffs[:, -1].copy())


def hyperplane_at(params: InstanceParams, index: int) -> Hyperplane:
    """The index-th hyperplane of generate_hyperplanes' order, without
    materializing the family: the same C-order digits np.indices fills."""
    if not 0 <= index < params.m:
        raise ValueError(f"hyperplane index {index} outside 0..{params.m - 1}")
    *a, b = np.unravel_index(index, digit_shape(params.d, params.A, params.B))
    return Hyperplane(a=tuple(int(c) + 1 for c in a), b=int(b) + 1)


def eval_hyperplane(h: Hyperplane, base: tuple[int, ...]) -> int:
    """Exact X_d = b + sum(a_i * base_i) for the given base coordinates."""
    if len(base) != len(h.a):
        raise DimensionMismatch(
            f"hyperplane has {len(h.a)} slope coefficients, base has {len(base)}"
        )
    return checked_dot(h.a, base, h.b)


def incident_points(h: Hyperplane, params: InstanceParams) -> list[GridPoint]:
    """The exactly t grid points of h, generated parametrically.

    Enumerates the s**(d-1) base tuples and computes the last coordinate.
    PointEscapesGrid is an internal consistency check: for valid params the
    containment inequality makes it unreachable.
    """
    if h.d != params.d:
        raise DimensionMismatch(
            f"hyperplane is {h.d}-dimensional, instance is {params.d}-dimensional"
        )
    points: list[GridPoint] = []
    for base in itertools.product(*([range(1, params.s + 1)] * (params.d - 1))):
        x_d = eval_hyperplane(h, base)
        if not 1 <= x_d <= params.rows:
            raise PointEscapesGrid(
                f"hyperplane {h} meets base {base} at X_d = {x_d},"
                f" outside 1..{params.rows}"
            )
        points.append(base + (x_d,))
    return points
