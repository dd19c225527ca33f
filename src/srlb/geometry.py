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
from dataclasses import dataclass
from typing import Iterator

from .errors import ArithmeticOverflow, DimensionMismatch, PointEscapesGrid, RangeTooTight
from .exact import MAX_POINTS, check_int64, checked_dot, iroot

# A grid point is a plain tuple of d integers; coordinate i < d-1 ranges over
# {1..s} and the last coordinate over {1..n/t}.
GridPoint = tuple[int, ...]


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
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.t != self.s ** (self.d - 1):
            raise ValueError(f"t = {self.t} is not s**(d-1) = {self.s ** (self.d - 1)}")
        if self.n < 1 or self.n % self.t != 0:
            raise ValueError(f"n = {self.n} is not a positive multiple of t = {self.t}")
        if self.A < 1 or self.B < 1:
            raise RangeTooTight(
                f"coefficient ranges collapsed (A = {self.A}, B = {self.B})"
            )
        if self.m != self.A ** (self.d - 1) * self.B:
            raise ValueError(
                f"m = {self.m} is not A**(d-1)*B = {self.A ** (self.d - 1) * self.B}"
            )
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


@dataclass(frozen=True)
class Hyperplane:
    """Graph hyperplane X_d = b + sum(a_i * X_i) with positive integer coefficients."""

    a: tuple[int, ...]
    b: int

    def __post_init__(self) -> None:
        if len(self.a) < 1:
            raise ValueError("hyperplane needs at least one slope coefficient")
        if min(self.a) < 1 or self.b < 1:
            raise ValueError(f"coefficients must be >= 1, got a={self.a}, b={self.b}")

    @property
    def d(self) -> int:
        return len(self.a) + 1


def normalize_params(d: int, n_requested: int, t_requested: int) -> InstanceParams:
    """Round (n, t) down to a valid parameter set and derive A, B, m.

    t is rounded down to the nearest perfect (d-1)-th power s**(d-1) and n
    down to the nearest multiple of t; both shrink, never grow, so validity
    of the result implies validity of the request.

    Raises RangeTooTight when A or B would fall below 1 (richness too large
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
    B = n // (d * t)
    if A < 1:
        raise RangeTooTight(
            f"A = floor(n / (d*t^(d/(d-1)))) = floor({n}/{d * s**d}) = 0;"
            f" t = {t} is too rich for n = {n}"
        )
    if B < 1:
        raise RangeTooTight(f"B = floor(n / (d*t)) = floor({n}/{d * t}) = 0")
    m = check_int64(A ** (d - 1) * B, f"family size A**(d-1)*B with A={A}, B={B}")
    return InstanceParams(d=d, s=s, t=t, n=n, A=A, B=B, m=m)


def largest_valid_richness(d: int, n_requested: int) -> InstanceParams:
    """Params for the largest valid richness t = s**(d-1) given n.

    This is the operational form of choosing t = Theta(n^(1-1/d)) with the
    constant made concrete: the largest s for which A and B stay >= 1.
    """
    if d < 2 or n_requested < 1:
        raise ValueError(f"need d >= 2 and n >= 1, got d={d}, n={n_requested}")
    s = iroot(n_requested // d, d) + 1 if n_requested >= d else 1
    while s >= 1:
        try:
            return normalize_params(d, n_requested, s ** (d - 1))
        except RangeTooTight:
            s -= 1
    raise RangeTooTight(f"no valid richness exists for d={d}, n={n_requested}")


def iter_points(params: InstanceParams) -> Iterator[GridPoint]:
    """Lattice points in row-major order (last axis fastest)."""
    axes = [range(1, params.s + 1)] * (params.d - 1) + [range(1, params.rows + 1)]
    return itertools.product(*axes)


def generate_points(params: InstanceParams) -> list[GridPoint]:
    """All n grid points of the instance, deterministic row-major order."""
    return list(iter_points(params))


def generate_hyperplanes(params: InstanceParams) -> list[Hyperplane]:
    """All m = A**(d-1) * B family hyperplanes, lexicographic on (a, b)."""
    coeffs = itertools.product(
        *([range(1, params.A + 1)] * (params.d - 1) + [range(1, params.B + 1)])
    )
    return [Hyperplane(a=c[:-1], b=c[-1]) for c in coeffs]


def hyperplane_at(params: InstanceParams, index: int) -> Hyperplane:
    """The index-th hyperplane of the lexicographic family order, without
    materializing the family (mixed-radix decode, b varying fastest)."""
    if not 0 <= index < params.m:
        raise ValueError(f"hyperplane index {index} outside 0..{params.m - 1}")
    index, b = divmod(index, params.B)
    a = []
    for _ in range(params.d - 1):
        index, digit = divmod(index, params.A)
        a.append(digit + 1)
    return Hyperplane(a=tuple(reversed(a)), b=b + 1)


def eval_hyperplane(h: Hyperplane, base: tuple[int, ...]) -> int:
    """Exact X_d = b + sum(a_i * base_i) for the given base coordinates."""
    if len(base) != len(h.a):
        raise DimensionMismatch(
            f"hyperplane has {len(h.a)} slope coefficients, base has {len(base)}"
        )
    return checked_dot(h.a, base, h.b)


def incident(h: Hyperplane, p: GridPoint) -> bool:
    """True iff p lies on h (exact integer test)."""
    if len(p) != h.d:
        raise DimensionMismatch(f"point has {len(p)} coords, hyperplane is {h.d}-dimensional")
    return p[-1] == eval_hyperplane(h, p[:-1])


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
