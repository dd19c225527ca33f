"""Benchmark plans, slab-query sweeps, and the log-log exponent fit."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

from .errors import InsufficientData
from .exact import charge
from .geometry import (
    InstanceParams,
    digit_shape,
    generate_points,
    hyperplane_at,
    largest_valid_richness,
    normalize_params,
)
from .io import stats_row
from .reporting import DEFAULT_LEAF_CAPACITY, build_kdtree, query, slab_query_for

# Above this family size, a seeded uniform sample of hyperplanes is
# benchmarked instead; aggregate statistics stabilize long before that.
MAX_QUERIES_PER_INSTANCE = 512


def peak_bytes(params: InstanceParams, leaf_capacity: int) -> int:
    """Upper estimate of the bytes run_plan holds at once for one size.

    Per point its tuple, int64 row and sort keys, per kd-tree node its box
    of 2d Python ints and the level arrays; it bounds the tracemalloc peak
    of run_plan, measured at d = 2..5, n = 2**12 to 2**17 and leaf
    capacities 1, 4 and 8.  A slice splits in halves only when it holds
    more than leaf_capacity points, so every leaf but a lone root keeps at
    least half of that.
    """
    n, d = params.n, params.d
    leaves = max(1, n // ((leaf_capacity + 1) // 2))
    return n * (160 + 32 * d) + (2 * leaves - 1) * (224 + 80 * d)


@dataclass(frozen=True)
class ExperimentPlan:
    """A bench sweep: one instance per size, all sharing d, t rule, and seed."""

    d: int
    sizes: tuple[int, ...]
    t_rule: str
    seed: int
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY
    instances: tuple[InstanceParams, ...] = field(init=False, repr=False)  # one per size

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("plan needs at least one size")
        digit_shape(self.d, 1, 1)  # generate_points' d cap, before any file opens
        rule, _, t = self.t_rule.partition(":")
        if not (self.t_rule == "auto" or rule == "fixed" and t.isascii() and t.isdigit()):
            raise ValueError(f"t rule must be 'auto' or 'fixed:<t>', got {self.t_rule!r}")
        if self.leaf_capacity < 1:  # build_kdtree's check, before any file opens
            raise ValueError(f"leaf capacity must be >= 1, got {self.leaf_capacity}")
        # Every (n, t) pair must normalize (RangeTooTight up front), and to a
        # larger n than the last, or fit would count one instance twice.
        instances = tuple(normalize_params(self.d, n, int(t)) if t
                          else largest_valid_richness(self.d, n) for n in self.sizes)
        object.__setattr__(self, "instances", instances)
        resolved = tuple(params.n for params in instances)
        if any(b <= a for a, b in zip(resolved, resolved[1:])):
            raise ValueError(f"sizes {self.sizes} give n = {resolved}, not strictly increasing")


@dataclass(frozen=True)
class FitResult:
    """Least-squares slope of log2(mean nodes visited) against log2(n)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


def select_query_ids(m: int, seed: int) -> list[int]:
    """All hyperplane indices, or a seeded uniform sample of MAX_QUERIES_PER_INSTANCE."""
    if m <= MAX_QUERIES_PER_INSTANCE:
        return list(range(m))
    return sorted(random.Random(seed).sample(range(m), MAX_QUERIES_PER_INSTANCE))


def aggregate_rows(per_query_rows: Sequence[dict]) -> list[dict]:
    """One 'mean' and one 'max' row aggregating every stat column."""
    if not per_query_rows:
        return []
    n, d = per_query_rows[0]["n"], per_query_rows[0]["d"]
    cols = ("k", "nodes_visited", "leaves_scanned", "points_tested")
    return [
        stats_row(n, d, query_id, **{c: reduce([r[c] for r in per_query_rows]) for c in cols})
        for query_id, reduce in (("mean", lambda v: sum(v) / len(v)), ("max", max))
    ]


def run_plan(plan: ExperimentPlan) -> Iterator[tuple[InstanceParams, dict]]:
    """Slab-query every (sampled) family hyperplane of each size in turn.

    Each size is charged its peak_bytes first, on the call itself: one over
    the budget raises InstanceTooLarge before anything is generated.
    The returned iterator yields (params, row): per instance, the
    per-query rows in query-id order, then its 'mean' and 'max' rows, one
    at a time so callers can flush each row before the next query runs; a
    failure mid-instance leaves the completed rows behind.
    """
    for params in plan.instances:
        charge(f"size n = {params.n}: its points and kd-tree",
               peak_bytes(params, plan.leaf_capacity))
    return _slab_rows(plan)


def _slab_rows(plan: ExperimentPlan) -> Iterator[tuple[InstanceParams, dict]]:
    for params in plan.instances:
        tree = build_kdtree(generate_points(params), leaf_capacity=plan.leaf_capacity)
        per_query = []
        for qid in select_query_ids(params.m, plan.seed):
            _, stats = query(tree, slab_query_for(hyperplane_at(params, qid)))
            row = stats_row(params.n, params.d, qid, stats.points_reported, stats)
            per_query.append(row)
            yield params, row
        for row in aggregate_rows(per_query):
            yield params, row


def fit_loglog(pairs: Sequence[tuple[Union[int, float], float]]) -> FitResult:
    """Ordinary least squares of log2(y) on log2(x).

    The slope is the empirical query exponent; on an exact power law it is
    recovered to floating-point precision.
    """
    if len(pairs) < 3:
        raise InsufficientData(f"need at least 3 aggregate rows, got {len(pairs)}")
    xs = [math.log2(x) for x, _ in pairs]
    ys = [math.log2(y) for _, y in pairs]
    k = len(pairs)
    mean_x, mean_y = sum(xs) / k, sum(ys) / k
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    if sxx == 0:
        raise InsufficientData("all sizes identical; cannot fit an exponent")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    r_squared = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return FitResult(slope=slope, intercept=intercept, r_squared=r_squared, points_used=k)


def fit_from_rows(rows: Sequence[dict]) -> FitResult:
    """Fit using the 'mean' aggregate rows of a stats table.

    A mean row without a positive integer n and a finite, positive
    nodes_visited has no logarithm, so it is rejected by name, not fitted.
    """
    pairs = []
    for r in rows:
        if str(r["query_id"]) == "mean":
            try:
                n, visits = int(r["n"]), float(r["nodes_visited"])
            except ValueError:  # not a number: refused below, by name
                n = visits = 0
            if not (0 < n and 0 < visits < math.inf):
                raise ValueError(f"mean row n={r['n']}, nodes_visited={r['nodes_visited']}: n"
                                 " must be a positive integer, nodes_visited finite and positive")
            pairs.append((n, visits))
    return fit_loglog(pairs)
