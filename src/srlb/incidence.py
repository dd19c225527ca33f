"""Independent verification of the incidence-graph guarantees.

Everything here works from an exact incidence graph built by a sort-join
of hyperplane values against the points, not from the parametric
generator, so it can serve as an oracle against geometry.py: richness
(every family hyperplane meets exactly t points), pair coverage (no two
points lie on more than A**(d-2) common hyperplanes, hence no
K_{2, A**(d-2)+1} in the incidence graph), and the resulting space bound
m*t / beta evaluated as an exact rational.  The per-pair reference scan
that the sort-join replaced lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import ArithmeticOverflow, DimensionMismatch, InstanceTooLarge
from .exact import INT64_MAX, MAX_POINTS, as_int64_array, check_int64, envelope, int64_rows
from .geometry import GridPoint, Hyperplane, InstanceParams, eval_hyperplane

if TYPE_CHECKING:
    from .io import InstanceDocument

DEFAULT_PAIR_BUDGET = 10**9

# Most int64 hyperplane values build_incidence_graph evaluates at once
# (a block holds at least one hyperplane).
INCIDENCE_BLOCK = 1 << 18


@dataclass(frozen=True, eq=False)
class IncidenceGraph:
    """Bipartite point/hyperplane incidences in CSR form.

    Hyperplane j meets the points indices[indptr[j]:indptr[j + 1]], in
    increasing order.  The 1-d int64 arrays are frozen in place, not copied,
    so nothing may write to them or their bases later.  Unhashable.
    """

    point_count: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        indptr, indices = self.indptr, self.indices
        if not (
            indptr.dtype == indices.dtype == np.int64 and indptr.ndim == indices.ndim == 1
            and indptr.size and indptr[0] == 0 and indptr[-1] == indices.size
            and (np.diff(indptr) >= 0).all()
        ):
            raise ValueError("need 1-d int64 arrays, indptr rising from 0 to len(indices)")
        if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= self.point_count):
            raise ValueError("adjacency entry out of range")
        # An entry may fail to exceed its predecessor only where a row starts.
        row_start = np.zeros(indices.size + 1, dtype=bool)
        row_start[indptr] = True
        if not (row_start[1:-1] | (np.diff(indices) > 0)).all():
            raise ValueError("adjacency lists must be sorted and duplicate-free")
        indptr.flags.writeable = indices.flags.writeable = False

    @classmethod
    def from_rows(
        cls, *, point_count: int, hyperplane_count: int, adjacency: Sequence[Sequence[int]]
    ) -> IncidenceGraph:
        """A graph from one sorted point-index list per hyperplane."""
        if len(adjacency) != hyperplane_count:
            raise ValueError(f"{len(adjacency)} rows for {hyperplane_count} hyperplanes")
        indptr = np.cumsum([0, *map(len, adjacency)], dtype=np.int64)
        try:
            indices = np.fromiter(chain.from_iterable(adjacency), np.int64, int(indptr[-1]))
        except OverflowError:
            raise ValueError("adjacency entry out of range") from None
        return cls(point_count=point_count, indptr=indptr, indices=indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceGraph):
            return NotImplemented
        return self.point_count == other.point_count and all(
            map(np.array_equal, (self.indptr, self.indices), (other.indptr, other.indices))
        )

    @property
    def hyperplane_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def total_incidences(self) -> int:
        return len(self.indices)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples, built on first use; no verify check needs them."""
        flat, ends = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(flat[lo:hi]) for lo, hi in zip(ends, ends[1:]))


@dataclass(frozen=True)
class BoundReport:
    """Space bound m*t/beta for alpha = 2, with exact rational arithmetic."""

    m: int
    t: int
    alpha: int
    beta: int
    space_figure_of_merit: Fraction
    predicted_query_exponent: Fraction


def _checked_coefficients(
    hyperplanes: Sequence[Hyperplane],
    slope_rows: Sequence[tuple[int, ...]],
    max_abs: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and offsets as int64 arrays, once no evaluation can wrap.

    |b + sum(a_i * x_i)| and every partial sum stay below
    sum(|a_i| * max|x_i|) + |b|.  One such bound taken over the whole
    family (largest |a_i| per axis, largest |b|, read off the converted
    arrays) covers every hyperplane.  Only when the conversion or that
    bound fails is each hyperplane checked on its own, so a family that
    fits hyperplane by hyperplane is still accepted and the error names
    the first one that does not.
    """
    offset_row = [h.b for h in hyperplanes]
    try:
        slopes = int64_rows(slope_rows, len(max_abs), "hyperplane coefficients")
        offsets = int64_rows([offset_row], len(offset_row), "hyperplane offsets")[0]
    except ArithmeticOverflow:
        pass
    else:
        family_bound = sum(c * mx for c, mx in zip(envelope(slopes), max_abs))
        if family_bound + envelope(offsets[:, None])[0] <= INT64_MAX:
            return slopes, offsets
    # Raises whenever the conversion failed: some |a_i| or |b| left int64.
    for h in hyperplanes:
        bound = sum(abs(c) * mx for c, mx in zip(h.a, max_abs)) + abs(h.b)
        check_int64(bound, f"incidence evaluation bound for {h}")
        as_int64_array(h.a, "hyperplane coefficients")
    return slopes, offsets


def build_incidence_graph(
    points: Sequence[GridPoint], hyperplanes: Sequence[Hyperplane]
) -> IncidenceGraph:
    """Incidence graph as an exact sort-join of hyperplane values and points.

    Deliberately ignores the parametric structure so it can cross-check
    incident_points().  One stable lexsort orders the points by (base
    X_1..X_{d-1}, X_d, index); the places where the base changes group
    them into u distinct bases.  Each hyperplane is evaluated once per
    base (the predicate X_d == b + sum(a_i * X_i)), base-major, as
    bases @ slopes.T + offsets, so the matched values come out grouped by
    base, and each is matched by binary search against the points with
    that base.  This costs O(m*u*log n + incidences) instead of testing
    all n*m pairs; in the grid family u = t.  The pair-by-pair scan it
    replaced is kept in the tests as the reference.
    """
    slope_rows = [h.a for h in hyperplanes]
    dims = set(map(len, points)) | {len(a) + 1 for a in slope_rows}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions in input: {sorted(dims)}")

    n, m = len(points), len(hyperplanes)
    if not n or not m:
        return IncidenceGraph.from_rows(point_count=n, hyperplane_count=m, adjacency=[()] * m)

    coords = int64_rows(points, dims.pop(), "point coordinates")
    # X_d is only compared for equality, so the join key is (base id, rank
    # of X_d among its distinct values): no arithmetic touches a raw X_d.
    lasts, last_rank = np.unique(coords[:, -1], return_inverse=True)
    order = np.lexsort(coords.T[::-1])  # by (X_1, ..., X_{d-1}, X_d, index)
    ordered = coords[order, :-1]
    new_base = np.ones(n, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new_base[1:])
    bases = ordered[new_base]
    keys = (np.cumsum(new_base) - 1) * len(lasts) + last_rank[order]  # rising, < n**2
    # The points sharing one key form the run order[run_start : run_start + run_size].
    run_keys, run_start, run_size = np.unique(keys, return_index=True, return_counts=True)
    slopes, offsets = _checked_coefficients(hyperplanes, slope_rows, envelope(bases))

    rows_per_block = max(1, INCIDENCE_BLOCK // len(bases))
    base_keys = np.arange(0, len(bases) * len(lasts), len(lasts))[:, None]
    indices, row_lengths = [], []
    for lo in range(0, m, rows_per_block):
        hi = min(lo + rows_per_block, m)
        # Base-major: row u of `values` holds every hyperplane at base u, so
        # the join keys rise from one base to the next.
        values = bases @ slopes[lo:hi].T + offsets[lo:hi]
        rank = np.minimum(np.searchsorted(lasts, values), len(lasts) - 1)
        key = base_keys + rank
        run = np.minimum(np.searchsorted(run_keys, key), len(run_keys) - 1)
        hit = (lasts[rank] == values) & (run_keys[run] == key)
        count = np.where(hit, run_size[run], 0).ravel()
        row = np.repeat(np.tile(np.arange(hi - lo), len(bases)), count)
        run_offset = run_start[run].ravel() - (np.cumsum(count) - count)
        point = order[np.arange(len(row)) + np.repeat(run_offset, count)]
        # (row, point index) rises within each base, so a stable sort merges
        # len(bases) sorted runs.  row < INCIDENCE_BLOCK keeps row * n small.
        indices.append(np.sort(row * n + point, kind="stable") % n)
        row_lengths.append(np.bincount(row, minlength=hi - lo))

    indptr = np.concatenate(([0], *row_lengths)).cumsum()
    return IncidenceGraph(point_count=n, indptr=indptr, indices=np.concatenate(indices))


def richness_histogram(graph: IncidenceGraph) -> dict[int, int]:
    """Map richness value -> number of hyperplanes with that many incidences.

    A valid construction yields the single entry {t: m}.
    """
    sizes, rows_of_size = np.unique(np.diff(graph.indptr), return_counts=True)
    return dict(zip(sizes.tolist(), rows_of_size.tolist()))


def pair_coverage(
    graph: IncidenceGraph, budget: int = DEFAULT_PAIR_BUDGET
) -> tuple[int, Optional[tuple[int, int]]]:
    """Maximum number of hyperplanes through any two distinct points.

    Enumerates each hyperplane's C(len, 2) incident point pairs and counts
    duplicates, which costs O(m * t^2) instead of the O(n^2 * m) point-pair
    scan; t is small by design while n^2 is not.  Rows of equal length are
    enumerated together as one block.  Returns the max count and the
    lexicographically smallest witness pair attaining it (None when no
    hyperplane covers two points).
    """
    lengths = np.diff(graph.indptr)
    sizes, rows_of_size = np.unique(lengths, return_counts=True)
    cost = sum(int(size) ** 2 * int(k) for size, k in zip(sizes, rows_of_size))
    if cost > budget:
        raise InstanceTooLarge(
            f"pair enumeration cost {cost} exceeds budget {budget}"
        )

    n = graph.point_count
    if n > MAX_POINTS:
        # Pair codes i*n + j must fit in uint64, i.e. n**2 - 1 < 2**64.
        raise InstanceTooLarge(f"point count {n} exceeds the {MAX_POINTS} cap")
    code = np.uint32 if n * n <= 2**32 else np.uint64
    row_starts = graph.indptr[:-1]
    wide = sizes >= 2
    blocks = list(zip(sizes[wide].tolist(), rows_of_size[wide].tolist()))
    merged = np.empty(sum(k * size * (size - 1) // 2 for size, k in blocks), code)
    if not merged.size:
        return 0, None
    end = 0
    for size, k in blocks:
        # block[i] holds the i-th point of every row of this length.
        at = row_starts[lengths == size] + np.arange(size)[:, None]
        block = graph.indices[at].astype(code)
        scaled = block * code(n)
        for i in range(size - 1):
            # Pairs (i, j > i) of every row.  Pairs within one hyperplane are
            # distinct, so duplicates only come from hyperplanes sharing a pair.
            start, end = end, end + (size - 1 - i) * k
            np.add(scaled[i], block[i + 1 :], out=merged[start:end].reshape(-1, k))

    merged.sort()
    last = np.flatnonzero(merged[1:] != merged[:-1])  # where each run but the final one ends
    runs = np.diff(last, prepend=-1, append=len(merged) - 1)
    # argmax picks the first maximal run, which has the smallest code: the
    # lexicographically smallest pair.
    first = int(runs.argmax())
    witness_code = int(merged[last[first - 1] + 1 if first else 0])
    return int(runs[first]), (witness_code // n, witness_code % n)


def verify_no_k2beta(
    graph: IncidenceGraph, params: InstanceParams, budget: int = DEFAULT_PAIR_BUDGET
) -> bool:
    """True iff no two points share more than A**(d-2) hyperplanes.

    Equivalently: beta = A**(d-2) + 1 hyperplanes never have two points in
    common, i.e. the incidence graph contains no K_{2, beta}.
    """
    max_common, _ = pair_coverage(graph, budget=budget)
    return max_common <= params.pair_coverage_bound()


def check_instance_cost(params: InstanceParams, budget: int = DEFAULT_PAIR_BUDGET) -> None:
    """Refuse an instance whose verification would exceed `budget`.

    Works from the parameters alone, so it runs before anything is
    generated.  Each phase is charged on its own: n*m, which bounds the n
    points and m hyperplanes that gen and verify materialise (the
    sort-join in build_incidence_graph itself costs far less than n*m
    tests), and the m*t**2 pair-enumeration cost that pair_coverage
    charges a t-rich family.
    """
    costs = {
        "incidence tests": params.n * params.m,
        "pair enumeration cost": params.m * params.t**2,
    }
    over = [f"{name} {cost}" for name, cost in costs.items() if cost > budget]
    if over:
        raise InstanceTooLarge(f"over the budget of {budget}: {', '.join(over)}")


def verify_instance(doc: InstanceDocument, budget: int = DEFAULT_PAIR_BUDGET) -> dict:
    """Check a loaded instance against its own params; the `srlb verify` report.

    Richness must be exactly {t: m}, no two points may share more than
    A**(d-2) hyperplanes, and every hyperplane must stay inside the grid at
    the top corner of the base.  Sections missing from the document are
    regenerated from params once check_instance_cost has admitted them;
    the sections then in hand are charged again by their actual sizes,
    since a stored section need not match params.
    """
    params = doc.params
    check_instance_cost(params, budget)
    points = doc.materialized_points()
    hyperplanes = doc.materialized_hyperplanes()
    tests = len(points) * len(hyperplanes)
    if tests > budget:
        raise InstanceTooLarge(
            f"stored sections: {len(points)} points times {len(hyperplanes)}"
            f" hyperplanes = {tests}, over the budget of {budget}"
        )
    graph = build_incidence_graph(points, hyperplanes)
    histogram = richness_histogram(graph)
    max_common, _ = pair_coverage(graph, budget=budget)
    beta_bound = params.pair_coverage_bound()
    top = (params.s,) * (params.d - 1)
    return {
        "richness_exact": histogram == {params.t: params.m},
        "max_pair_coverage": max_common,
        "beta_bound": beta_bound,
        "k2beta_free": max_common <= beta_bound,
        "containment_ok": all(
            1 <= eval_hyperplane(h, top) <= params.rows for h in hyperplanes
        ),
    }


def bound_report(params: InstanceParams) -> BoundReport:
    """Evaluate the alpha = 2 space bound for the instance.

    beta = A**(d-2) + 1 and the figure of merit is m*t/beta, the framework
    bound with the 2^O(alpha) factor normalized to 1 (it is a constant for
    alpha = 2 but its value is not recoverable).  The predicted query
    exponent at linear space is (d-1)/d.
    """
    beta = params.pair_coverage_bound() + 1
    return BoundReport(
        m=params.m,
        t=params.t,
        alpha=2,
        beta=beta,
        space_figure_of_merit=Fraction(params.m * params.t, beta),
        predicted_query_exponent=Fraction(params.d - 1, params.d),
    )
