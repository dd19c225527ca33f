"""Independent verification of the incidence-graph guarantees.

Everything here works from a brute-force incidence graph, not from the
parametric generator, so it can serve as an oracle against geometry.py:
richness (every family hyperplane meets exactly t points), pair coverage
(no two points lie on more than A**(d-2) common hyperplanes, hence no
K_{2, A**(d-2)+1} in the incidence graph), and the resulting space bound
m*t / beta evaluated as an exact rational.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, InstanceTooLarge
from .exact import MAX_POINTS, as_int64_array, check_int64
from .geometry import GridPoint, Hyperplane, InstanceParams, eval_hyperplane

if TYPE_CHECKING:
    from .io import InstanceDocument

DEFAULT_PAIR_BUDGET = 10**9


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite point/hyperplane incidences, one sorted point-index list per hyperplane."""

    point_count: int
    hyperplane_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.hyperplane_count:
            raise ValueError(
                f"{len(self.adjacency)} adjacency lists for"
                f" {self.hyperplane_count} hyperplanes"
            )
        for row in self.adjacency:
            if any(not 0 <= i < self.point_count for i in row):
                raise ValueError("adjacency entry out of range")
            if any(row[k] >= row[k + 1] for k in range(len(row) - 1)):
                raise ValueError("adjacency lists must be sorted and duplicate-free")

    @property
    def total_incidences(self) -> int:
        return sum(len(row) for row in self.adjacency)


@dataclass(frozen=True)
class BoundReport:
    """Space bound m*t/beta for alpha = 2, with exact rational arithmetic."""

    m: int
    t: int
    alpha: int
    beta: int
    space_figure_of_merit: Fraction
    predicted_query_exponent: Fraction


def build_incidence_graph(
    points: Sequence[GridPoint], hyperplanes: Sequence[Hyperplane]
) -> IncidenceGraph:
    """Brute-force incidence graph: test every (hyperplane, point) pair.

    Deliberately ignores the parametric structure so it can cross-check
    incident_points(); the scan is the predicate X_d == b + sum(a_i * X_i)
    vectorized over all points.
    """
    dims = {len(p) for p in points} | {h.d for h in hyperplanes}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions in input: {sorted(dims)}")

    if not points or not hyperplanes:
        return IncidenceGraph(
            point_count=len(points),
            hyperplane_count=len(hyperplanes),
            adjacency=tuple(() for _ in hyperplanes),
        )

    coords = as_int64_array(points, "point coordinates")
    base, last = coords[:, :-1], coords[:, -1]
    max_abs = np.abs(base).max(axis=0)
    adjacency = []
    for h in hyperplanes:
        # int64 matmul must not wrap, even for out-of-family hyperplanes.
        bound = sum(abs(c) * int(mx) for c, mx in zip(h.a, max_abs)) + abs(h.b)
        check_int64(bound, f"incidence evaluation bound for {h}")
        values = base @ as_int64_array(h.a, "hyperplane coefficients") + h.b
        adjacency.append(tuple(int(i) for i in np.flatnonzero(values == last)))
    return IncidenceGraph(
        point_count=len(points),
        hyperplane_count=len(hyperplanes),
        adjacency=tuple(adjacency),
    )


def richness_histogram(graph: IncidenceGraph) -> dict[int, int]:
    """Map richness value -> number of hyperplanes with that many incidences.

    A valid construction yields the single entry {t: m}.
    """
    return dict(Counter(len(row) for row in graph.adjacency))


def pair_coverage(
    graph: IncidenceGraph, budget: int = DEFAULT_PAIR_BUDGET
) -> tuple[int, Optional[tuple[int, int]]]:
    """Maximum number of hyperplanes through any two distinct points.

    Enumerates each hyperplane's C(len, 2) incident point pairs and counts
    duplicates, which costs O(m * t^2) instead of the O(n^2 * m) point-pair
    scan; t is small by design while n^2 is not.  Returns the max count and
    the lexicographically smallest witness pair attaining it (None when no
    hyperplane covers two points).
    """
    cost = sum(len(row) ** 2 for row in graph.adjacency)
    if cost > budget:
        raise InstanceTooLarge(
            f"pair enumeration cost {cost} exceeds budget {budget}"
        )

    n = graph.point_count
    if n > MAX_POINTS:
        # Pair codes i*n + j must fit in uint64, i.e. n**2 - 1 < 2**64.
        raise InstanceTooLarge(f"point count {n} exceeds the {MAX_POINTS} cap")
    codes: list[np.ndarray] = []
    for row in graph.adjacency:
        if len(row) < 2:
            continue
        idx = np.asarray(row, dtype=np.uint64)
        ii, jj = np.triu_indices(len(row), k=1)
        # Pairs within one hyperplane are distinct, so duplicates can only
        # come from different hyperplanes sharing a pair.
        codes.append(idx[ii] * np.uint64(n) + idx[jj])
    if not codes:
        return 0, None

    merged = np.concatenate(codes)
    merged.sort()
    boundaries = np.flatnonzero(np.diff(merged)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(merged)]))
    runs = ends - starts
    best = int(runs.max())
    # Smallest code among maximal runs == lexicographically smallest pair.
    witness_code = int(merged[starts[runs == best].min()])
    return best, (witness_code // n, witness_code % n)


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
    generated.  Each phase is charged on its own: the n*m point/hyperplane
    tests of the incidence scan (which also bound the n points and m
    hyperplanes generated) and the m*t**2 pair-enumeration cost that
    pair_coverage charges a t-rich family.
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
    regenerated from params once check_instance_cost has admitted them.
    """
    params = doc.params
    check_instance_cost(params, budget)
    hyperplanes = doc.materialized_hyperplanes()
    graph = build_incidence_graph(doc.materialized_points(), hyperplanes)
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


def find_kab(
    graph: IncidenceGraph, a: int, b: int, budget: int = 10**6
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exhaustive search for a complete bipartite K_{a,b} in the graph.

    Returns (a point indices, b hyperplane indices) or None.  Only meant
    for tiny instances and fixtures; the DFS over hyperplane subsets aborts
    with BudgetExceeded once it has expanded `budget` nodes.
    """
    if a < 1 or b < 1:
        raise ValueError(f"need a, b >= 1, got a={a}, b={b}")
    candidates = [j for j in range(graph.hyperplane_count) if len(graph.adjacency[j]) >= a]
    nodes_expanded = 0

    def common(xs: tuple[int, ...], ys: tuple[int, ...]) -> tuple[int, ...]:
        out, i, j = [], 0, 0
        while i < len(xs) and j < len(ys):
            if xs[i] == ys[j]:
                out.append(xs[i])
                i += 1
                j += 1
            elif xs[i] < ys[j]:
                i += 1
            else:
                j += 1
        return tuple(out)

    def dfs(
        start: int, chosen: tuple[int, ...], shared: tuple[int, ...]
    ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        nonlocal nodes_expanded
        nodes_expanded += 1
        if nodes_expanded > budget:
            raise BudgetExceeded(
                f"K_{{{a},{b}}} search expanded more than {budget} nodes"
            )
        if len(chosen) == b:
            return shared[:a], chosen
        for pos in range(start, len(candidates)):
            j = candidates[pos]
            narrowed = common(shared, graph.adjacency[j]) if chosen else graph.adjacency[j]
            if len(narrowed) >= a:
                found = dfs(pos + 1, chosen + (j,), narrowed)
                if found is not None:
                    return found
        return None

    return dfs(0, (), ())


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
