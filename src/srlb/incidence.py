"""Independent verification of the incidence-graph guarantees.

Everything here works from an exact incidence graph built by a join of
hyperplane values against the sorted points, not from the parametric
generator, so it can serve as an oracle against geometry.py: richness
(every family hyperplane meets exactly t points), pair coverage (no two
points lie on more than A**(d-2) common hyperplanes, hence no
K_{2, A**(d-2)+1} in the incidence graph), and the resulting space bound
m*t / beta evaluated as an exact rational.  The per-pair reference scan
that the join replaced lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .errors import ArithmeticOverflow, DimensionMismatch
from .exact import INT64_MAX, INT64_MIN, MAX_POINTS, charge, check_int64, envelope
from .geometry import (
    HyperplaneFamily,
    InstanceParams,
    eval_hyperplane,
    generate_hyperplanes,
    generate_points,
    point_table,
)
from .io import InstanceDocument

# Cache-sized blocks: most int64 hyperplane values build_incidence_graph
# evaluates at once (a block holds at least one hyperplane), and most sorted
# pair codes the run scan of pair_coverage compares at once.
INCIDENCE_BLOCK = PAIR_SCAN_SLICE = 1 << 14

# build_incidence_graph looks values up in (base, X_d) slot tables when the
# points' box has at most this many cells per point, and searches otherwise.
DENSE_SLOTS = 4

# Bytes the join holds per incidence: 8 once joined, 16 at the final
# concatenate, and twice as many for the block being sorted (32.3 measured).
INCIDENCE_BYTES = 18

# Bytes of the join's per-value scratch while a block is evaluated: 49 while
# matching, 24 plus the block's incidences after (58.3 measured at one each).
BLOCK_VALUE_BYTES = 72

# Bytes of the join's output held to its end: per hyperplane a row length and
# two indptr copies, per block two arrays and their list slots (250 measured).
ROW_OUTPUT_BYTES, BLOCK_OUTPUT_BYTES = 24, 320


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
        if not (row_start[1:-1] | (indices[1:] > indices[:-1])).all():
            raise ValueError("adjacency lists must be sorted and duplicate-free")
        indptr.flags.writeable = indices.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceGraph):
            return NotImplemented
        return self.point_count == other.point_count and all(
            map(np.array_equal, (self.indptr, self.indices), (other.indptr, other.indices))
        )

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples, built on first use; no verify check needs them."""
        flat, ends = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(flat[lo:hi]) for lo, hi in zip(ends, ends[1:]))


def _first_row_over(family: HyperplaneFamily, max_abs: Sequence[int]) -> int:
    """Index of the first hyperplane whose |b| + sum(|a_i| * max_abs_i) leaves
    int64, or len(family) when none does; the family must not be empty.

    That bound caps |b + sum(a_i * x_i)| and every partial sum for every x
    with |x_i| <= max_abs_i.  The column envelopes settle the common case;
    only when their bound fails are the rows summed one by one, made ints
    INCIDENCE_BLOCK rows at a time.
    """
    bound = sum(c * mx for c, mx in zip(envelope(family.slopes), max_abs))
    if bound + envelope(family.offsets[:, None])[0] <= INT64_MAX:
        return len(family)
    weights = (1, *max_abs)  # coefficients are >= 1, so |c| = c
    cuts = range(INCIDENCE_BLOCK, len(family), INCIDENCE_BLOCK)
    blocks = zip(np.split(family.offsets, cuts), np.split(family.slopes, cuts))
    rows = (row for b, a in blocks for row in zip(b.tolist(), *a.T.tolist()))
    over = (j for j, row in enumerate(rows) if sum(map(mul, row, weights)) > INT64_MAX)
    return next(over, len(family))


def build_incidence_graph(points: np.ndarray, family: HyperplaneFamily) -> IncidenceGraph:
    """Incidence graph as an exact join of hyperplane values and points.

    Deliberately ignores the parametric structure so it can cross-check
    incident_points().  The point table (point_table) and the family's
    columns are joined as int64 tables; ArithmeticOverflow names the first
    hyperplane whose value could wrap (_first_row_over).  One stable lexsort
    orders the points by (base X_1..X_{d-1}, X_d, index), so the points of
    each (base, X_d) cell form one run of it, and groups them into u
    distinct bases.  Each hyperplane is evaluated once per base (the
    predicate X_d == b + sum(a_i * X_i)), base-major, as bases @ slopes.T +
    offsets, and each value finds its cell's run by one of two routes:

    - slot route, when the points fill their box: u * (max X_d - min X_d + 2)
      <= DENSE_SLOTS * n, as on every grid.  Two int64 tables, one entry per
      cell, hold each run's start and size; a value clipped into the X_d
      range indexes them directly, the values outside it landing in the one
      empty column per base.  O(m*u + incidences).
    - searched route, any other point set: binary searches among the
      distinct X_d, then among the runs.  O(m*u*log n + incidences).

    When the table is in lexicographic order (every generated or saved one
    is), the lexsort order is the identity and the matches are read
    hyperplane-major, so each hyperplane's points come out at rising
    indices.  Otherwise one stable sort of row * n + point per block orders
    them.  Once u is known it charges the m*u evaluations, the slot tables
    (16 bytes per cell), then those with the first block's scratch
    (BLOCK_VALUE_BYTES per value) and the output held to the end
    (ROW_OUTPUT_BYTES per hyperplane, BLOCK_OUTPUT_BYTES per block); before
    each block's output, that plus the incidences so far, INCIDENCE_BYTES
    each, the block's own twice.  The pair-by-pair scan it replaced is kept
    in the tests as the reference.
    """
    coords = point_table(points)
    n, m = len(coords), len(family)
    dims = ({family.d} if m else set()) | ({coords.shape[1]} if n else set())
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions in input: {sorted(dims)}")

    if not n or not m:
        empty = np.zeros(m + 1, dtype=np.int64)
        return IncidenceGraph(point_count=n, indptr=empty, indices=empty[:0])

    order = np.lexsort(coords.T[::-1])  # by (X_1, ..., X_{d-1}, X_d, index)
    ordered = coords[order, :-1]
    new_base = np.zeros(n, dtype=bool)
    new_base[0] = True
    for column in ordered.T:
        new_base[1:] |= column[1:] != column[:-1]
    bases = ordered[new_base]
    u = len(bases)
    charge(f"{m} hyperplanes at {u} distinct bases", m * u, "evaluations")
    max_abs = envelope(bases)
    over = _first_row_over(family, max_abs)
    if over < m:
        h = family[over]
        check_int64(h.b + sum(map(mul, h.a, max_abs)), f"incidence evaluation bound for {h}")

    base_id = np.cumsum(new_base) - 1
    low, high = int(coords[:, -1].min()), int(coords[:, -1].max())
    width = high - low + 2  # a Python int, as the X_d span may leave int64
    cells = u * width + 1 if u * width <= DENSE_SLOTS * n else 0
    rows_per_block = max(1, INCIDENCE_BLOCK // u)
    block_values = min(rows_per_block, m) * u
    block_bytes = (BLOCK_VALUE_BYTES * block_values + ROW_OUTPUT_BYTES * (m + 1)
                   + BLOCK_OUTPUT_BYTES * -(-m // rows_per_block) + 16 * cells)
    if cells:
        charge(f"slot tables of {cells} (base, X_d) cells", 16 * cells)
        # A point's cell is base_id * width + (X_d - low) + 1, so each base's
        # first cell and the last one stay empty: there land the values
        # below low (clipped to low - 1) and above high (to high + 1).
        run_size = np.bincount(base_id * width + (coords[order, -1] - low) + 1, minlength=cells)
        run_start = np.cumsum(run_size)
        run_start -= run_size
        below, above = max(low - 1, INT64_MIN), min(high + 1, INT64_MAX)
        base_cells = np.arange(1, u * width, width)[:, None]
    else:
        # X_d is only compared for equality, so the join key is (base id,
        # rank of X_d among its distinct values): no arithmetic touches X_d.
        lasts, last_rank = np.unique(coords[:, -1], return_inverse=True)
        keys = base_id * len(lasts) + last_rank[order]  # rising, < n**2
        # The points sharing one key form the run order[run_start : run_start + run_size].
        run_start = np.flatnonzero(np.diff(keys, prepend=-1))
        run_keys, run_size = keys[run_start], np.diff(run_start, append=n)
        base_keys = np.arange(0, u * len(lasts), len(lasts))[:, None]
        del keys, last_rank
    del ordered, new_base, base_id
    in_order = bool((order[1:] > order[:-1]).all())
    charge(f"join blocks of {block_values} values and the rows of {m} hyperplanes", block_bytes)
    indices, row_lengths, joined = [], [], 0
    for lo in range(0, m, rows_per_block):
        hi = min(lo + rows_per_block, m)
        # Base-major: row b of `values` holds every hyperplane at base b.
        values = bases @ family.slopes[lo:hi].T + family.offsets[lo:hi]
        if cells:
            run = np.clip(values, below, above) - low + base_cells  # clipped first: no wrap
            count = run_size[run]
        else:
            rank = np.minimum(np.searchsorted(lasts, values), len(lasts) - 1)
            key = base_keys + rank
            run = np.minimum(np.searchsorted(run_keys, key), len(run_keys) - 1)
            count = np.where((lasts[rank] == values) & (run_keys[run] == key), run_size[run], 0)
            del rank, key
        del values  # only run and count outlive the match
        joined += (new := int(count.sum()))
        charge(f"{joined} incidences", INCIDENCE_BYTES * (joined + new) + block_bytes)
        lengths = count.sum(axis=0)
        if in_order:
            # Hyperplane-major: each row's points come out in increasing index order.
            run, count = run.T, count.T
        count = count.ravel()
        run_offset = run_start[run].ravel() - (np.cumsum(count) - count)
        point = order[np.arange(new) + np.repeat(run_offset, count)]
        if not in_order:
            # (row, point index) rises within each base, so a stable sort merges
            # u sorted runs.  row < INCIDENCE_BLOCK keeps row * n small.
            row = np.repeat(np.tile(np.arange(hi - lo), u), count)
            point = np.sort(row * n + point, kind="stable") % n
            del row
        indices.append(point)
        row_lengths.append(lengths)
        del run, count, run_offset, point  # only the block's output outlives it

    indptr = np.concatenate(([0], *row_lengths)).cumsum()
    indices = np.concatenate(indices)  # frees the blocks before the graph checks them
    return IncidenceGraph(point_count=n, indptr=indptr, indices=indices)


def richness_histogram(graph: IncidenceGraph) -> dict[int, int]:
    """Map richness value -> number of hyperplanes with that many incidences.

    A valid construction yields the single entry {t: m}.
    """
    sizes, rows_of_size = np.unique(np.diff(graph.indptr), return_counts=True)
    return dict(zip(sizes.tolist(), rows_of_size.tolist()))


def _pair_code(n: int) -> type:
    """The dtype of the pair codes i*n + j: uint32 while n*n fits it."""
    return np.uint32 if n * n <= 2**32 else np.uint64


def _pair_bytes(pairs: int, incidences: int, n: int) -> int:
    """Peak bytes of pair_coverage: a code per pair and per enumerated incidence, 16
    bytes per incidence (a row of 2+ holds 25: length, start, gather), one scan slice."""
    size = np.dtype(_pair_code(n)).itemsize
    return (pairs + incidences) * size + 16 * incidences + PAIR_SCAN_SLICE


def pair_coverage(graph: IncidenceGraph) -> tuple[int, Optional[tuple[int, int]]]:
    """Maximum number of hyperplanes through any two distinct points.

    Enumerates each hyperplane's C(len, 2) incident point pairs and counts
    duplicates, which costs O(m * t^2) instead of the O(n^2 * m) point-pair
    scan; t is small by design while n^2 is not.  Rows of equal length form
    one block, enumerated once their bytes (_pair_bytes) are charged; runs in
    the sorted codes are found by scans over bounded slices (_first_run).
    Returns the max count and the lexicographically smallest witness pair
    attaining it (None when no hyperplane covers two points).
    """
    lengths = np.diff(graph.indptr)
    sizes, rows_of_size = np.unique(lengths, return_counts=True)
    n = graph.point_count
    if n > MAX_POINTS:
        # Pair codes i*n + j must fit in uint64, i.e. n**2 - 1 < 2**64.
        raise ArithmeticOverflow(f"point count {n} exceeds the {MAX_POINTS} cap")
    code = _pair_code(n)
    wide = sizes >= 2
    blocks = list(zip(sizes[wide].tolist(), rows_of_size[wide].tolist()))
    pairs = sum(k * size * (size - 1) // 2 for size, k in blocks)
    incidences = sum(k * size for size, k in blocks)
    charge(f"{pairs} point pairs", _pair_bytes(pairs, incidences, n))
    merged = np.empty(pairs, code)
    if not merged.size:
        return 0, None
    end = 0
    for size, k in blocks:
        at = graph.indptr[:-1][lengths == size]  # a copy, so it may step in place
        block = np.empty((size, k), code)  # block[i]: the i-th point of every row
        for i in range(size):
            block[i] = graph.indices[at]
            at += 1
        for i in range(size - 1):
            # Pairs (i, j > i) of every row.  Pairs within one hyperplane are
            # distinct, so duplicates only come from hyperplanes sharing a pair.
            start, end = end, end + (size - 1 - i) * k
            np.add(block[i] * code(n), block[i + 1 :], out=merged[start:end].reshape(-1, k))

    merged.sort()
    # k equal codes start at i iff merged[i] == merged[i + k - 1].  Double k, then bisect:
    # a run of `best` first starts at `at` (no longer run starts sooner), none of `over`
    # (once set) exists.  The first longest run has the least code: the witness pair.
    best, at, over = 1, 0, 0
    while over != best + 1:
        k = (best + over) // 2 if over else 2 * best
        start = _first_run(merged, k, at)
        best, at, over = (best, at, k) if start is None else (k, start, over)
    return best, divmod(int(merged[at]), n)


def _first_run(codes: np.ndarray, k: int, begin: int) -> Optional[int]:
    """First i >= begin with codes[i] == codes[i + k - 1], PAIR_SCAN_SLICE at a time."""
    stop = len(codes) - k + 1
    for lo in range(begin, stop, PAIR_SCAN_SLICE):
        hi = min(lo + PAIR_SCAN_SLICE, stop)
        equal = codes[lo:hi] == codes[lo + k - 1 : hi + k - 1]
        if equal.any():
            return lo + int(equal.argmax())
    return None


def charge_verify(params: InstanceParams) -> int:
    """Charge, and return, the bytes verify_instance may hold at once on params.

    Sums each phase's peak on the family that params generate: per point its
    int64 row, generate_points' copy and the join's order and slot tables
    (the grid has n + s**(d-1) + 1 cells of 16 bytes), per hyperplane
    its int64 rows (three copies in np.indices) and counters, one block of the
    join's per-value scratch, INCIDENCE_BYTES per incidence, and _pair_bytes.
    The tracemalloc peak of verify_instance was 41-84% of it at d = 2..4, n =
    2**10..2**16.  It needs nothing generated, so gen charges it too.
    """
    n, d, t, m = params.n, params.d, params.t, params.m
    cost = (
        n * (80 + 16 * d) + m * (24 * d + 32)
        + BLOCK_VALUE_BYTES * min(m * t, INCIDENCE_BLOCK + t) + INCIDENCE_BYTES * m * t + 2**16
        + _pair_bytes(m * t * (t - 1) // 2, m * t, n)
    )
    charge(f"verify of n = {n}, t = {t}, m = {m}: its points, incidences and pair codes", cost)
    return cost


def verify_instance(doc: InstanceDocument) -> dict:
    """Check a loaded instance against its own params; the `srlb verify` report.

    Richness must be exactly {t: m}, no two points may share more than
    A**(d-2) hyperplanes, and every hyperplane must stay inside the grid at
    the top corner of the base.  Sections missing from the document are
    regenerated from params once charge_verify has admitted them; a stored
    section need not match params, so the join and pair_coverage charge
    what they allocate by its actual size.  The join and the containment
    check share one family.
    """
    params = doc.params
    charge_verify(params)
    points = doc.points if doc.points is not None else generate_points(params)
    family = doc.hyperplanes if doc.hyperplanes is not None else generate_hyperplanes(params)
    graph = build_incidence_graph(points, family)
    histogram = richness_histogram(graph)
    max_common, _ = pair_coverage(graph)
    beta_bound = params.pair_coverage_bound()
    return {
        "richness_exact": histogram == {params.t: params.m},
        "max_pair_coverage": max_common,
        "beta_bound": beta_bound,
        "k2beta_free": max_common <= beta_bound,
        "containment_ok": _contained_at_top_corner(family, params),
    }


def _contained_at_top_corner(family: HyperplaneFamily, params: InstanceParams) -> bool:
    """Whether 1 <= b + s * sum(a_i) <= n/t for every hyperplane.

    Decides as eval_hyperplane would, taking the hyperplanes in turn: the
    rows before the first whose value could wrap (_first_row_over) are
    evaluated at once in int64, and only if all of them lie inside the grid
    does that row raise ArithmeticOverflow.  A family of another dimension
    raises DimensionMismatch.
    """
    if not family:
        return True
    top = (params.s,) * (params.d - 1)
    if family.d != params.d:
        eval_hyperplane(family[0], top)  # raises DimensionMismatch
    over = _first_row_over(family, top)
    values = family.slopes[:over] @ np.array(top, dtype=np.int64) + family.offsets[:over]
    inside = bool(((1 <= values) & (values <= params.rows)).all())
    if inside and over < len(family):
        eval_hyperplane(family[over], top)  # raises ArithmeticOverflow
    return inside


def bound_report(params: InstanceParams) -> dict:
    """The alpha = 2 space bound for the instance, as `gen` and `bound` print it.

    beta = A**(d-2) + 1 and the figure of merit is m*t/beta, the framework
    bound with the 2^O(alpha) factor normalized to 1 (it is a constant for
    alpha = 2 but its value is not recoverable).  The predicted query
    exponent at linear space is (d-1)/d.  Both rationals are exact, as
    {"num", "den"} in lowest terms.
    """
    beta = params.pair_coverage_bound() + 1
    merit = Fraction(params.m * params.t, beta)
    exponent = Fraction(params.d - 1, params.d)
    return {
        "m": params.m,
        "t": params.t,
        "alpha": 2,
        "beta": beta,
        "figure_of_merit": {"num": merit.numerator, "den": merit.denominator},
        "exponent": {"num": exponent.numerator, "den": exponent.denominator},
    }
