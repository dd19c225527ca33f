"""Instrumented simplex range reporting over integer points.

A kd-tree with exact median splits answers queries given as intersections
of closed integer halfspaces, each one row normal . x <= offset.  Traversal
classifies each subtree's integer bounding box against every still-active
row: Outside subtrees are pruned, subtrees Inside all rows are reported
wholesale without per-point tests, and only Crossing subtrees are
descended.  All predicates are exact integer arithmetic; there is no
epsilon anywhere, which is what lets a two-sided slab select exactly the
points on a hyperplane.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ArithmeticOverflow, DimensionMismatch, EmptyInput
from .exact import MAX_POINTS, checked_dot, envelope, int64_rows
from .geometry import GridPoint, Hyperplane, InstanceParams, point_table

DEFAULT_LEAF_CAPACITY = 4


@dataclass(frozen=True)
class SimplexQuery:
    """1 to d+1 closed halfspaces, row i being normals[i] . x <= offsets[i]
    (a >= constraint is stored negated), checked once, when made: the shape,
    then one int64_rows call over the rows (*normal, offset).  The rows are
    stored as tuples of Python ints, whatever integers they came in."""

    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(part, (list, tuple)) for part in (self.offsets, *self.normals)):
            raise ValueError("a query's normals and offsets must be lists or tuples")
        rows = len(self.normals)
        if not rows or rows != len(self.offsets):
            raise ValueError(f"{rows} normals, {len(self.offsets)} offsets: need n >= 1 of each")
        dims = set(map(len, self.normals))
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed constraint dimensions: {sorted(dims)}")
        if not all(map(any, self.normals)):
            raise ValueError("halfspace normal must not be the zero vector")
        if rows > self.d + 1:
            raise ValueError(f"{rows} constraints exceed the d+1 = {self.d + 1} cap")
        table = int64_rows([(*c, b) for c, b in zip(self.normals, self.offsets)], self.d + 1,
                           "a query row")
        object.__setattr__(self, "normals", tuple(map(tuple, table[:, :-1].tolist())))
        object.__setattr__(self, "offsets", tuple(table[:, -1].tolist()))

    @property
    def d(self) -> int:
        return len(self.normals[0])


@dataclass
class QueryStats:
    """Instrumentation for one query.

    points_tested counts only individual point tests at leaves; points
    reported wholesale from subtrees Inside all constraints are charged to
    the output size k, not to points_tested.
    """

    nodes_visited: int = 0
    leaves_scanned: int = 0
    points_reported: int = 0
    points_tested: int = 0


class BoxRelation(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    CROSSING = "crossing"


def classify_box(
    lo: Sequence[int], hi: Sequence[int], normal: Sequence[int], offset: int
) -> BoxRelation:
    """Classify an integer box against the closed halfspace normal . x <= offset, exactly.

    Evaluates normal . x at the two extreme box vertices picked per the
    sign of each normal component: Inside iff the largest value is at most
    offset, Outside iff the smallest exceeds it.
    """
    if len(lo) != len(hi) or len(lo) != len(normal):
        raise DimensionMismatch(
            f"box is {len(lo)}/{len(hi)}-dimensional, normal has {len(normal)} components"
        )
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError(f"degenerate box: lo={tuple(lo)} hi={tuple(hi)}")
    vmin = checked_dot(normal, [l if c > 0 else h for c, l, h in zip(normal, lo, hi)])
    vmax = checked_dot(normal, [h if c > 0 else l for c, l, h in zip(normal, lo, hi)])
    if vmax <= offset:
        return BoxRelation.INSIDE
    return BoxRelation.OUTSIDE if vmin > offset else BoxRelation.CROSSING


@dataclass(frozen=True)
class KdTree:
    """Static kd-tree over integer points; immutable after build.

    Points are never copied into nodes: `order` is a build-time permutation
    of point indices and every node owns one contiguous slice of it, so a
    subtree Inside all constraints is reported by emitting its slice in
    stored order.  Node i has children 2i+1 and 2i+2, and a slice of more
    than leaf_capacity points splits at start + (end - start) // 2, so n
    and leaf_capacity fix the shape.  boxes[i] is node i's (lo, hi) as
    Python ints, or None where the shape has no node i.  The fields are
    plain lists and tuples, so two builds over the same input compare
    equal with ==.
    """

    points: list[GridPoint]
    order: list[int]
    leaf_capacity: int
    boxes: list[Optional[tuple[tuple[int, ...], tuple[int, ...]]]]

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def node_count(self) -> int:
        return len(self.boxes) - self.boxes.count(None)


def build_kdtree(points: np.ndarray, leaf_capacity: int = DEFAULT_LEAF_CAPACITY) -> KdTree:
    """Balanced kd-tree: median splits with axes cycling 0, 1, ..., d-1.

    Median ties are broken by point index, so the build is deterministic
    for a given input order.  Split invariant: on the split axis, every
    coordinate in the left subtree is <= every coordinate in the right,
    with the tie-broken index order deciding equal coordinates.

    The tree is built level by level over the point table: one argsort
    of slice * n + rank orders every inner slice at depth l by its points'
    ranks in (coordinate on axis l mod d, index) order, taken once per axis;
    an inner slice holds two points or more, so keys < n**2 / 2 <= 2**63.
    The midpoint rule gives the next level's slices, and at the end each
    level's boxes come from one min/max reduction over the ordered coordinates.
    """
    coords = point_table(points)
    n, dim = coords.shape
    if not n:
        raise EmptyInput("cannot build a tree over zero points")
    if leaf_capacity < 1:
        raise ValueError(f"leaf capacity must be >= 1, got {leaf_capacity}")
    if n > MAX_POINTS:
        raise ArithmeticOverflow(f"{n} points exceed the cap of {MAX_POINTS}")

    ranks = np.argsort(np.argsort(coords, axis=0, kind="stable"), axis=0)
    order = np.arange(n, dtype=np.int64)
    # Each level's heap numbers and [start, end) slices of order.
    levels = [(np.zeros(1, np.int64), np.zeros(1, np.int64), np.full(1, n, np.int64))]
    while True:
        nodes, starts, ends = levels[-1]
        inner = ends - starts > leaf_capacity
        if not inner.any():
            break
        nodes, starts, ends = nodes[inner], starts[inner], ends[inner]
        axis = (len(levels) - 1) % dim
        # Sort every inner slice at once; leaf slices keep their positions.
        sizes = ends - starts
        slice_ids = np.repeat(np.arange(len(sizes)), sizes)
        positions = np.arange(len(slice_ids)) + (starts - np.cumsum(sizes) + sizes)[slice_ids]
        members = order[positions]
        order[positions] = members[np.argsort(slice_ids * n + ranks[members, axis])]
        mids = starts + sizes // 2
        levels.append((
            np.stack((2 * nodes + 1, 2 * nodes + 2), axis=1).ravel(),
            np.stack((starts, mids), axis=1).ravel(),
            np.stack((mids, ends), axis=1).ravel(),
        ))

    # A node's box depends only on its slice's point set, which the later
    # levels permute but never change.  reduceat over the interleaved
    # [start, end) bounds reduces each slice; the extra row lets an end
    # equal n.
    ordered = np.zeros((n + 1, dim), dtype=np.int64)
    ordered[:n] = coords[order]
    # The deepest level's last node has the largest heap number.
    boxes: list[Optional[tuple[tuple[int, ...], tuple[int, ...]]]] = [None] * (
        int(levels[-1][0][-1]) + 1
    )
    for nodes, starts, ends in levels:
        bounds = np.stack((starts, ends), axis=1).ravel()
        lo = np.minimum.reduceat(ordered, bounds, axis=0)[::2].tolist()
        hi = np.maximum.reduceat(ordered, bounds, axis=0)[::2].tolist()
        for node, l, h in zip(nodes.tolist(), lo, hi):
            boxes[node] = (tuple(l), tuple(h))
    return KdTree(
        points=list(zip(*coords.T.tolist())),
        order=order.tolist(),
        leaf_capacity=leaf_capacity,
        boxes=boxes,
    )


def _check_envelope(q: SimplexQuery, max_abs: Sequence[int]) -> None:
    """Refuse q unless it has the points' dimension and keeps each normal's
    sum(|c_i| * max_abs_i) within int64.  query and brute_force_query both call
    this before anything is pruned, so they raise the same error on the same queries."""
    if q.d != len(max_abs):
        raise DimensionMismatch(f"query is {q.d}-dimensional,"
                                f" points are {len(max_abs)}-dimensional")
    for normal in q.normals:
        checked_dot(map(abs, normal), max_abs)


def query(tree: KdTree, q: SimplexQuery) -> tuple[list[int], QueryStats]:
    """The ascending ids of the stored points satisfying every row, with stats.

    Rows found Inside a subtree's box are dropped for that subtree's
    descendants; once none remain the whole slice is emitted untested.
    """
    # The root box spans the points, so its per-axis max(|lo|, |hi|) is their envelope.
    _check_envelope(q, [max(abs(lo), abs(hi)) for lo, hi in zip(*tree.boxes[0])])
    stats = QueryStats()
    out: list[int] = []
    points, order, boxes, capacity = tree.points, tree.order, tree.boxes, tree.leaf_capacity

    def visit(node: int, start: int, end: int, active: tuple[tuple, ...]) -> None:
        stats.nodes_visited += 1
        lo, hi = boxes[node]
        remaining = []
        for row in active:
            rel = classify_box(lo, hi, *row)
            if rel is BoxRelation.OUTSIDE:
                return
            if rel is BoxRelation.CROSSING:
                remaining.append(row)
        if not remaining:
            out.extend(order[start:end])
            return
        if end - start <= capacity:
            stats.leaves_scanned += 1
            for i in order[start:end]:
                stats.points_tested += 1
                if all(checked_dot(normal, points[i]) <= offset for normal, offset in remaining):
                    out.append(i)
            return
        mid = start + (end - start) // 2
        visit(2 * node + 1, start, mid, tuple(remaining))
        visit(2 * node + 2, mid, end, tuple(remaining))

    visit(0, 0, tree.n, tuple(zip(q.normals, q.offsets)))
    stats.points_reported = len(out)
    out.sort()
    return out, stats


def slab_query_for(h: Hyperplane) -> SimplexQuery:
    """Two-sided slab whose solution set is exactly the hyperplane.

    X_d = b + sum(a_i X_i) is the pair of rows (-a, 1) . x <= b and
    (a, -1) . x <= -b; both closed halfspaces share that boundary, so on
    integer input the query reports exactly the incident grid points.
    """
    normal = (*(-c for c in h.a), 1)
    return SimplexQuery((normal, tuple(-c for c in normal)), (h.b, -h.b))


def brute_force_query(points: np.ndarray, q: SimplexQuery) -> np.ndarray:
    """Ground-truth scan of the point table, exact; the ascending ids of the rows it reports.

    Tests normals @ coords.T, one row per constraint, and reduces over the constraints:
    numpy does that several times faster than it reduces a (points, rows) table by row."""
    coords = point_table(points)
    _check_envelope(q, envelope(coords))
    inside = np.array(q.normals, np.int64) @ coords.T <= np.array(q.offsets, np.int64)[:, None]
    return np.flatnonzero(inside.all(axis=0))


def random_simplex_queries(
    params: InstanceParams, count: int, rng: random.Random
) -> list[SimplexQuery]:
    """Seeded random queries: integer normals in [-A, A], offsets spanning the grid.

    Each query has 1 to d+1 rows, a last draw negating a row or not.  Offsets
    come from the exact range the normal attains over the grid bounding box,
    so queries neither trivially contain nor trivially miss the point set.
    """
    lo = (1,) * params.d
    hi = (params.s,) * (params.d - 1) + (params.rows,)
    queries = []
    for _ in range(count):
        normals, offsets = [], []
        for _ in range(rng.randint(1, params.d + 1)):
            normal = (0,) * params.d
            while not any(normal):
                normal = tuple(rng.randint(-params.A, params.A) for _ in range(params.d))
            vmin = sum(c * (l if c > 0 else h) for c, l, h in zip(normal, lo, hi))
            vmax = sum(c * (h if c > 0 else l) for c, l, h in zip(normal, lo, hi))
            offset, sign = rng.randint(vmin, vmax), rng.choice((1, -1))
            normals.append([sign * c for c in normal])
            offsets.append(sign * offset)
        queries.append(SimplexQuery(normals, offsets))
    return queries
