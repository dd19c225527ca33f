"""Instrumented simplex range reporting over integer points.

A kd-tree with exact median splits answers queries given as intersections
of closed integer halfspaces.  Traversal classifies each subtree's integer
bounding box against every still-active constraint: Outside subtrees are
pruned, subtrees Inside all constraints are reported wholesale without
per-point tests, and only Crossing subtrees are descended.  All predicates
are exact integer arithmetic; there is no epsilon anywhere, which is what
lets a two-sided slab select exactly the points on a hyperplane.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyInput
from .exact import as_int64_array, checked_dot, envelope, int64_rows
from .geometry import GridPoint, Hyperplane, InstanceParams

SENSE_LE = "le"
SENSE_GE = "ge"

DEFAULT_LEAF_CAPACITY = 4


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace: normal . x <= offset (sense 'le') or >= offset ('ge')."""

    normal: tuple[int, ...]
    offset: int
    sense: str

    def __post_init__(self) -> None:
        if all(c == 0 for c in self.normal):
            raise ValueError("halfspace normal must not be the zero vector")
        if self.sense not in (SENSE_LE, SENSE_GE):
            raise ValueError(f"sense must be 'le' or 'ge', got {self.sense!r}")

    def contains(self, p: GridPoint) -> bool:
        value = checked_dot(self.normal, p)
        return value <= self.offset if self.sense == SENSE_LE else value >= self.offset


@dataclass(frozen=True)
class SimplexQuery:
    """Intersection of 1 to d+1 closed halfspaces."""

    constraints: tuple[Halfspace, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("a query needs at least one halfspace")
        dims = {len(c.normal) for c in self.constraints}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed constraint dimensions: {sorted(dims)}")
        if len(self.constraints) > self.d + 1:
            raise ValueError(
                f"{len(self.constraints)} constraints exceed the d+1 = {self.d + 1} cap"
            )

    @property
    def d(self) -> int:
        return len(self.constraints[0].normal)


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
    lo: Sequence[int], hi: Sequence[int], h: Halfspace
) -> BoxRelation:
    """Classify an integer box against a closed halfspace, exactly.

    Evaluates normal . x at the two extreme box vertices picked per the
    sign of each normal component: Inside iff the worst vertex satisfies
    the constraint, Outside iff the best vertex violates it.
    """
    if len(lo) != len(hi) or len(lo) != len(h.normal):
        raise DimensionMismatch(
            f"box is {len(lo)}/{len(hi)}-dimensional, normal has {len(h.normal)} components"
        )
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError(f"degenerate box: lo={tuple(lo)} hi={tuple(hi)}")
    vmin = checked_dot(h.normal, [l if c > 0 else h_ for c, l, h_ in zip(h.normal, lo, hi)])
    vmax = checked_dot(h.normal, [h_ if c > 0 else l for c, l, h_ in zip(h.normal, lo, hi)])
    if h.sense == SENSE_LE:
        if vmax <= h.offset:
            return BoxRelation.INSIDE
        if vmin > h.offset:
            return BoxRelation.OUTSIDE
    else:
        if vmin >= h.offset:
            return BoxRelation.INSIDE
        if vmax < h.offset:
            return BoxRelation.OUTSIDE
    return BoxRelation.CROSSING


@dataclass(frozen=True)
class KdTree:
    """Static kd-tree over integer points; immutable after build.

    Points are never copied into nodes: `order` is a build-time permutation
    of point indices and every node owns one contiguous slice of it, so a
    subtree Inside all constraints is reported by emitting its slice in
    stored order.  Node i has children 2i+1 and 2i+2, and a slice of more
    than leaf_capacity points splits at start + (end - start) // 2, so n
    and leaf_capacity fix the shape.  boxes[i] is node i's (lo, hi) as
    Python ints, or None where the shape has no node i.
    """

    points: list[GridPoint]
    order: list[int]
    dim: int
    leaf_capacity: int
    boxes: list[Optional[tuple[tuple[int, ...], tuple[int, ...]]]]

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def node_count(self) -> int:
        return len(self.boxes) - self.boxes.count(None)

    @property
    def leaf_count(self) -> int:
        return (self.node_count + 1) // 2  # every inner node has two children

    @property
    def depth(self) -> int:
        return len(self.boxes).bit_length()


def build_kdtree(
    points: Sequence[GridPoint], leaf_capacity: int = DEFAULT_LEAF_CAPACITY
) -> KdTree:
    """Balanced kd-tree: median splits with axes cycling 0, 1, ..., d-1.

    Median ties are broken by point index, so the build is deterministic
    for a given input order.  Split invariant: on the split axis, every
    coordinate in the left subtree is <= every coordinate in the right,
    with the tie-broken index order deciding equal coordinates.
    """
    if not points:
        raise EmptyInput("cannot build a tree over zero points")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise DimensionMismatch("points have mixed dimensions")
    if leaf_capacity < 1:
        raise ValueError(f"leaf capacity must be >= 1, got {leaf_capacity}")

    coords = int64_rows(points, dim, "point coordinates")
    order = np.arange(len(points), dtype=np.int64)
    boxes: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def build(node: int, start: int, end: int, axis: int) -> None:
        slice_idx = order[start:end]
        block = coords[slice_idx]
        boxes[node] = (tuple(block.min(axis=0).tolist()), tuple(block.max(axis=0).tolist()))
        if end - start <= leaf_capacity:
            return
        order[start:end] = slice_idx[np.lexsort((slice_idx, block[:, axis]))]
        mid = start + (end - start) // 2
        build(2 * node + 1, start, mid, (axis + 1) % dim)
        build(2 * node + 2, mid, end, (axis + 1) % dim)

    build(0, 0, len(points), 0)
    return KdTree(
        points=list(points),
        order=order.tolist(),
        dim=dim,
        leaf_capacity=leaf_capacity,
        boxes=[boxes.get(i) for i in range(max(boxes) + 1)],
    )


def query(tree: KdTree, q: SimplexQuery) -> tuple[list[GridPoint], QueryStats]:
    """Report every stored point satisfying all constraints, with stats.

    Constraints found Inside a subtree's box are dropped for that subtree's
    descendants; once none remain the whole slice is emitted untested.
    """
    if q.d != tree.dim:
        raise DimensionMismatch(
            f"query is {q.d}-dimensional, tree stores {tree.dim}-dimensional points"
        )
    stats = QueryStats()
    out: list[int] = []
    points, order, boxes, capacity = tree.points, tree.order, tree.boxes, tree.leaf_capacity

    def visit(node: int, start: int, end: int, active: tuple[Halfspace, ...]) -> None:
        stats.nodes_visited += 1
        lo, hi = boxes[node]
        remaining = []
        for h in active:
            rel = classify_box(lo, hi, h)
            if rel is BoxRelation.OUTSIDE:
                return
            if rel is BoxRelation.CROSSING:
                remaining.append(h)
        if not remaining:
            out.extend(order[start:end])
            return
        if end - start <= capacity:
            stats.leaves_scanned += 1
            for i in order[start:end]:
                stats.points_tested += 1
                if all(h.contains(points[i]) for h in remaining):
                    out.append(i)
            return
        mid = start + (end - start) // 2
        visit(2 * node + 1, start, mid, tuple(remaining))
        visit(2 * node + 2, mid, end, tuple(remaining))

    visit(0, 0, tree.n, q.constraints)
    stats.points_reported = len(out)
    return [points[i] for i in out], stats


def slab_query_for(h: Hyperplane) -> SimplexQuery:
    """Two-sided slab whose solution set is exactly the hyperplane.

    X_d = b + sum(a_i X_i) rearranges to -sum(a_i X_i) + X_d = b; both
    closed halfspaces share that boundary, so on integer input the query
    reports exactly the incident grid points.
    """
    normal = tuple(-c for c in h.a) + (1,)
    return SimplexQuery(
        constraints=(
            Halfspace(normal=normal, offset=h.b, sense=SENSE_LE),
            Halfspace(normal=normal, offset=h.b, sense=SENSE_GE),
        )
    )


def brute_force_query(
    points: Sequence[GridPoint], q: SimplexQuery
) -> list[GridPoint]:
    """Ground-truth linear scan with exact constraint tests."""
    if points and len(points[0]) != q.d:
        raise DimensionMismatch(
            f"query is {q.d}-dimensional, points are {len(points[0])}-dimensional"
        )
    if not points:
        return []
    coords = int64_rows(points, q.d, "point coordinates")
    # Envelope check once per constraint: the column maxima bound every dot.
    max_abs = envelope(coords)
    mask = np.ones(len(points), dtype=bool)
    for h in q.constraints:
        checked_dot(map(abs, h.normal), max_abs)
        values = coords @ as_int64_array(h.normal, "halfspace normal")
        mask &= values <= h.offset if h.sense == SENSE_LE else values >= h.offset
    return [points[i] for i in np.flatnonzero(mask)]


def random_simplex_queries(
    params: InstanceParams, count: int, rng: random.Random
) -> list[SimplexQuery]:
    """Seeded random queries: integer normals in [-A, A], offsets spanning the grid.

    Each query uses 1 to d+1 halfspaces.  Offsets are drawn from the exact
    range the normal attains over the grid bounding box, so queries neither
    trivially contain nor trivially miss the point set.
    """
    lo = (1,) * params.d
    hi = (params.s,) * (params.d - 1) + (params.rows,)
    queries = []
    for _ in range(count):
        constraints = []
        for _ in range(rng.randint(1, params.d + 1)):
            normal = (0,) * params.d
            while all(c == 0 for c in normal):
                normal = tuple(rng.randint(-params.A, params.A) for _ in range(params.d))
            vmin = sum(c * (l if c > 0 else h) for c, l, h in zip(normal, lo, hi))
            vmax = sum(c * (h if c > 0 else l) for c, l, h in zip(normal, lo, hi))
            constraints.append(
                Halfspace(
                    normal=normal,
                    offset=rng.randint(vmin, vmax),
                    sense=rng.choice((SENSE_LE, SENSE_GE)),
                )
            )
        queries.append(SimplexQuery(constraints=tuple(constraints)))
    return queries
