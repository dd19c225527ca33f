import math
import random

import numpy as np
import pytest

from srlb.errors import ArithmeticOverflow, DimensionMismatch, EmptyInput
from srlb.exact import INT64_MAX
from srlb.geometry import (
    Hyperplane,
    generate_hyperplanes,
    generate_points,
    incident_points,
    normalize_params,
)
from srlb.reporting import (
    BoxRelation,
    Halfspace,
    QueryStats,
    SimplexQuery,
    brute_force_query,
    build_kdtree,
    classify_box,
    query,
    random_simplex_queries,
    slab_query_for,
)


class TestHalfspaceAndQueryTypes:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace(normal=(0, 0), offset=1, sense="le")

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            Halfspace(normal=(1, 0), offset=1, sense="<=")

    def test_constraint_count_cap(self):
        h = Halfspace(normal=(1, 0), offset=5, sense="le")
        with pytest.raises(ValueError):
            SimplexQuery(constraints=(h,) * 4)
        with pytest.raises(ValueError):
            SimplexQuery(constraints=())

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            SimplexQuery(
                constraints=(
                    Halfspace(normal=(1, 0), offset=1, sense="le"),
                    Halfspace(normal=(1, 0, 0), offset=1, sense="le"),
                )
            )

    def test_contains_is_closed(self):
        h = Halfspace(normal=(2, -1), offset=3, sense="le")
        assert h.contains((2, 1)) is True  # 4 - 1 = 3 on the boundary
        assert h.contains((2, 0)) is False


class TestClassifyBox:
    def test_outside_above(self):
        h = Halfspace(normal=(0, 1), offset=9, sense="ge")
        assert classify_box((1, 1), (2, 8), h) is BoxRelation.OUTSIDE

    def test_crossing_diagonal(self):
        # x_2 - x_1 >= 0: vertex (1,8) gives 7, vertex (2,1) gives -1.
        h = Halfspace(normal=(-1, 1), offset=0, sense="ge")
        assert classify_box((1, 1), (2, 8), h) is BoxRelation.CROSSING

    def test_boundary_box_inside_for_le(self):
        h = Halfspace(normal=(1, 1), offset=4, sense="le")
        assert classify_box((2, 2), (2, 2), h) is BoxRelation.INSIDE

    def test_flat_box_on_boundary_both_senses(self):
        # Box flat in x_2 sits entirely on x_2 = 3; closed halfspaces own it.
        le = Halfspace(normal=(0, 1), offset=3, sense="le")
        ge = Halfspace(normal=(0, 1), offset=3, sense="ge")
        assert classify_box((1, 3), (5, 3), le) is BoxRelation.INSIDE
        assert classify_box((1, 3), (5, 3), ge) is BoxRelation.INSIDE

    def test_inside_le(self):
        h = Halfspace(normal=(1, 0), offset=10, sense="le")
        assert classify_box((1, 1), (2, 8), h) is BoxRelation.INSIDE

    def test_degenerate_box_rejected(self):
        h = Halfspace(normal=(1, 0), offset=1, sense="le")
        with pytest.raises(ValueError):
            classify_box((2, 1), (1, 8), h)

    def test_dimension_mismatch(self):
        h = Halfspace(normal=(1, 0, 0), offset=1, sense="le")
        with pytest.raises(DimensionMismatch):
            classify_box((1, 1), (2, 8), h)

    def test_overflow(self):
        h = Halfspace(normal=(INT64_MAX, 1), offset=0, sense="le")
        with pytest.raises(ArithmeticOverflow):
            classify_box((2, 1), (3, 8), h)

    def test_exhaustive_against_vertex_scan(self):
        # Every vertex tested directly must reproduce the classification.
        rng = random.Random(7)
        for _ in range(300):
            lo = tuple(rng.randint(-5, 5) for _ in range(2))
            hi = tuple(l + rng.randint(0, 6) for l in lo)
            normal = (0, 0)
            while normal == (0, 0):
                normal = (rng.randint(-3, 3), rng.randint(-3, 3))
            h = Halfspace(normal=normal, offset=rng.randint(-20, 20),
                          sense=rng.choice(("le", "ge")))
            vertices = [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
            inside = [h.contains(v) for v in vertices]
            rel = classify_box(lo, hi, h)
            if all(inside):
                assert rel is BoxRelation.INSIDE
            elif not any(inside):
                assert rel is BoxRelation.OUTSIDE
            else:
                assert rel is BoxRelation.CROSSING


class TestBuildKdTree:
    def test_worked_small_tree(self, d2_instance):
        _, points, _ = d2_instance
        tree = build_kdtree(points, leaf_capacity=4)
        internal = tree.node_count - tree.leaf_count
        assert internal <= 7
        assert 4 <= tree.leaf_count <= 5
        assert sorted(tree.order) == list(range(16))

    def test_single_point(self):
        tree = build_kdtree([(3, 4)])
        assert tree.node_count == tree.leaf_count == 1
        assert tree.depth == 1
        assert tree.boxes == [((3, 4), (3, 4))]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_kdtree([])

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            build_kdtree([(1, 2), (1, 2, 3)])

    def test_bad_leaf_capacity(self):
        with pytest.raises(ValueError):
            build_kdtree([(1, 2)], leaf_capacity=0)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 100, 1000])
    @pytest.mark.parametrize("leaf_capacity", [1, 4, 16])
    def test_depth_bound_and_partition(self, n, leaf_capacity):
        rng = random.Random(n * 31 + leaf_capacity)
        points = [(rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 40))
                  for _ in range(n)]
        tree = build_kdtree(points, leaf_capacity=leaf_capacity)
        assert sorted(tree.order) == list(range(n))
        bound = math.ceil(math.log2(max(n / leaf_capacity, 1))) + 1
        assert tree.depth <= max(bound, 1)

    def test_structure_invariants(self, d3_instance):
        _, points, _ = d3_instance
        tree = build_kdtree(points, leaf_capacity=4)
        seen, leaf_levels = set(), []

        def walk(node, start, end, axis, level):
            seen.add(node)
            lo, hi = tree.boxes[node]
            block = [points[i] for i in tree.order[start:end]]
            for p in block:
                assert all(lo[ax] <= p[ax] <= hi[ax] for ax in range(3))
            if end - start <= tree.leaf_capacity:
                assert len(block) <= tree.leaf_capacity
                leaf_levels.append(level)
                return
            mid = start + (end - start) // 2
            left_coords = [p[axis] for p in block[: mid - start]]
            right_coords = [p[axis] for p in block[mid - start :]]
            assert max(left_coords) <= min(right_coords)
            walk(2 * node + 1, start, mid, (axis + 1) % 3, level + 1)
            walk(2 * node + 2, mid, end, (axis + 1) % 3, level + 1)

        walk(0, 0, tree.n, 0, 1)
        assert seen == {i for i, box in enumerate(tree.boxes) if box is not None}
        assert len(seen) == tree.node_count
        assert len(leaf_levels) == tree.leaf_count
        assert max(leaf_levels) == tree.depth

    def test_deterministic_build(self, d2_instance):
        _, points, _ = d2_instance
        t1 = build_kdtree(points, leaf_capacity=2)
        t2 = build_kdtree(points, leaf_capacity=2)
        assert t1.order == t2.order
        assert t1.node_count == t2.node_count


class TestQuery:
    def test_slab_reports_exactly_the_line(self, d2_instance):
        params, points, _ = d2_instance
        tree = build_kdtree(points)
        reported, stats = query(tree, slab_query_for(Hyperplane(a=(1,), b=1)))
        assert set(reported) == {(1, 2), (2, 3)}
        assert stats.points_reported == 2 == params.t

    def test_whole_grid_halfspace_short_circuits(self, d2_instance):
        _, points, _ = d2_instance
        tree = build_kdtree(points)
        q = SimplexQuery((Halfspace(normal=(0, 1), offset=100, sense="le"),))
        reported, stats = query(tree, q)
        assert len(reported) == 16
        assert stats.nodes_visited == 1
        assert stats.points_tested == 0

    def test_contradictory_halfspaces_empty(self, d2_instance):
        _, points, _ = d2_instance
        tree = build_kdtree(points)
        q = SimplexQuery(
            (
                Halfspace(normal=(1, 0), offset=0, sense="le"),
                Halfspace(normal=(1, 0), offset=1, sense="ge"),
            )
        )
        reported, stats = query(tree, q)
        assert reported == []
        assert stats.points_reported == 0

    def test_dimension_mismatch(self, d2_instance):
        _, points, _ = d2_instance
        tree = build_kdtree(points)
        with pytest.raises(DimensionMismatch):
            query(tree, SimplexQuery((Halfspace(normal=(1, 0, 0), offset=1, sense="le"),)))

    def test_no_duplicates_in_output(self, d3_instance):
        _, points, _ = d3_instance
        tree = build_kdtree(points)
        q = SimplexQuery((Halfspace(normal=(1, 1, -1), offset=0, sense="le"),))
        reported, _ = query(tree, q)
        assert len(reported) == len(set(reported))

    def test_deterministic_stats(self, d3_instance):
        _, points, _ = d3_instance
        tree = build_kdtree(points)
        q = SimplexQuery((Halfspace(normal=(1, -2, 1), offset=3, sense="ge"),))
        r1, s1 = query(tree, q)
        r2, s2 = query(tree, q)
        assert r1 == r2 and s1 == s2

    def test_leaf_reported_points_were_tested(self, d2_instance):
        # Slab boxes are never Inside both sides unless flat on the plane,
        # so every reported point here comes from a leaf test.
        _, points, _ = d2_instance
        tree = build_kdtree(points)
        for a in (1, 2):
            for b in (1, 2, 3, 4):
                _, stats = query(tree, slab_query_for(Hyperplane(a=(a,), b=b)))
                assert stats.points_reported <= stats.points_tested

    def test_output_sensitivity(self, d3_instance):
        # Per-point work happens only in scanned (crossing) leaves.
        params, points, _ = d3_instance
        tree = build_kdtree(points, leaf_capacity=4)
        rng = random.Random(11)
        for q in random_simplex_queries(params, 100, rng):
            _, stats = query(tree, q)
            assert stats.points_tested <= stats.leaves_scanned * tree.leaf_capacity
            assert stats.leaves_scanned <= stats.nodes_visited


class TestSlabQuery:
    def test_structure(self):
        q = slab_query_for(Hyperplane(a=(1,), b=1))
        assert [c.sense for c in q.constraints] == ["le", "ge"]
        assert all(c.normal == (-1, 1) and c.offset == 1 for c in q.constraints)

    def test_3d_structure(self):
        q = slab_query_for(Hyperplane(a=(2, 3), b=5))
        assert all(c.normal == (-2, -3, 1) and c.offset == 5 for c in q.constraints)

    @pytest.mark.parametrize("d,n,t", [(2, 16, 2), (3, 96, 4), (2, 1012, 22)])
    def test_every_family_slab_reports_exactly_t(self, d, n, t):
        params = normalize_params(d, n, t)
        points = generate_points(params)
        tree = build_kdtree(points)
        for h in generate_hyperplanes(params):
            reported, stats = query(tree, slab_query_for(h))
            assert stats.points_reported == params.t
            assert set(reported) == set(incident_points(h, params))


class TestBruteForceOracle:
    def test_whole_grid(self, d2_instance):
        _, points, _ = d2_instance
        q = SimplexQuery((Halfspace(normal=(0, 1), offset=100, sense="le"),))
        assert brute_force_query(points, q) == points

    def test_empty_points(self):
        q = SimplexQuery((Halfspace(normal=(0, 1), offset=100, sense="le"),))
        assert brute_force_query([], q) == []

    def test_dimension_mismatch(self, d2_instance):
        _, points, _ = d2_instance
        with pytest.raises(DimensionMismatch):
            brute_force_query(points, SimplexQuery((Halfspace((1, 1, 1), 0, "le"),)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_matches_brute_force_on_random_queries(self, seed, d3_instance):
        params, points, _ = d3_instance
        tree = build_kdtree(points)
        rng = random.Random(seed)
        for q in random_simplex_queries(params, 200, rng):
            reported, _ = query(tree, q)
            assert set(reported) == set(brute_force_query(points, q))


class TestOracleEnvelope:
    """brute_force_query and the kd-tree must agree on what overflows."""

    def test_int64_min_coordinate_overflows_both(self):
        # |x1| + |x2| reaches 2**63 + 1: an int64 scan would wrap the value
        # -2**63 - 1 of the first point to INT64_MAX and silently drop it.
        points = [(-(2**63), -1), (0, 0)]
        q = SimplexQuery((Halfspace((1, 1), 0, "le"),))
        with pytest.raises(ArithmeticOverflow):
            brute_force_query(points, q)
        with pytest.raises(ArithmeticOverflow):
            query(build_kdtree(points), q)

    def test_bound_at_int64_max_agrees(self):
        points = [(-(2**63) + 1, 5), (0, 0), (1, -1)]
        q = SimplexQuery((Halfspace((1, 0), 0, "le"),))
        reported, _ = query(build_kdtree(points), q)
        assert sorted(brute_force_query(points, q)) == sorted(reported) == points[:2]


class TestRandomQueries:
    def test_seed_determinism(self, d3_instance):
        params, _, _ = d3_instance
        a = random_simplex_queries(params, 50, random.Random(9))
        b = random_simplex_queries(params, 50, random.Random(9))
        assert a == b

    def test_shape_constraints(self, d3_instance):
        params, _, _ = d3_instance
        for q in random_simplex_queries(params, 100, random.Random(3)):
            assert 1 <= len(q.constraints) <= params.d + 1
            for h in q.constraints:
                assert any(c != 0 for c in h.normal)
                assert all(-params.A <= c <= params.A for c in h.normal)


class _ReferenceNode:
    __slots__ = ("lo", "hi", "start", "end", "axis", "split", "left", "right")

    def __init__(self, lo, hi, start, end):
        self.lo, self.hi, self.start, self.end = lo, hi, start, end
        self.axis = -1  # -1 marks a leaf
        self.split = 0
        self.left = self.right = None


def reference_build_kdtree(points, leaf_capacity):
    """The kd-tree as an object graph, one node object per node.

    Returns (root, order, counters), with counters holding the node count,
    the leaf count and the depth.  This is the layout the heap-numbered
    boxes replaced, kept as the oracle for build_kdtree and query.
    """
    dim = len(points[0])
    coords = np.asarray(points, dtype=np.int64)
    order = np.arange(len(points), dtype=np.int64)
    counters = {"nodes": 0, "leaves": 0, "depth": 0}

    def build(start, end, axis, level):
        counters["nodes"] += 1
        counters["depth"] = max(counters["depth"], level)
        slice_idx = order[start:end]
        block = coords[slice_idx]
        node = _ReferenceNode(
            lo=tuple(int(v) for v in block.min(axis=0)),
            hi=tuple(int(v) for v in block.max(axis=0)),
            start=start,
            end=end,
        )
        if end - start <= leaf_capacity:
            counters["leaves"] += 1
            return node
        perm = np.lexsort((slice_idx, block[:, axis]))
        order[start:end] = slice_idx[perm]
        mid = (end - start) // 2
        node.axis = axis
        node.split = int(coords[order[start + mid - 1], axis])
        next_axis = (axis + 1) % dim
        node.left = build(start, start + mid, next_axis, level + 1)
        node.right = build(start + mid, end, next_axis, level + 1)
        return node

    root = build(0, len(points), 0, 1)
    return root, [int(i) for i in order], counters


def reference_query(root, points, order, q):
    """The recursive traversal over the object graph; returns (reported, stats)."""
    stats = QueryStats()
    out = []

    def visit(node, active):
        stats.nodes_visited += 1
        remaining = []
        for h in active:
            rel = classify_box(node.lo, node.hi, h)
            if rel is BoxRelation.OUTSIDE:
                return
            if rel is BoxRelation.CROSSING:
                remaining.append(h)
        if not remaining:
            out.extend(order[node.start : node.end])
            return
        if node.axis < 0:
            stats.leaves_scanned += 1
            for i in order[node.start : node.end]:
                stats.points_tested += 1
                if all(h.contains(points[i]) for h in remaining):
                    out.append(i)
            return
        visit(node.left, tuple(remaining))
        visit(node.right, tuple(remaining))

    visit(root, q.constraints)
    stats.points_reported = len(out)
    return [points[i] for i in out], stats


def _reference_boxes(root):
    """Every reference node's (lo, hi), keyed by its heap number."""
    boxes, stack = {}, [(0, root)]
    while stack:
        number, node = stack.pop()
        boxes[number] = (node.lo, node.hi)
        if node.axis >= 0:
            stack += [(2 * number + 1, node.left), (2 * number + 2, node.right)]
    return boxes


def _random_query(rng, d):
    constraints = []
    for _ in range(rng.randint(1, d + 1)):
        normal = (0,) * d
        while not any(normal):
            normal = tuple(rng.randint(-3, 3) for _ in range(d))
        reach = 5 * sum(map(abs, normal))
        constraints.append(
            Halfspace(normal, rng.randint(-reach, reach), rng.choice(("le", "ge")))
        )
    return SimplexQuery(tuple(constraints))


class TestHeapLayoutMatchesObjectGraph:
    """build_kdtree and query against the object-graph reference tree."""

    @pytest.mark.parametrize("leaf_capacity", [1, 2, 4, 7, 16])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_same_tree_and_same_answers(self, d, leaf_capacity):
        rng = random.Random(1000 * d + leaf_capacity)
        for n in (1, 2, leaf_capacity + 1, rng.randint(3, 60), rng.randint(100, 300)):
            # Coordinates in [-5, 5]: negative values and many duplicates.
            points = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(n)]
            tree = build_kdtree(points, leaf_capacity=leaf_capacity)
            root, order, counters = reference_build_kdtree(points, leaf_capacity)
            assert tree.order == order
            assert (tree.node_count, tree.leaf_count, tree.depth) == (
                counters["nodes"], counters["leaves"], counters["depth"]
            )
            boxes = _reference_boxes(root)
            assert {i: box for i, box in enumerate(tree.boxes) if box is not None} == boxes
            values = [c for lo, hi in filter(None, tree.boxes) for c in (*lo, *hi)]
            assert all(type(c) is int for c in values)
            for _ in range(20):
                q = _random_query(rng, d)
                assert query(tree, q) == reference_query(root, points, order, q)
