import gc
import math
import random

import numpy as np
import pytest

import srlb.reporting
from conftest import as_table, point_rows
from srlb.errors import ArithmeticOverflow, DimensionMismatch, EmptyInput
from srlb.exact import INT64_MAX, INT64_MIN, checked_dot
from srlb.geometry import (
    Hyperplane,
    generate_hyperplanes,
    generate_points,
    hyperplane_at,
    incident_points,
    normalize_params,
)
from srlb.reporting import (
    BoxRelation,
    QueryStats,
    SimplexQuery,
    brute_force_query,
    build_kdtree,
    classify_box,
    query,
    random_simplex_queries,
    slab_query_for,
)


def satisfies(rows, p):
    """Whether point p meets every (normal, offset) row: normal . p <= offset."""
    return all(checked_dot(normal, p) <= offset for normal, offset in rows)


NOT_AN_INTEGER = (ValueError, "every value of a query row must be an integer")
BEYOND_INT64 = (ArithmeticOverflow, "a query row exceeds the 64-bit safe envelope")


class TestHalfspaceAndQueryTypes:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            SimplexQuery(((1, 0), (0, 0)), (1, 1))

    def test_constraint_count_cap(self):
        with pytest.raises(ValueError):
            SimplexQuery(((1, 0),) * 4, (5,) * 4)
        with pytest.raises(ValueError):
            SimplexQuery((), ())
        with pytest.raises(ValueError):  # one offset per normal
            SimplexQuery(((1, 0), (0, 1)), (5,))

    def test_rows_become_tuples_of_ints_when_made(self):
        # Lists, numpy integers and tuples make one query, hashed and
        # compared by its rows.
        made = [
            SimplexQuery(((1, -2), (0, 3)), (4, -5)),
            SimplexQuery([[1, -2], [0, 3]], [4, -5]),
            SimplexQuery(((np.int64(1), np.int8(-2)), (np.uint16(0), np.int32(3))),
                         [np.int64(4), np.int16(-5)]),
        ]
        assert len(set(made)) == 1 and made[0] == made[1] == made[2]
        for q in made:
            assert q.normals == ((1, -2), (0, 3)) and q.offsets == (4, -5)
            assert type(q.normals) is type(q.offsets) is tuple
            assert {type(row) for row in q.normals} == {tuple}
            assert {type(c) for c in (*q.offsets, *q.normals[0], *q.normals[1])} == {int}

    @pytest.mark.parametrize("normals,offsets", [
        ((np.array([1, 0]),), (3,)),
        (({0: 1, 1: 0},), (3,)),
        (((1, 0),), np.array([3])),
        ("ab", (3, 4)),
    ], ids=["array_normal", "dict_normal", "array_offsets", "str_normals"])
    def test_rows_that_are_not_lists_or_tuples_are_refused(self, normals, offsets):
        # A dict would pass its keys as the normal, as int64_rows' own shape check warns.
        with pytest.raises(ValueError, match="^a query's normals and offsets must be lists"):
            SimplexQuery(normals, offsets)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            SimplexQuery(((1, 0), (1, 0, 0)), (1, 1))

    def test_contains_is_closed(self):
        # 2*2 - 1 = 3 lies on the boundary of 2*x1 - x2 <= 3; 2*2 - 0 = 4 does not.
        points, q = as_table([(2, 1), (2, 0)]), SimplexQuery(((2, -1),), (3,))
        assert brute_force_query(points, q).tolist() == [0]
        assert query(build_kdtree(points, leaf_capacity=1), q)[0] == [0]


class TestClassifyBox:
    def test_outside_above(self):
        # x_2 >= 9 as the row -x_2 <= -9.
        assert classify_box((1, 1), (2, 8), (0, -1), -9) is BoxRelation.OUTSIDE

    def test_crossing_diagonal(self):
        # x_1 - x_2 <= 0: vertex (1,8) gives -7, vertex (2,1) gives 1.
        assert classify_box((1, 1), (2, 8), (1, -1), 0) is BoxRelation.CROSSING

    def test_boundary_box_inside_for_le(self):
        assert classify_box((2, 2), (2, 2), (1, 1), 4) is BoxRelation.INSIDE

    def test_flat_box_on_boundary_both_senses(self):
        # Box flat in x_2 sits entirely on x_2 = 3; both closed sides own it.
        assert classify_box((1, 3), (5, 3), (0, 1), 3) is BoxRelation.INSIDE
        assert classify_box((1, 3), (5, 3), (0, -1), -3) is BoxRelation.INSIDE

    def test_inside_le(self):
        assert classify_box((1, 1), (2, 8), (1, 0), 10) is BoxRelation.INSIDE

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            classify_box((2, 1), (1, 8), (1, 0), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            classify_box((1, 1), (2, 8), (1, 0, 0), 1)

    def test_overflow(self):
        with pytest.raises(ArithmeticOverflow):
            classify_box((2, 1), (3, 8), (INT64_MAX, 1), 0)

    def test_exhaustive_against_vertex_scan(self):
        # Every vertex tested directly must reproduce the classification.
        rng = random.Random(7)
        for _ in range(300):
            lo = tuple(rng.randint(-5, 5) for _ in range(2))
            hi = tuple(l + rng.randint(0, 6) for l in lo)
            normal = (0, 0)
            while normal == (0, 0):
                normal = (rng.randint(-3, 3), rng.randint(-3, 3))
            offset, sign = rng.randint(-20, 20), rng.choice((1, -1))
            normal, offset = tuple(sign * c for c in normal), sign * offset
            vertices = [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
            inside = [satisfies([(normal, offset)], v) for v in vertices]
            rel = classify_box(lo, hi, normal, offset)
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
        assert tree.node_count == 7  # 16 points: a root, two inner nodes, four leaves of 4
        assert sorted(tree.order) == list(range(16))

    def test_single_point(self):
        tree = build_kdtree(as_table([(3, 4)]))
        assert tree.node_count == 1
        assert tree.boxes == [((3, 4), (3, 4))]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_kdtree(as_table([], 2))

    @pytest.mark.parametrize(
        "points",
        [[(1, 2), (1, 2, 3)], [(1, 2)], np.zeros((5, 0), np.int64), np.ones((2, 2), np.int32),
         np.ones((2, 2)), np.ones(2, np.int64)],
        ids=["mixed_dimension_tuples", "tuples", "no_columns", "int32", "float", "one_axis"],
    )
    def test_refuses_what_is_not_a_point_table(self, points):
        # point_table admits only an (n, d) int64 table with d >= 1, so a
        # zero-width table cannot reach the axis cycle `level % d`.
        q = SimplexQuery(((1,),), (0,))
        with pytest.raises(ValueError, match="int64 point table"):
            build_kdtree(points)
        with pytest.raises(ValueError, match="int64 point table"):
            brute_force_query(points, q)

    def test_bad_leaf_capacity(self):
        with pytest.raises(ValueError):
            build_kdtree(as_table([(1, 2)]), leaf_capacity=0)

    def test_more_points_than_the_cap(self, monkeypatch):
        # The build's sort keys slice * n + rank fit int64 up to MAX_POINTS.
        monkeypatch.setattr(srlb.reporting, "MAX_POINTS", 3)
        assert build_kdtree(as_table([(1, 2)] * 3), leaf_capacity=1).n == 3
        with pytest.raises(ArithmeticOverflow):
            build_kdtree(as_table([(1, 2)] * 4), leaf_capacity=1)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 100, 1000])
    @pytest.mark.parametrize("leaf_capacity", [1, 4, 16])
    def test_depth_bound_and_partition(self, n, leaf_capacity):
        rng = random.Random(n * 31 + leaf_capacity)
        points = [(rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 40))
                  for _ in range(n)]
        tree = build_kdtree(as_table(points), leaf_capacity=leaf_capacity)
        assert sorted(tree.order) == list(range(n))
        bound = math.ceil(math.log2(max(n / leaf_capacity, 1))) + 1
        assert len(tree.boxes) < 2 ** max(bound, 1)  # heap numbers of depth <= bound

    def test_structure_invariants(self, d3_instance):
        _, points, _ = d3_instance
        tree = build_kdtree(points, leaf_capacity=4)
        seen = set()

        def walk(node, start, end, axis):
            seen.add(node)
            lo, hi = tree.boxes[node]
            block = [points[i] for i in tree.order[start:end]]
            for p in block:
                assert all(lo[ax] <= p[ax] <= hi[ax] for ax in range(3))
            if end - start <= tree.leaf_capacity:
                assert len(block) <= tree.leaf_capacity
                return
            mid = start + (end - start) // 2
            left_coords = [p[axis] for p in block[: mid - start]]
            right_coords = [p[axis] for p in block[mid - start :]]
            assert max(left_coords) <= min(right_coords)
            walk(2 * node + 1, start, mid, (axis + 1) % 3)
            walk(2 * node + 2, mid, end, (axis + 1) % 3)

        walk(0, 0, tree.n, 0)
        assert seen == {i for i, box in enumerate(tree.boxes) if box is not None}
        assert len(seen) == tree.node_count

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
        assert reported == sorted(reported)
        assert {point_rows(points)[i] for i in reported} == {(1, 2), (2, 3)}
        assert stats.points_reported == 2 == params.t

    def test_whole_grid_halfspace_short_circuits(self, d2_instance):
        _, points, _ = d2_instance
        tree = build_kdtree(points)
        reported, stats = query(tree, SimplexQuery(((0, 1),), (100,)))
        assert reported == list(range(16))
        assert stats.nodes_visited == 1
        assert stats.points_tested == 0

    def test_contradictory_halfspaces_empty(self, d2_instance):
        _, points, _ = d2_instance
        tree = build_kdtree(points)
        # x_1 <= 0 and x_1 >= 1.
        reported, stats = query(tree, SimplexQuery(((1, 0), (-1, 0)), (0, -1)))
        assert reported == []
        assert stats.points_reported == 0

    def test_dimension_mismatch(self, d2_instance):
        _, points, _ = d2_instance
        tree = build_kdtree(points)
        with pytest.raises(DimensionMismatch):
            query(tree, SimplexQuery(((1, 0, 0),), (1,)))

    def test_no_duplicates_in_output(self, d3_instance):
        _, points, _ = d3_instance
        tree = build_kdtree(points)
        reported, _ = query(tree, SimplexQuery(((1, 1, -1),), (0,)))
        assert len(reported) == len(set(reported))

    def test_deterministic_stats(self, d3_instance):
        _, points, _ = d3_instance
        tree = build_kdtree(points)
        q = SimplexQuery(((-1, 2, -1),), (-3,))
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
        # x_2 - x_1 <= 1 and x_2 - x_1 >= 1.
        assert slab_query_for(Hyperplane(a=(1,), b=1)) == SimplexQuery(((-1, 1), (1, -1)), (1, -1))

    def test_3d_structure(self):
        q = slab_query_for(Hyperplane(a=(2, 3), b=5))
        assert q == SimplexQuery(((-2, -3, 1), (2, 3, -1)), (5, -5))

    @pytest.mark.parametrize("d,n,t", [(2, 16, 2), (3, 96, 4), (2, 1012, 22)])
    def test_every_family_slab_reports_exactly_t(self, d, n, t):
        params = normalize_params(d, n, t)
        points = generate_points(params)
        tree = build_kdtree(points)
        rows = point_rows(points)
        for h in generate_hyperplanes(params):
            reported, stats = query(tree, slab_query_for(h))
            assert stats.points_reported == params.t
            assert {rows[i] for i in reported} == set(incident_points(h, params))


class TestBruteForceOracle:
    def test_whole_grid(self, d2_instance):
        _, points, _ = d2_instance
        reported = brute_force_query(points, SimplexQuery(((0, 1),), (100,)))
        assert np.array_equal(reported, np.arange(16))

    def test_empty_points(self):
        reported = brute_force_query(as_table([], 2), SimplexQuery(((0, 1),), (100,)))
        assert isinstance(reported, np.ndarray) and reported.size == 0

    def test_dimension_mismatch(self, d2_instance):
        _, points, _ = d2_instance
        with pytest.raises(DimensionMismatch):
            brute_force_query(points, SimplexQuery(((1, 1, 1),), (0,)))

    @pytest.mark.parametrize("n", [0, 1])
    def test_dimension_checked_before_the_empty_shortcut(self, n):
        # A 3-d query on a 2-d table is refused whether or not it holds points.
        with pytest.raises(DimensionMismatch):
            brute_force_query(as_table([(1, 2)] * n, 2), SimplexQuery(((1, 1, 1),), (0,)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_no_points_for_every_row_count(self, d):
        # test_same_brute_force_lists covers 1 to d+1 rows on points.
        for rows in range(1, d + 2):
            q = SimplexQuery([(1,) * d] * rows, [0] * rows)
            reported = brute_force_query(as_table([], d), q)
            assert reported.dtype == np.intp and reported.size == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_matches_brute_force_on_random_queries(self, seed, d3_instance):
        params, points, _ = d3_instance
        tree = build_kdtree(points)
        rng = random.Random(seed)
        for q in random_simplex_queries(params, 200, rng):
            reported, _ = query(tree, q)
            assert np.array_equal(reported, brute_force_query(points, q))


def _table_inputs():
    """(d, points as tuples): small and int64-limit coordinates at d = 1..5,
    and shuffled grids."""
    rng = random.Random(41)
    extremes = (INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX)
    for d in range(1, 6):
        for n in (1, 7, 60, 300):
            yield d, [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(n)]
            yield d, [tuple(rng.choice(extremes) for _ in range(d)) for _ in range(n)]
    for d, n, t in [(2, 256, 8), (3, 1000, 25), (4, 1024, 64), (5, 320, 16)]:
        grid = point_rows(generate_points(normalize_params(d, n, t)))
        rng.shuffle(grid)
        yield d, grid


class TestPointTables:
    """A point table's tree and oracle answers against the per-point references."""

    def test_same_tree(self):
        rng = random.Random(43)
        for d, points in _table_inputs():
            tree = assert_matches_reference(points, rng.randint(1, 20), [])
            assert all(type(p) is tuple for p in tree.points)

    def test_same_brute_force_lists(self):
        rng = random.Random(47)
        for d, points in _table_inputs():
            table = as_table(points)
            for q in [_random_query(rng, d) for _ in range(10)]:
                try:
                    reported = brute_force_query(table, q)
                except ArithmeticOverflow:
                    continue  # assert_matches_reference checks the envelope
                # The ids of the points that pass every row, ascending.
                rows = list(zip(q.normals, q.offsets))
                expected = [i for i, p in enumerate(points) if satisfies(rows, p)]
                assert np.array_equal(reported, expected)


class TestOracleEnvelope:
    """brute_force_query and the kd-tree must agree on what overflows."""

    def test_int64_min_coordinate_overflows_both(self):
        # |x1| + |x2| reaches 2**63 + 1: an int64 scan would wrap the value
        # -2**63 - 1 of the first point to INT64_MAX and silently drop it.
        points = as_table([(-(2**63), -1), (0, 0)])
        q = SimplexQuery(((1, 1),), (0,))
        with pytest.raises(ArithmeticOverflow):
            brute_force_query(points, q)
        with pytest.raises(ArithmeticOverflow):
            query(build_kdtree(points), q)

    def test_bound_at_int64_max_agrees(self):
        points = [(-(2**63) + 1, 5), (0, 0), (1, -1)]
        q = SimplexQuery(((1, 0),), (0,))
        reported, _ = query(build_kdtree(as_table(points)), q)
        assert brute_force_query(as_table(points), q).tolist() == reported == [0, 1]

    @pytest.mark.parametrize(
        "points,normals,offsets",
        [
            # The envelope (2**62, 2**62) bounds |x1 + x2| by 2**63, although
            # no box vertex the traversal evaluates gets that far.
            ([(-(2**62), 0), (0, 2**62)], ((1, 1),), (0,)),
            # The first row prunes the root, so the traversal never
            # evaluates the second one.
            ([(0, 0), (1, 1)], ((1, 0), (2**62, 2**62)), (-5, 0)),
        ],
        ids=["per_axis_maximum", "after_pruning_constraint"],
    )
    def test_envelope_overflow_raises_in_both(self, points, normals, offsets):
        points, q = as_table(points), SimplexQuery(normals, offsets)
        with pytest.raises(ArithmeticOverflow):
            brute_force_query(points, q)
        with pytest.raises(ArithmeticOverflow):
            query(build_kdtree(points), q)

    @pytest.mark.parametrize(
        "normals,offsets,error",
        [
            (((0.5, 1),), (3,), NOT_AN_INTEGER),
            (((True, 1),), (3,), NOT_AN_INTEGER),
            (((1, "2"),), (3,), NOT_AN_INTEGER),
            (((0, 1),), (3.0,), NOT_AN_INTEGER),
            (((0, 1),), (True,), NOT_AN_INTEGER),
            (((0, 1), (1, 0)), (3, "2"), NOT_AN_INTEGER),
            (((0, 1),), (2**63,), BEYOND_INT64),
            # A zero envelope would bound every value by 0, but the normal
            # itself does not fit int64.
            (((2**64, 1),), (0,), BEYOND_INT64),
        ],
        ids=["float_normal", "bool_normal", "str_normal", "float_offset", "bool_offset",
             "str_offset", "offset_beyond_int64", "normal_outside_int64"],
    )
    def test_rows_outside_the_value_rule_raise_the_same_in_both(self, normals, offsets, error):
        # On a 16-point grid the normal (0.5, 1) once got ids [0, 1, 8, 9]
        # from the tree and [0, 1, 2, 8, 9, 10] from the oracle, which
        # truncated it.  A query now refuses such rows when it is made, so
        # neither query nor brute_force_query can be handed one.
        with pytest.raises(error[0]) as raised:
            SimplexQuery(normals, offsets)
        assert (type(raised.value), str(raised.value)) == error


class TestRandomQueries:
    def test_seed_determinism(self, d3_instance):
        params, _, _ = d3_instance
        a = random_simplex_queries(params, 50, random.Random(9))
        b = random_simplex_queries(params, 50, random.Random(9))
        assert a == b

    def test_shape_constraints(self, d3_instance):
        params, _, _ = d3_instance
        for q in random_simplex_queries(params, 100, random.Random(3)):
            assert 1 <= len(q.normals) == len(q.offsets) <= params.d + 1
            for normal in q.normals:
                assert any(c != 0 for c in normal)
                assert all(-params.A <= c <= params.A for c in normal)

    def test_stream_is_pinned(self, d3_instance):
        # The first draws of Random(9), recorded when a constraint was a
        # normal with an 'le' or 'ge' sense; a 'ge' one is written negated.
        params, _, _ = d3_instance
        assert random_simplex_queries(params, 3, random.Random(9)) == [
            SimplexQuery(((1, 0, -2), (-1, -4, -3), (-4, 4, -2), (2, -2, -2)),
                         (-36, -18, -8, -35)),
            SimplexQuery(((-2, 4, -3),), (-23,)),
            SimplexQuery(((1, 1, -2), (-1, 2, 0), (1, 4, -2)), (-3, 2, 5)),
        ]


class _ReferenceNode:
    __slots__ = ("lo", "hi", "start", "end", "axis", "split", "left", "right")

    def __init__(self, lo, hi, start, end):
        self.lo, self.hi, self.start, self.end = lo, hi, start, end
        self.axis = -1  # -1 marks a leaf
        self.split = 0
        self.left = self.right = None


def reference_build_kdtree(points, leaf_capacity):
    """The kd-tree as an object graph, one node object per node.

    Returns (root, order, node count).  This is the layout the heap-numbered
    boxes replaced, kept as the oracle for build_kdtree and query.
    """
    dim = len(points[0])
    coords = np.asarray(points, dtype=np.int64)
    order = np.arange(len(points), dtype=np.int64)
    nodes = 0

    def build(start, end, axis):
        nonlocal nodes
        nodes += 1
        slice_idx = order[start:end]
        block = coords[slice_idx]
        node = _ReferenceNode(
            lo=tuple(int(v) for v in block.min(axis=0)),
            hi=tuple(int(v) for v in block.max(axis=0)),
            start=start,
            end=end,
        )
        if end - start <= leaf_capacity:
            return node
        perm = np.lexsort((slice_idx, block[:, axis]))
        order[start:end] = slice_idx[perm]
        mid = (end - start) // 2
        node.axis = axis
        node.split = int(coords[order[start + mid - 1], axis])
        next_axis = (axis + 1) % dim
        node.left = build(start, start + mid, next_axis)
        node.right = build(start + mid, end, next_axis)
        return node

    root = build(0, len(points), 0)
    return root, [int(i) for i in order], nodes


def reference_query(root, points, order, q):
    """The recursive traversal over the object graph; returns (ascending ids, stats)."""
    stats = QueryStats()
    out = []

    def visit(node, active):
        stats.nodes_visited += 1
        remaining = []
        for normal, offset in active:
            rel = classify_box(node.lo, node.hi, normal, offset)
            if rel is BoxRelation.OUTSIDE:
                return
            if rel is BoxRelation.CROSSING:
                remaining.append((normal, offset))
        if not remaining:
            out.extend(order[node.start : node.end])
            return
        if node.axis < 0:
            stats.leaves_scanned += 1
            for i in order[node.start : node.end]:
                stats.points_tested += 1
                if satisfies(remaining, points[i]):
                    out.append(i)
            return
        visit(node.left, tuple(remaining))
        visit(node.right, tuple(remaining))

    visit(root, tuple(zip(q.normals, q.offsets)))
    stats.points_reported = len(out)
    return sorted(out), stats


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
    normals, offsets = [], []
    for _ in range(rng.randint(1, d + 1)):
        normal = (0,) * d
        while not any(normal):
            normal = tuple(rng.randint(-3, 3) for _ in range(d))
        reach = 5 * sum(map(abs, normal))
        offset, sign = rng.randint(-reach, reach), rng.choice((1, -1))
        normals.append(tuple(sign * c for c in normal))
        offsets.append(sign * offset)
    return SimplexQuery(tuple(normals), tuple(offsets))


def assert_matches_reference(points, leaf_capacity, queries):
    """build_kdtree and query, on the table of the point tuples, agree with
    the object-graph reference; returns the tree.

    The tree must match in order, node count and boxes (as Python ints), and
    every query must give the same reported ids and stats.  A query
    whose values may leave int64 must be refused by the oracle too.
    """
    table = as_table(points)
    tree = build_kdtree(table, leaf_capacity=leaf_capacity)
    root, order, nodes = reference_build_kdtree(points, leaf_capacity)
    assert tree.order == order
    assert tree.node_count == nodes
    boxes = _reference_boxes(root)
    assert {i: box for i, box in enumerate(tree.boxes) if box is not None} == boxes
    values = [c for lo, hi in filter(None, tree.boxes) for c in (*lo, *hi)]
    assert all(type(c) is int for c in values)
    for q in queries:
        try:
            answer = query(tree, q)
        except ArithmeticOverflow:
            with pytest.raises(ArithmeticOverflow):
                brute_force_query(table, q)
            continue
        assert answer == reference_query(root, points, order, q)
    return tree


class TestHeapLayoutMatchesObjectGraph:
    """build_kdtree and query against the object-graph reference tree."""

    @pytest.mark.parametrize("leaf_capacity", [1, 2, 4, 7, 16])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_same_tree_and_same_answers(self, d, leaf_capacity):
        rng = random.Random(1000 * d + leaf_capacity)
        for n in (1, 2, leaf_capacity + 1, rng.randint(3, 60), rng.randint(100, 300)):
            # Coordinates in [-5, 5]: negative values and many duplicates.
            points = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(n)]
            queries = [_random_query(rng, d) for _ in range(20)]
            assert_matches_reference(points, leaf_capacity, queries)

    @pytest.mark.parametrize("n", [1, 3, 16, 17])
    @pytest.mark.parametrize("extra", [0, 1, 50])
    def test_one_leaf_when_capacity_covers_n(self, n, extra):
        rng = random.Random(n + extra)
        points = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)]
        assert build_kdtree(as_table(points), leaf_capacity=n + extra).node_count == 1
        queries = [_random_query(rng, 2) for _ in range(10)]
        assert_matches_reference(points, n + extra, queries)

    @pytest.mark.parametrize("leaf_capacity", [1, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identical_points(self, d, leaf_capacity):
        rng = random.Random(d)
        for n in (2, 9, 64, 100):
            points = [(3,) * d] * n
            queries = [_random_query(rng, d) for _ in range(10)]
            assert_matches_reference(points, leaf_capacity, queries)

    @pytest.mark.parametrize("leaf_capacity", [1, 3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_sizes_around_leaf_boundaries(self, d, leaf_capacity):
        # n = leaf_capacity * 2**k - 1, + 0 and + 1: one point short of,
        # at and one past a complete level of leaves.
        rng = random.Random(10 * d + leaf_capacity)
        for k in range(1, 8):
            for delta in (-1, 0, 1):
                n = leaf_capacity * 2**k + delta
                points = [tuple(rng.randint(0, 20) for _ in range(d)) for _ in range(n)]
                queries = [_random_query(rng, d) for _ in range(5)]
                assert_matches_reference(points, leaf_capacity, queries)

    @pytest.mark.parametrize("leaf_capacity", [1, 2, 4])
    def test_coordinates_at_the_int64_limits(self, leaf_capacity):
        rng = random.Random(leaf_capacity)
        extremes = (INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX)
        for d in (2, 3):
            # The last axis stays small, so queries on it alone are answered.
            points = [
                tuple(rng.choice(extremes) for _ in range(d - 1)) + (rng.randint(-3, 3),)
                for _ in range(rng.randint(20, 80))
            ]
            points[0] = (INT64_MIN,) * (d - 1) + (0,)
            points[1] = (INT64_MAX,) * (d - 1) + (0,)
            queries = [_random_query(rng, d) for _ in range(20)]
            queries += [SimplexQuery(((0,) * (d - 1) + (1,),), (0,))]
            assert_matches_reference(points, leaf_capacity, queries)
        # Every axis at the limits: the boxes must still match.
        for d in (1, 2):
            points = [tuple(rng.choice(extremes) for _ in range(d)) for _ in range(200)]
            assert_matches_reference(points, leaf_capacity, [_random_query(rng, d)])

    # The benchmark's instances: the largest s keeping A >= 2.
    @pytest.mark.parametrize(
        "d,n,t",
        [(2, 125, 5), (2, 256, 8), (2, 506, 11), (2, 1024, 16), (2, 2046, 22),
         (2, 4096, 32), (3, 1000, 25)],
    )
    def test_benchmark_instances(self, d, n, t):
        params = normalize_params(d, n, t)
        assert (params.n, params.t) == (n, t) and params.A >= 2
        rng = random.Random(n)
        queries = [slab_query_for(hyperplane_at(params, i)) for i in range(0, params.m, 5)]
        queries += random_simplex_queries(params, 20, rng)
        assert_matches_reference(point_rows(generate_points(params)), 4, queries)


def test_build_leaves_no_cyclic_garbage(d3_instance):
    # Without cycles, a tree's temporaries are freed as soon as the build
    # returns, not whenever the cyclic collector next runs.
    _, points, _ = d3_instance
    build_kdtree(points)
    gc.collect()
    gc.disable()
    try:
        tree = build_kdtree(points)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert tree.n == len(points)
