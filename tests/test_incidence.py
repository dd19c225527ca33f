import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import srlb.exact
import srlb.incidence
from conftest import as_family, as_table, from_rows, point_rows
from srlb.errors import (
    ArithmeticOverflow,
    DimensionMismatch,
    InstanceTooLarge,
    SrlbError,
)
from srlb.exact import INT64_MAX, INT64_MIN, check_int64, envelope, int64_rows
from srlb.geometry import (
    Hyperplane,
    HyperplaneFamily,
    InstanceParams,
    eval_hyperplane,
    generate_hyperplanes,
    generate_points,
    incident_points,
    largest_valid_richness,
    normalize_params,
)
from srlb.incidence import (
    INCIDENCE_BLOCK,
    IncidenceGraph,
    _contained_at_top_corner,
    bound_report,
    build_incidence_graph,
    charge_verify,
    pair_coverage,
    richness_histogram,
    verify_instance,
)
from srlb.io import InstanceDocument


def naive_incidence_graph(points, hyperplanes):
    """Reference implementation: test every (hyperplane, point) pair."""
    dims = {len(p) for p in points} | {h.d for h in hyperplanes}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions in input: {sorted(dims)}")

    if not points or not hyperplanes:
        return from_rows(
            point_count=len(points),
            hyperplane_count=len(hyperplanes),
            adjacency=tuple(() for _ in hyperplanes),
        )

    coords = int64_rows(points, dims.pop(), "point coordinates")
    base, last = coords[:, :-1], coords[:, -1]
    max_abs = envelope(base)
    adjacency = []
    for h in hyperplanes:
        # int64 matmul must not wrap, even for out-of-family hyperplanes.
        bound = sum(abs(c) * mx for c, mx in zip(h.a, max_abs)) + abs(h.b)
        check_int64(bound, f"incidence evaluation bound for {h}")
        values = base @ int64_rows([h.a], len(h.a), "hyperplane coefficients")[0] + h.b
        adjacency.append(tuple(int(i) for i in np.flatnonzero(values == last)))
    return from_rows(
        point_count=len(points),
        hyperplane_count=len(hyperplanes),
        adjacency=tuple(adjacency),
    )


def naive_pair_coverage(graph):
    """Reference implementation: plain dict over point pairs."""
    counts = {}
    for row in graph.adjacency:
        for pair in itertools.combinations(row, 2):
            counts[pair] = counts.get(pair, 0) + 1
    if not counts:
        return 0, None
    best = max(counts.values())
    return best, min(p for p, c in counts.items() if c == best)


class TestBuildIncidenceGraph:
    def test_planar_shape(self, d2_graph):
        _, graph = d2_graph
        assert len(graph.indptr) - 1 == 8
        assert all(len(row) == 2 for row in graph.adjacency)
        assert graph.indices.size == 16

    def test_3d_shape(self, d3_graph):
        _, graph = d3_graph
        assert len(graph.indptr) - 1 == 128
        assert all(len(row) == 4 for row in graph.adjacency)
        assert graph.indices.size == 512

    def test_single_nonincident_pair(self):
        graph = build_incidence_graph(as_table([(1, 5)]), as_family([Hyperplane(a=(1,), b=1)]))
        assert graph.adjacency == ((),)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_incidence_graph(as_table([(1, 1, 1)]), as_family([Hyperplane(a=(1,), b=1)]))

    def test_envelope_guard_on_foreign_hyperplane(self):
        with pytest.raises(ArithmeticOverflow):
            build_incidence_graph(as_table([(2, 3)]), as_family([Hyperplane(a=(INT64_MAX,), b=1)]))

    @pytest.mark.parametrize("slope", [1, 3])
    def test_envelope_guard_on_int64_min_coordinate(self, slope):
        # |INT64_MIN| itself leaves int64; with slope 3, b + a*x wraps onto X_d.
        point = (-(2**63), -(2**63) + 1)
        with pytest.raises(ArithmeticOverflow):
            build_incidence_graph(as_table([point]), as_family([Hyperplane(a=(slope,), b=1)]))

    def test_agrees_with_parametric_route(self, d3_instance, d3_graph):
        params, points, hyperplanes = d3_instance
        _, graph = d3_graph
        index = {p: i for i, p in enumerate(point_rows(points))}
        for h, row in zip(hyperplanes, graph.adjacency):
            expected = sorted(index[p] for p in incident_points(h, params))
            assert list(row) == expected

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            from_rows(point_count=2, hyperplane_count=1, adjacency=((0, 2),))
        with pytest.raises(ValueError):
            from_rows(point_count=3, hyperplane_count=1, adjacency=((1, 0),))
        with pytest.raises(ValueError):
            from_rows(point_count=3, hyperplane_count=2, adjacency=((0,),))

    @pytest.mark.parametrize(
        "adjacency,valid",
        [
            (((0, 1), (0, 1)), True),  # entries may fall across a row boundary
            (((2,), (), (0,), ()), True),
            (((), (1, 0)), False),
            (((1, 0), ()), False),
            (((0, 0),), False),
            (((), (0, 2, 2)), False),
            (((-1, 0),), False),
            (((2**70,),), False),
        ],
    )
    def test_graph_validation_row_boundaries(self, adjacency, valid):
        def make():
            return from_rows(
                point_count=3, hyperplane_count=len(adjacency), adjacency=adjacency
            )

        if valid:
            assert make().adjacency == adjacency
        else:
            with pytest.raises(ValueError):
                make()


def _csr(indptr, indices, point_count=4):
    return IncidenceGraph(
        point_count=point_count,
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
    )


class TestCsrGraph:
    def test_layout(self):
        graph = _csr([0, 2, 2, 5], [0, 3, 1, 2, 3])
        assert len(graph.indptr) - 1 == 3
        assert graph.indices.size == 5
        assert graph.adjacency == ((0, 3), (), (1, 2, 3))

    @pytest.mark.parametrize(
        "indptr,indices",
        [
            ([], []),  # no entry: not even the leading 0
            ([[0, 1]], [2]),  # indptr not one-dimensional
            ([0, 1], [[2]]),  # indices not one-dimensional
            ([1, 2], [2, 3]),  # first entry not 0
            ([0, 2, 1, 3], [0, 1, 2]),  # decreasing
            ([0, 1, 3], [0, 1]),  # last entry past len(indices)
            ([0, 1, 2], [0, 1, 2]),  # last entry short of len(indices)
        ],
    )
    def test_malformed_indptr_rejected(self, indptr, indices):
        with pytest.raises(ValueError):
            _csr(indptr, indices)

    def test_non_int64_arrays_rejected(self):
        with pytest.raises(ValueError):
            IncidenceGraph(
                point_count=4,
                indptr=np.array([0, 1], dtype=np.int32),
                indices=np.array([2], dtype=np.int64),
            )
        with pytest.raises(ValueError):
            IncidenceGraph(
                point_count=4, indptr=np.array([0, 1]), indices=np.array([2.0])
            )

    @pytest.mark.parametrize(
        "indptr,indices",
        [([0, 2], [1, 1]), ([0, 2], [2, 1]), ([0, 1], [4]), ([0, 1], [-1])],
    )
    def test_bad_rows_rejected(self, indptr, indices):
        with pytest.raises(ValueError):
            _csr(indptr, indices)

    @pytest.mark.parametrize(
        "point_count,adjacency",
        [
            (0, ()),
            (3, ((),)),
            (5, ((0, 4), (), (1, 2, 3), (4,), ())),
            (2**40, ((0, 2**40 - 1), (7,))),
        ],
    )
    def test_from_rows_round_trip(self, point_count, adjacency):
        graph = from_rows(
            point_count=point_count, hyperplane_count=len(adjacency), adjacency=adjacency
        )
        assert graph.adjacency == adjacency
        assert graph.indptr.dtype == graph.indices.dtype == np.int64
        again = from_rows(
            point_count=point_count,
            hyperplane_count=len(graph.indptr) - 1,
            adjacency=graph.adjacency,
        )
        assert again == graph
        assert again != from_rows(
            point_count=point_count + 1,
            hyperplane_count=len(graph.indptr) - 1,
            adjacency=graph.adjacency,
        )

    def test_built_graph_round_trips(self, d3_graph):
        _, graph = d3_graph
        again = from_rows(
            point_count=graph.point_count,
            hyperplane_count=len(graph.indptr) - 1,
            adjacency=graph.adjacency,
        )
        assert again == graph
        assert again.adjacency is again.adjacency  # built once, then cached

    def test_equality_compares_rows(self):
        graph = _csr([0, 2, 3], [0, 1, 3])
        assert graph == _csr([0, 2, 3], [0, 1, 3])
        assert graph != _csr([0, 1, 3], [0, 1, 3])
        assert graph != _csr([0, 2, 3], [0, 1, 2])
        assert graph != ((0, 1), (3,))

    def test_arrays_are_read_only(self):
        graph = _csr([0, 2], [0, 1])
        with pytest.raises(ValueError):
            graph.indices[0] = 3
        with pytest.raises(ValueError):
            graph.indptr[1] = 1

    def test_arrays_are_frozen_in_place(self):
        indptr = np.array([0, 2], dtype=np.int64)
        indices = np.arange(2, dtype=np.int64)
        graph = IncidenceGraph(point_count=3, indptr=indptr, indices=indices)
        assert graph.indptr is indptr
        assert not indptr.flags.writeable

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(_csr([0, 1], [0]))


def _family(d, n, t):
    params = normalize_params(d, n, t)
    return generate_points(params), generate_hyperplanes(params)


def _shuffled_with_duplicates():
    points, hyperplanes = _family(3, 96, 4)
    points = point_rows(points)
    rng = random.Random(3)
    points = points + rng.sample(points, 20) + points[:3]
    rng.shuffle(points)
    return points, hyperplanes


def _random_hyperplanes(rng, d, count, slope_max, offset_max):
    return [
        Hyperplane(
            a=tuple(rng.randint(1, slope_max) for _ in range(d - 1)),
            b=rng.randint(1, offset_max),
        )
        for _ in range(count)
    ]


def _off_family():
    points, _ = _family(3, 96, 4)
    rng = random.Random(5)
    hyperplanes = _random_hyperplanes(rng, 3, 60, 7, 30)
    # Far above every point: rows with no incidences.
    hyperplanes += [Hyperplane(a=(1, 1), b=10**6), Hyperplane(a=(3, 2), b=999)]
    return points, hyperplanes


def _signed_coordinates():
    rng = random.Random(7)
    points = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(300)]
    points += [(0, 0, 0), (0, 0, 1), (-1, 0, 0)]
    return points, _random_hyperplanes(rng, 3, 80, 3, 5)


def _one_base():
    rng = random.Random(11)
    points = [(2, 3, rng.randint(-20, 40)) for _ in range(50)]
    return points, _random_hyperplanes(rng, 3, 40, 4, 20)


def _distinct_bases():
    rng = random.Random(13)
    bases = rng.sample([(x, y) for x in range(-8, 9) for y in range(-8, 9)], 120)
    points = [(x, y, rng.randint(-10, 30)) for x, y in bases]
    return points, _random_hyperplanes(rng, 3, 90, 3, 10)


def _family_bound_overflows():
    # Each hyperplane's bound is 2**62 + 2**40 + 1 (fits int64), but the
    # family-wide one, 2**63 + 1, does not.
    big = 2**40
    hyperplanes = [Hyperplane(a=(2**22, 1), b=1), Hyperplane(a=(1, 2**22), b=1)]
    points = [(big, 1, 2**62 + 2), (1, big, 2**62 + 2), (1, 1, 2**22 + 2), (big, big, 0)]
    return points, hyperplanes


def _second_hyperplane_overflows():
    return [(2, 3), (1, 2)], [Hyperplane(a=(1,), b=1), Hyperplane(a=(INT64_MAX,), b=1)]


def _middle_and_last_overflow():
    # Both bounds leave int64 (|X_1| <= 2); the first over is the middle one.
    hyperplanes = [Hyperplane(a=(1,), b=1), Hyperplane(a=(INT64_MAX,), b=1),
                   Hyperplane(a=(1,), b=2), Hyperplane(a=(2**62,), b=5)]
    return [(2, 3), (1, 2)], hyperplanes


def _int64_min_base():
    # |X_1| = 2**63 takes the bound to 2**63 + 1; an np.abs bound wraps to
    # -2**63 + 1 and would let the point through as incident.
    return [(INT64_MIN, INT64_MIN + 1)], [Hyperplane(a=(1,), b=1)]


def _bases_tie_on_leading_coordinates():
    # d = 4, shuffled, with repeats: the bases share X_1, mostly X_2 too,
    # and differ in X_3, so grouping them must compare every base column.
    rng = random.Random(17)
    points = [
        (1, y, z, rng.randint(1, 30)) for y in (1, 2) for z in range(1, 8) for _ in range(5)
    ]
    points += [(2, 1, z, rng.randint(1, 30)) for z in (7, 1, 4) for _ in range(3)]
    points += points[:4]
    rng.shuffle(points)
    return points, _random_hyperplanes(rng, 4, 70, 3, 6)


def _d2_bases_with_x_d_ties():
    # d = 2, shuffled: each base X_1 repeats, its points tie on X_d, and a
    # base's points are split apart in input order by other bases' ties.
    rng = random.Random(19)
    points = [(x, z) for x in (9, 3, 5) for z in (1, 2, 2, 4, 4, 4)]
    rng.shuffle(points)
    return points, _random_hyperplanes(rng, 2, 30, 3, 6)


def _int64_top_against_int64_min():
    # X_d at the top of int64 over two bases, 2**63 - 2 apart; the first
    # hyperplane's value at the low base is -2**63 + 3, so value - min X_d
    # would leave int64 by about 2**64 if it were taken before the clip.
    top = [(x, INT64_MAX - 3 + j) for x in (-(2**62) + 1, 2**62 - 1) for j in range(4)]
    hyperplanes = [Hyperplane(a=(2,), b=1)] + [Hyperplane(a=(1,), b=2**62 - j) for j in range(4)]
    return top, hyperplanes


SORT_JOIN_INPUTS = {
    "family_d2": lambda: _family(2, 256, 4),
    "family_d3": lambda: _family(3, 96, 4),
    "family_d3_verify_size": lambda: _family(3, 2048, 16),
    "family_d4": lambda: _family(4, 256, 8),
    "shuffled_with_duplicates": _shuffled_with_duplicates,
    "off_family_and_empty_rows": _off_family,
    "zero_and_negative_coordinates": _signed_coordinates,
    "one_shared_base": _one_base,
    "all_bases_distinct": _distinct_bases,
    "family_bound_overflows_each_fits": _family_bound_overflows,
    "second_hyperplane_overflows": _second_hyperplane_overflows,
    "middle_and_last_overflow": _middle_and_last_overflow,
    "int64_min_base_coordinate": _int64_min_base,
    "shuffled_d4_bases_tie_on_leading_coordinates": _bases_tie_on_leading_coordinates,
    "int64_max_x_d_against_values_near_int64_min": _int64_top_against_int64_min,
    "shuffled_d2_bases_with_x_d_ties": _d2_bases_with_x_d_ties,
}

# The route each input takes at the default DENSE_SLOTS; the overflow inputs
# raise before either.  Of the slot inputs, UNORDERED are not in
# lexicographic order, so their rows are sorted at the end.
SLOT_ROUTE = {
    "family_d2", "family_d3", "family_d3_verify_size", "family_d4",
    "off_family_and_empty_rows", "one_shared_base", "shuffled_with_duplicates",
    "int64_max_x_d_against_values_near_int64_min", "shuffled_d2_bases_with_x_d_ties",
}
SEARCHED_ROUTE = {
    "all_bases_distinct", "zero_and_negative_coordinates",
    "shuffled_d4_bases_tie_on_leading_coordinates", "family_bound_overflows_each_fits",
}
UNORDERED = {"one_shared_base", "shuffled_with_duplicates", "shuffled_d2_bases_with_x_d_ties"}


@pytest.mark.parametrize("case", sorted(SORT_JOIN_INPUTS))
def test_sort_join_matches_naive_scan(case):
    _check_sort_join(case)


@pytest.mark.parametrize("case", sorted(SORT_JOIN_INPUTS))
def test_sort_join_in_small_blocks_matches_naive_scan(case, monkeypatch):
    # Every input fits one block of the default size.  With 64 values per
    # block the later blocks run, and inputs with more than 64 bases fall
    # back to one hyperplane per block.
    monkeypatch.setattr(srlb.incidence, "INCIDENCE_BLOCK", 64)
    _check_sort_join(case)


@pytest.mark.parametrize("block", [INCIDENCE_BLOCK, 64])
@pytest.mark.parametrize("case", sorted(SORT_JOIN_INPUTS))
def test_searched_route_matches_naive_scan(case, block, monkeypatch):
    # The same inputs with the slot route switched off, in default and small blocks.
    monkeypatch.setattr(srlb.incidence, "DENSE_SLOTS", 0)
    monkeypatch.setattr(srlb.incidence, "INCIDENCE_BLOCK", block)
    _check_sort_join(case)


def join_route(monkeypatch, table, family):
    """'slot' or 'searched', the route build_incidence_graph takes on the
    input (read from the charges it makes), or None if it raises first."""
    charged, charge = [], srlb.incidence.charge

    def record(what, amount, unit="bytes"):
        charged.append(what)
        charge(what, amount, unit)

    monkeypatch.setattr(srlb.incidence, "charge", record)
    try:
        build_incidence_graph(table, family)
    except ArithmeticOverflow:
        return None
    return "slot" if any(what.startswith("slot tables") for what in charged) else "searched"


@pytest.mark.parametrize("case", sorted(SORT_JOIN_INPUTS))
def test_join_route_at_the_default(case, monkeypatch):
    points, hyperplanes = SORT_JOIN_INPUTS[case]()
    table = points if isinstance(points, np.ndarray) else as_table(points)
    route = join_route(monkeypatch, table, as_family(list(hyperplanes)))
    assert route == ("slot" if case in SLOT_ROUTE else "searched" if case in SEARCHED_ROUTE
                     else None)
    if route == "slot":
        lexicographic = (np.lexsort(table.T[::-1]) == np.arange(len(table))).all()
        assert lexicographic == (case not in UNORDERED)


def test_searched_route_allocates_nothing_by_the_x_d_span(traced_peak, monkeypatch):
    # X_d spans 2**62 + 2 over four bases: a box of about 2**64 cells, so the
    # slot route, and any table sized by the span, is out.
    points, hyperplanes = _family_bound_overflows()
    table, family = as_table(points), as_family(hyperplanes)
    graph, peak = traced_peak(build_incidence_graph, table, family)
    assert graph.adjacency == ((0, 2), (1, 2))
    assert peak <= 64 * 1024
    assert join_route(monkeypatch, table, family) == "searched"


def _check_sort_join(case):
    points, hyperplanes = SORT_JOIN_INPUTS[case]()
    objects = list(hyperplanes)
    # The reference scans tuples and objects; the join takes a table and a family.
    rows = point_rows(points) if isinstance(points, np.ndarray) else points
    table, family = as_table(rows), as_family(objects)
    try:
        expected = naive_incidence_graph(rows, objects)
    except ArithmeticOverflow as exc:
        with pytest.raises(ArithmeticOverflow) as raised:
            build_incidence_graph(table, family)
        assert str(raised.value) == str(exc)
        # The scan names the first hyperplane to overflow.
        first = objects[1] if case == "middle_and_last_overflow" else objects[-1]
        assert str(first) in str(exc)
        return
    assert build_incidence_graph(table, family) == expected
    if case == "family_bound_overflows_each_fits":
        assert expected.adjacency == ((0, 2), (1, 2))
    else:
        assert expected.indices.size > 0


class TestRichnessHistogram:
    def test_planar(self, d2_graph):
        _, graph = d2_graph
        assert richness_histogram(graph) == {2: 8}

    def test_3d(self, d3_graph):
        _, graph = d3_graph
        assert richness_histogram(graph) == {4: 128}

    def test_empty(self):
        graph = build_incidence_graph(as_table([], 2), as_family([], 2))
        assert richness_histogram(graph) == {}

    def test_keys_and_counts_are_python_ints(self, d3_graph):
        _, graph = d3_graph
        mixed = _csr([0, 2, 2, 5, 7], [0, 3, 1, 2, 3, 0, 1])
        for histogram in (richness_histogram(graph), richness_histogram(mixed)):
            assert all(type(k) is int and type(v) is int for k, v in histogram.items())
        assert richness_histogram(mixed) == {0: 1, 2: 2, 3: 1}


class TestPairCoverage:
    def test_planar_max_is_one(self, d2_graph):
        _, graph = d2_graph
        max_common, witness = pair_coverage(graph)
        assert max_common == 1
        assert witness == (1, 10)  # (1,2) and (2,3), both on X_2 = 1 + X_1

    def test_3d_attains_bound(self, d3_graph):
        params, graph = d3_graph
        max_common, witness = pair_coverage(graph)
        # Four planes with a_1 free pass through (1,1,10) and (1,2,11);
        # the bound A**(d-2) = 4 is attained exactly.
        assert max_common == 4 == params.pair_coverage_bound()
        assert witness is not None

    def test_single_hyperplane(self):
        graph = from_rows(
            point_count=3, hyperplane_count=1, adjacency=((0, 1, 2),)
        )
        assert pair_coverage(graph) == (1, (0, 1))

    def test_no_pairs(self):
        graph = from_rows(
            point_count=3, hyperplane_count=2, adjacency=((0,), ())
        )
        assert pair_coverage(graph) == (0, None)

    def test_point_count_past_the_cap(self):
        # Pair codes i*n + j would leave uint64; refused before any row is read.
        graph = from_rows(point_count=2**32 + 1, hyperplane_count=0, adjacency=())
        with pytest.raises(ArithmeticOverflow, match="cap"):
            pair_coverage(graph)

    def test_budget(self, d2_graph, monkeypatch):
        _, graph = d2_graph
        monkeypatch.setattr(srlb.exact, "MEMORY_BUDGET", 1)
        with pytest.raises(InstanceTooLarge):
            pair_coverage(graph)

    @pytest.mark.parametrize("d,n,t", [(2, 16, 2), (2, 128, 8), (3, 96, 4)])
    def test_matches_naive_reference(self, d, n, t):
        params = normalize_params(d, n, t)
        graph = build_incidence_graph(
            generate_points(params), generate_hyperplanes(params)
        )
        assert pair_coverage(graph) == naive_pair_coverage(graph)

    def test_matches_naive_on_irregular_graph(self):
        big = 2**17  # n*n = 2**34 > 2**32: 64-bit pair codes
        cases = [
            (6, ((0, 1, 2, 5), (1, 2, 5), (0, 5), (2, 3, 4), (1, 2), ())),
            # Row lengths 0, 1, 2, 3 and t = 8 mixed.
            (12, ((), (4,), (1, 9), (1, 4, 9), tuple(range(1, 9)), (), (3, 4), (7,),
                  (1, 4, 9), (0, 1, 2, 3, 4, 5, 6, 11))),
            # Ties among maximal pairs: (1, 9), (3, 4) and (5, 7) each twice.
            (10, ((5, 7), (3, 4), (5, 7), (1, 9), (3, 4, 6), (1, 9), (0, 8))),
            (10, ((8, 9), (0, 9), (8, 9), (0, 9), (1, 2), (1, 2))),
            (big, ((0, big - 2, big - 1), (5, big - 2, big - 1), (big - 3, big - 2),
                   (big - 3, big - 2), (7, big - 1), ())),
        ]
        for n, adjacency in cases:
            graph = from_rows(
                point_count=n, hyperplane_count=len(adjacency), adjacency=adjacency
            )
            assert pair_coverage(graph) == naive_pair_coverage(graph), adjacency

    BIG = 2**17  # n*n = 2**34 > 2**32: 64-bit pair codes
    RUN_SCAN_CASES = {
        "every_code_equal": (4, ((1, 3),) * 7, (7, (1, 3))),
        "longest_run_at_first_code": (
            5, ((0, 1), (0, 1), (0, 1), (0, 2), (1, 2), (2, 4), (3, 4)), (3, (0, 1))),
        "longest_run_at_last_code": (
            5, ((0, 1), (0, 2), (1, 2), (2, 4), (3, 4), (3, 4), (3, 4)), (3, (3, 4))),
        "longest_run_after_shorter_ones": (
            4, ((0, 1),) * 2 + ((1, 2),) * 5 + ((2, 3),) * 3, (5, (1, 2))),
        "ties_smallest_code_wins": (
            5, ((2, 4), (1, 3), (2, 4), (0, 1), (1, 3), (2, 4), (1, 3)), (3, (1, 3))),
        "single_pair": (2, ((0, 1),), (1, (0, 1))),
        "uint64_codes": (
            BIG, ((BIG - 3, BIG - 2, BIG - 1),) * 2 + ((0, BIG - 1),) * 2
            + ((BIG - 2, BIG - 1), (5, BIG - 1)), (3, (BIG - 2, BIG - 1))),
    }

    @pytest.mark.parametrize("slice_size", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(RUN_SCAN_CASES))
    def test_run_scan_across_slice_edges(self, case, slice_size, monkeypatch):
        # Slices of 1 to 3 codes make every run of two or more straddle an edge.
        monkeypatch.setattr(srlb.incidence, "PAIR_SCAN_SLICE", slice_size)
        n, adjacency, expected = self.RUN_SCAN_CASES[case]
        graph = from_rows(point_count=n, hyperplane_count=len(adjacency), adjacency=adjacency)
        assert pair_coverage(graph) == naive_pair_coverage(graph) == expected


def test_verify_kernels_stay_in_bounded_scratch(traced_peak):
    # The verify benchmark's instance: 67,200 incidences, 504,000 uint32 pair
    # codes (2.0 MB).  The join peaked at 6.03 MiB with 2**18-value blocks, and
    # pair_coverage at 6.2 MiB with run arrays as long as its codes.
    params = normalize_params(3, 2**11, 16)
    assert (params.A, params.m) == (10, 4200)
    points, family = generate_points(params), generate_hyperplanes(params)
    graph, join_peak = traced_peak(build_incidence_graph, points, family)
    assert graph.indices.size == 67_200
    (max_common, _), pair_peak = traced_peak(pair_coverage, graph)
    assert max_common == 10
    assert join_peak <= 2 * 2**20
    assert pair_peak <= 3 * 2**20


@pytest.mark.parametrize("d,n,t,points", [(3, 2**17, 729, 130_491), (4, 2**16, 729, 64_881)])
def test_charge_verify_admits_a2_instances_to_twice_the_old_size(d, n, t, points):
    # Arithmetic only: nothing is generated.  Pair codes charged at 29 to 33
    # bytes each refused both; at their own size they take under half the budget.
    params = normalize_params(d, n, t)
    assert (params.n, params.A) == (points, 2)
    assert charge_verify(params) <= srlb.exact.MEMORY_BUDGET


VERIFY_CASES = [
    (2, 2**10, "auto", False), (2, 2**14, "auto", False),
    (3, 2**10, "auto", False), (3, 2**14, "auto", False),
    (4, 2**10, "auto", False), (4, 2**14, "auto", False),
    (2, 2**12, 16, False), (2, 2**14, 64, False),  # A = 8 and 2
    (3, 2**11, 16, False), (3, 2**12, 36, False),  # A = 10 and 6
    (4, 2**12, 64, False),  # A = 4
    (2, 65800, "auto", False),  # n = 65,703: uint64 pair codes
    (3, 2**11, 16, True),  # stored sections, five points repeated
]


def verify_case(d, n, t, stored):
    """The params and document of a VERIFY_CASES entry."""
    params = largest_valid_richness(d, n) if t == "auto" else normalize_params(d, n, t)
    doc = InstanceDocument(params=params, points=None, hyperplanes=None)
    if stored:
        points = point_rows(generate_points(params))
        points += points[:5]
        random.Random(17).shuffle(points)
        doc = InstanceDocument(params, as_table(points), generate_hyperplanes(params))
    return params, doc


@pytest.mark.parametrize("d,n,t,stored", VERIFY_CASES)
def test_charge_verify_bounds_the_traced_peak(traced_peak, d, n, t, stored):
    params, doc = verify_case(d, n, t, stored)
    report, peak = traced_peak(verify_instance, doc)
    assert report["richness_exact"] is not stored
    assert peak <= charge_verify(params)


def recorded_byte_charges(monkeypatch):
    """The list to which srlb.incidence.charge, still charging, now appends each byte amount."""
    amounts, charge = [], srlb.incidence.charge

    def record(what, amount, unit="bytes"):
        if unit == "bytes":
            amounts.append(amount)
        charge(what, amount, unit)

    monkeypatch.setattr(srlb.incidence, "charge", record)
    return amounts


@pytest.mark.parametrize("d,n,t,stored", VERIFY_CASES)
def test_join_charges_stay_within_charge_verify(monkeypatch, d, n, t, stored):
    params, doc = verify_case(d, n, t, stored)
    points = generate_points(params) if doc.points is None else doc.points
    family = generate_hyperplanes(params) if doc.hyperplanes is None else doc.hyperplanes
    charges = recorded_byte_charges(monkeypatch)
    build_incidence_graph(points, family)
    assert max(charges) <= charge_verify(params)


@pytest.mark.parametrize("side", [8, 32])
def test_join_peak_stays_within_its_charges(traced_peak, monkeypatch, side):
    # 4,096 points at up to side**2 distinct bases against 80,000 stored
    # hyperplanes that meet none of them, so the output (a row length and two
    # indptr copies per hyperplane, two arrays per block) outweighs a block's
    # scratch.  Charging the scratch alone, the join peaked at 2.35 MB (side 8)
    # and 3.71 MB (side 32) against largest charges of 1.18 and 1.15 MB.
    rng = np.random.default_rng(side)
    points = np.column_stack((rng.integers(1, side + 1, (4096, 2)), rng.integers(1, 1000, 4096)))
    family = HyperplaneFamily(np.ones((80_000, 2), np.int64), np.full(80_000, 10**6, np.int64))
    charges = recorded_byte_charges(monkeypatch)
    graph, peak = traced_peak(build_incidence_graph, points, family)
    assert graph.indices.size == 0
    assert peak <= max(charges)


def test_overflow_scan_holds_one_block_of_rows(traced_peak):
    # 2 points against 400,000 stored d=3 hyperplanes (9.6 MB of int64), the
    # last with a slope of 2**62, so the column envelopes fail and the rows
    # are summed one by one.  The join charges only its work before it
    # raises; summing every row at once held them all as ints, 9.6 MB here.
    slopes = np.ones((400_000, 2), np.int64)
    slopes[-1, 1] = 2**62
    family = HyperplaneFamily(slopes, np.ones(400_000, np.int64))
    raised, peak = traced_peak(build_incidence_graph, as_table([(1, 1, 2), (2, 2, 5)]), family)
    assert isinstance(raised, ArithmeticOverflow)
    assert str(raised) == (
        "incidence evaluation bound for Hyperplane(a=(1, 4611686018427387904), b=1)"
        " = 9223372036854775811 exceeds the 64-bit safe envelope"
    )
    assert peak <= 4 * 2**20


def reference_containment(hyperplanes, params):
    """Reference check: each hyperplane evaluated at the top base corner in turn."""
    top = (params.s,) * (params.d - 1)
    return all(1 <= eval_hyperplane(h, top) <= params.rows for h in hyperplanes)


CONTAINMENT_CASES = {
    "family": lambda params: generate_hyperplanes(params),
    "none": lambda params: [],
    "one_outside": lambda params: list(generate_hyperplanes(params)) + [Hyperplane(a=(5,), b=4)],
    "exactly_at_the_top_row": lambda params: [Hyperplane(a=(3,), b=2)],
    # Each evaluation fits int64 on its own; the family-wide bound does not.
    "family_bound_overflows_each_fits": lambda params: [
        Hyperplane(a=(2**61,), b=1), Hyperplane(a=(1,), b=2**62)
    ],
    "overflow_after_contained": lambda params: [
        Hyperplane(a=(1,), b=1), Hyperplane(a=(2**62,), b=1)
    ],
    # Evaluation stops at the first hyperplane outside, before the overflow.
    "outside_before_overflow": lambda params: [
        Hyperplane(a=(5,), b=4), Hyperplane(a=(2**62,), b=1)
    ],
    # The overflow comes first, so it raises although a later row lies outside.
    "overflow_before_outside": lambda params: [
        Hyperplane(a=(2**62,), b=1), Hyperplane(a=(5,), b=4)
    ],
    # The family bound holds, but the last row leaves the grid.
    "last_outside_within_bound": lambda params: [
        Hyperplane(a=(1,), b=1), Hyperplane(a=(2**40,), b=2**40)
    ],
    "top_corner_exactly_int64_max": lambda params: [Hyperplane(a=(2**62 - 1,), b=1)],
    "top_corner_one_past_int64_max": lambda params: [Hyperplane(a=(2**62 - 1,), b=2)],
    "wrong_dimension": lambda params: [Hyperplane(a=(1, 1), b=1)],
}


def _containment_case(case):
    params = normalize_params(2, 16, 2)
    hyperplanes = list(CONTAINMENT_CASES[case](params))
    width = hyperplanes[0].d if hyperplanes else params.d
    return params, hyperplanes, as_family(hyperplanes, width)


@pytest.mark.parametrize("case", sorted(CONTAINMENT_CASES))
def test_containment_matches_reference(case):
    params, hyperplanes, family = _containment_case(case)
    _check_containment(hyperplanes, params, lambda: _contained_at_top_corner(family, params))


@pytest.mark.parametrize("case", sorted(CONTAINMENT_CASES))
def test_family_containment_matches_reference(case):
    # The same check behind verify_instance.  No points: the incidence graph
    # is empty, so only containment evaluates.
    params, hyperplanes, family = _containment_case(case)
    doc = InstanceDocument(params=params, points=as_table([], params.d), hyperplanes=family)
    _check_containment(hyperplanes, params, lambda: verify_instance(doc)["containment_ok"])


def _check_containment(hyperplanes, params, contained):
    try:
        expected = reference_containment(hyperplanes, params)
    except SrlbError as exc:
        with pytest.raises(type(exc)) as raised:
            contained()
        assert str(raised.value) == str(exc)
        return
    assert contained() is expected


class TestBoundReport:
    def test_planar_example(self):
        report = bound_report(normalize_params(2, 16, 2))
        assert report["beta"] == 2
        assert report["alpha"] == 2
        assert report["figure_of_merit"] == {"num": 8, "den": 1}
        assert report["exponent"] == {"num": 1, "den": 2}

    def test_3d_example(self):
        report = bound_report(normalize_params(3, 96, 4))
        assert report["beta"] == 5
        assert report["figure_of_merit"] == {"num": 512, "den": 5}
        assert report["exponent"] == {"num": 2, "den": 3}

    def test_exact_rational_no_drift(self):
        params = normalize_params(3, 3993, 121)
        report = bound_report(params)
        beta = params.A ** (params.d - 2) + 1
        merit = Fraction(params.m * params.t, beta)
        # Lowest terms, exact integers: no float ever enters the figure.
        assert report["figure_of_merit"] == {"num": merit.numerator, "den": merit.denominator}
        assert all(type(v) is int for v in report["figure_of_merit"].values())


class TestScalingLaw:
    @pytest.mark.parametrize(
        "d,s,n_small,n_large",
        [(2, 4, 512, 1024), (3, 2, 250, 500), (2, 5, 1000, 2000)],
    )
    def test_doubling_n_scales_m_by_2_to_d(self, d, s, n_small, n_large):
        t = s ** (d - 1)
        small = normalize_params(d, n_small, t)
        large = normalize_params(d, n_large, t)
        assert small.A >= 8 and small.B >= 8
        ratio = large.m / small.m
        assert 1.5**d <= ratio <= 2.5**d
