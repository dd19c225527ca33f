import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import srlb.incidence
from srlb.errors import (
    ArithmeticOverflow,
    DimensionMismatch,
    InstanceTooLarge,
)
from srlb.exact import INT64_MAX, INT64_MIN, as_int64_array, check_int64, envelope
from srlb.geometry import (
    Hyperplane,
    InstanceParams,
    eval_hyperplane,
    generate_hyperplanes,
    generate_points,
    incident_points,
    normalize_params,
)
from srlb.incidence import (
    IncidenceGraph,
    bound_report,
    build_incidence_graph,
    pair_coverage,
    richness_histogram,
    verify_instance,
    verify_no_k2beta,
)
from srlb.io import InstanceDocument


def naive_incidence_graph(points, hyperplanes):
    """Reference implementation: test every (hyperplane, point) pair."""
    dims = {len(p) for p in points} | {h.d for h in hyperplanes}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions in input: {sorted(dims)}")

    if not points or not hyperplanes:
        return IncidenceGraph.from_rows(
            point_count=len(points),
            hyperplane_count=len(hyperplanes),
            adjacency=tuple(() for _ in hyperplanes),
        )

    coords = as_int64_array(points, "point coordinates")
    base, last = coords[:, :-1], coords[:, -1]
    max_abs = envelope(base)
    adjacency = []
    for h in hyperplanes:
        # int64 matmul must not wrap, even for out-of-family hyperplanes.
        bound = sum(abs(c) * mx for c, mx in zip(h.a, max_abs)) + abs(h.b)
        check_int64(bound, f"incidence evaluation bound for {h}")
        values = base @ as_int64_array(h.a, "hyperplane coefficients") + h.b
        adjacency.append(tuple(int(i) for i in np.flatnonzero(values == last)))
    return IncidenceGraph.from_rows(
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
        assert graph.hyperplane_count == 8
        assert all(len(row) == 2 for row in graph.adjacency)
        assert graph.total_incidences == 16

    def test_3d_shape(self, d3_graph):
        _, graph = d3_graph
        assert graph.hyperplane_count == 128
        assert all(len(row) == 4 for row in graph.adjacency)
        assert graph.total_incidences == 512

    def test_single_nonincident_pair(self):
        graph = build_incidence_graph([(1, 5)], [Hyperplane(a=(1,), b=1)])
        assert graph.adjacency == ((),)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_incidence_graph([(1, 1, 1)], [Hyperplane(a=(1,), b=1)])

    def test_envelope_guard_on_foreign_hyperplane(self):
        with pytest.raises(ArithmeticOverflow):
            build_incidence_graph([(2, 3)], [Hyperplane(a=(INT64_MAX,), b=1)])

    @pytest.mark.parametrize("slope", [1, 3])
    def test_envelope_guard_on_int64_min_coordinate(self, slope):
        # |INT64_MIN| itself leaves int64; with slope 3, b + a*x wraps onto X_d.
        point = (-(2**63), -(2**63) + 1)
        with pytest.raises(ArithmeticOverflow):
            build_incidence_graph([point], [Hyperplane(a=(slope,), b=1)])

    def test_agrees_with_parametric_route(self, d3_instance, d3_graph):
        params, points, hyperplanes = d3_instance
        _, graph = d3_graph
        index = {p: i for i, p in enumerate(points)}
        for h, row in zip(hyperplanes, graph.adjacency):
            expected = sorted(index[p] for p in incident_points(h, params))
            assert list(row) == expected

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            IncidenceGraph.from_rows(point_count=2, hyperplane_count=1, adjacency=((0, 2),))
        with pytest.raises(ValueError):
            IncidenceGraph.from_rows(point_count=3, hyperplane_count=1, adjacency=((1, 0),))
        with pytest.raises(ValueError):
            IncidenceGraph.from_rows(point_count=3, hyperplane_count=2, adjacency=((0,),))

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
            return IncidenceGraph.from_rows(
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
        assert graph.hyperplane_count == 3
        assert graph.total_incidences == 5
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
        graph = IncidenceGraph.from_rows(
            point_count=point_count, hyperplane_count=len(adjacency), adjacency=adjacency
        )
        assert graph.adjacency == adjacency
        assert graph.indptr.dtype == graph.indices.dtype == np.int64
        again = IncidenceGraph.from_rows(
            point_count=point_count,
            hyperplane_count=graph.hyperplane_count,
            adjacency=graph.adjacency,
        )
        assert again == graph
        assert again != IncidenceGraph.from_rows(
            point_count=point_count + 1,
            hyperplane_count=graph.hyperplane_count,
            adjacency=graph.adjacency,
        )

    def test_built_graph_round_trips(self, d3_graph):
        _, graph = d3_graph
        again = IncidenceGraph.from_rows(
            point_count=graph.point_count,
            hyperplane_count=graph.hyperplane_count,
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


def _coefficient_leaves_int64():
    # 2**63 cannot even be converted to int64, so the per-hyperplane scan names it.
    return [(2, 3), (1, 2)], [Hyperplane(a=(1,), b=1), Hyperplane(a=(2**63,), b=1)]


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
    "coefficient_leaves_int64": _coefficient_leaves_int64,
    "int64_min_base_coordinate": _int64_min_base,
    "shuffled_d4_bases_tie_on_leading_coordinates": _bases_tie_on_leading_coordinates,
}


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


def _check_sort_join(case):
    points, hyperplanes = SORT_JOIN_INPUTS[case]()
    try:
        expected = naive_incidence_graph(points, hyperplanes)
    except ArithmeticOverflow as exc:
        with pytest.raises(ArithmeticOverflow) as raised:
            build_incidence_graph(points, hyperplanes)
        assert str(raised.value) == str(exc)
        assert str(hyperplanes[-1]) in str(exc)  # the last is the first to overflow
        return
    assert build_incidence_graph(points, hyperplanes) == expected
    if case == "family_bound_overflows_each_fits":
        assert expected.adjacency == ((0, 2), (1, 2))
    else:
        assert expected.total_incidences > 0


class TestRichnessHistogram:
    def test_planar(self, d2_graph):
        _, graph = d2_graph
        assert richness_histogram(graph) == {2: 8}

    def test_3d(self, d3_graph):
        _, graph = d3_graph
        assert richness_histogram(graph) == {4: 128}

    def test_empty(self):
        graph = build_incidence_graph([], [])
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
        graph = IncidenceGraph.from_rows(
            point_count=3, hyperplane_count=1, adjacency=((0, 1, 2),)
        )
        assert pair_coverage(graph) == (1, (0, 1))

    def test_no_pairs(self):
        graph = IncidenceGraph.from_rows(
            point_count=3, hyperplane_count=2, adjacency=((0,), ())
        )
        assert pair_coverage(graph) == (0, None)

    def test_budget(self, d2_graph):
        _, graph = d2_graph
        with pytest.raises(InstanceTooLarge):
            pair_coverage(graph, budget=1)

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
            graph = IncidenceGraph.from_rows(
                point_count=n, hyperplane_count=len(adjacency), adjacency=adjacency
            )
            assert pair_coverage(graph) == naive_pair_coverage(graph), adjacency


def reference_containment(hyperplanes, params):
    """Reference check: each hyperplane evaluated at the top base corner in turn."""
    top = (params.s,) * (params.d - 1)
    return all(1 <= eval_hyperplane(h, top) <= params.rows for h in hyperplanes)


CONTAINMENT_CASES = {
    "family": lambda params: generate_hyperplanes(params),
    "none": lambda params: [],
    "one_outside": lambda params: generate_hyperplanes(params) + [Hyperplane(a=(5,), b=4)],
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
}


@pytest.mark.parametrize("case", sorted(CONTAINMENT_CASES))
def test_containment_matches_reference(case):
    params = normalize_params(2, 16, 2)
    hyperplanes = CONTAINMENT_CASES[case](params)
    # No points: the incidence graph is empty, so only containment evaluates.
    doc = InstanceDocument(params=params, points=[], hyperplanes=hyperplanes)
    try:
        expected = reference_containment(hyperplanes, params)
    except ArithmeticOverflow as exc:
        with pytest.raises(ArithmeticOverflow) as raised:
            verify_instance(doc)
        assert str(raised.value) == str(exc)
        return
    assert verify_instance(doc)["containment_ok"] is expected


class TestVerifyNoK2Beta:
    def test_planar(self, d2_graph):
        params, graph = d2_graph
        assert verify_no_k2beta(graph, params) is True

    def test_3d(self, d3_graph):
        params, graph = d3_graph
        assert verify_no_k2beta(graph, params) is True

    def test_adversarial_fixture_fails(self, d2_graph):
        params, _ = d2_graph
        # Two points sharing A**(d-2) + 1 = 2 hyperplanes: a K_{2,2}.
        bad = IncidenceGraph.from_rows(
            point_count=16,
            hyperplane_count=8,
            adjacency=((0, 1), (0, 1)) + ((),) * 6,
        )
        assert verify_no_k2beta(bad, params) is False

    def test_budget_propagates(self, d2_graph):
        params, graph = d2_graph
        with pytest.raises(InstanceTooLarge):
            verify_no_k2beta(graph, params, budget=1)


class TestBoundReport:
    def test_planar_example(self):
        report = bound_report(normalize_params(2, 16, 2))
        assert report.beta == 2
        assert report.alpha == 2
        assert report.space_figure_of_merit == Fraction(8)
        assert report.predicted_query_exponent == Fraction(1, 2)

    def test_3d_example(self):
        report = bound_report(normalize_params(3, 96, 4))
        assert report.beta == 5
        assert report.space_figure_of_merit == Fraction(512, 5)
        assert report.predicted_query_exponent == Fraction(2, 3)

    def test_exact_rational_no_drift(self):
        params = normalize_params(3, 3993, 121)
        report = bound_report(params)
        beta = params.A ** (params.d - 2) + 1
        assert report.space_figure_of_merit == Fraction(params.m * params.t, beta)
        assert isinstance(report.space_figure_of_merit, Fraction)


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
