import itertools
import time

import numpy as np
import pytest

from conftest import point_rows
from srlb.errors import (
    ArithmeticOverflow,
    DimensionMismatch,
    PointEscapesGrid,
    RangeTooTight,
    SrlbError,
)
from srlb.exact import INT64_MAX, iroot
from srlb.geometry import (
    Hyperplane,
    HyperplaneFamily,
    InstanceParams,
    eval_hyperplane,
    generate_hyperplanes,
    generate_points,
    hyperplane_at,
    incident_points,
    largest_valid_richness,
    normalize_params,
)

def incident(h, p):
    """True iff p lies on h (exact integer test); the scan oracles' predicate."""
    if len(p) != h.d:
        raise DimensionMismatch(f"point has {len(p)} coords, hyperplane is {h.d}-dimensional")
    return p[-1] == eval_hyperplane(h, p[:-1])


def reference_generate_hyperplanes(params):
    """The family as a list of objects, enumerated by itertools (the oracle)."""
    coeffs = itertools.product(
        *([range(1, params.A + 1)] * (params.d - 1) + [range(1, params.B + 1)])
    )
    return [Hyperplane(a=c[:-1], b=c[-1]) for c in coeffs]


def reference_generate_points(params):
    """The grid as a list of tuples, enumerated by itertools (the oracle)."""
    axes = [range(1, params.s + 1)] * (params.d - 1) + [range(1, params.rows + 1)]
    return list(itertools.product(*axes))


# A crafted d must be answered or refused without building a d-bit integer;
# such an integer takes d / 8 bytes, so this also bounds the work.
SMALL_PEAK_BYTES = 64 * 1024


class TestIroot:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_defining_property(self, k):
        values = list(range(200)) + [r**k + delta for r in (7, 100, 10**6) for delta in (-1, 0, 1)]
        for x in values:
            if x < 0:
                continue
            v = iroot(x, k)
            assert v**k <= x < (v + 1) ** k

    def test_float_trap(self):
        # Values where a naive round(x ** (1/k)) is off by one.
        assert iroot(10**18, 2) == 10**9
        assert iroot(10**18 - 1, 2) == 10**9 - 1
        assert iroot(2**60 - 1, 3) == 2**20 - 1
        # The float of (2**53 + 1)**2 rounds to 2**106, so the guess is one low.
        assert iroot((2**53 + 1) ** 2, 2) == 2**53 + 1

    @pytest.mark.parametrize("value", [2, 3, 2**63 - 1])
    @pytest.mark.parametrize("k", [64, 2**20, 2**24])
    def test_huge_k_returns_one_without_the_power(self, value, k, traced_peak):
        # (r + 1)**k with r = 1 would build a k-bit integer.
        root, peak = traced_peak(iroot, value, k)
        assert root == 1 and peak < SMALL_PEAK_BYTES

    def test_bad_args(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)
        with pytest.raises(ValueError):
            iroot(4, 0)


class TestNormalizeParams:
    def test_worked_planar_example(self):
        p = normalize_params(2, 16, 2)
        assert (p.d, p.s, p.t, p.n, p.A, p.B, p.m) == (2, 2, 2, 16, 2, 4, 8)

    def test_worked_3d_example_containment_boundary(self):
        p = normalize_params(3, 96, 4)
        assert (p.d, p.s, p.t, p.n, p.A, p.B, p.m) == (3, 2, 4, 96, 4, 8, 128)
        # 8 + 2*4*2 = 24 = 96/4: the inequality is tight here.
        assert p.max_last_coordinate() == 24 == p.rows

    def test_too_tight(self):
        with pytest.raises(RangeTooTight):
            normalize_params(2, 4, 4)

    def test_rounds_t_down_to_power_and_n_to_multiple(self):
        p = normalize_params(3, 100, 5)
        assert p.s == 2 and p.t == 4 and p.n == 100
        q = normalize_params(2, 31, 3)
        assert q.t == 3 and q.n == 30

    def test_preconditions(self):
        with pytest.raises(ValueError):
            normalize_params(1, 16, 2)
        with pytest.raises(ValueError):
            normalize_params(2, 0, 2)
        with pytest.raises(ValueError):
            normalize_params(2, 16, 0)

    def test_point_cap_overflow(self):
        with pytest.raises(ArithmeticOverflow):
            normalize_params(2, 2**33, 2)

    def test_huge_richness_request_overflows(self):
        with pytest.raises(ArithmeticOverflow):
            normalize_params(2, 16, 10**30)

    def test_family_size_overflow(self):
        # d=4, t=1 makes m = (n/4)**3 * (n/4) blow past int64.
        with pytest.raises(ArithmeticOverflow):
            normalize_params(4, 2**32, 1)

    @pytest.mark.parametrize("d", [64, 2**16, 2**20])
    def test_huge_d_family_size_refused_without_the_power(self, d, traced_peak):
        error, peak = traced_peak(normalize_params, d, 2**32, 1)
        assert isinstance(error, ArithmeticOverflow)
        A = B = 2**32 // d
        assert str(error) == (
            f"family size A**(d-1)*B with A={A}, B={B}, d={d} exceeds the 64-bit safe envelope"
        )
        assert peak < SMALL_PEAK_BYTES

    def test_huge_d_small_request_refused_without_the_power(self, traced_peak):
        # iroot(3, d - 1) is 1: reached without building 2**(d-1).
        error, peak = traced_peak(normalize_params, 2**20, 10, 3)
        assert isinstance(error, RangeTooTight)
        assert peak < SMALL_PEAK_BYTES

    def test_invariants_reverified_by_type(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            InstanceParams(d=1, s=2, t=1, n=16, A=2, B=4, m=4)
        with pytest.raises(ValueError, match="s must be >= 1"):
            InstanceParams(d=2, s=0, t=0, n=16, A=2, B=4, m=8)
        with pytest.raises(ValueError):
            InstanceParams(d=2, s=2, t=3, n=16, A=2, B=4, m=8)
        with pytest.raises(ValueError):
            InstanceParams(d=2, s=2, t=2, n=15, A=2, B=4, m=8)
        with pytest.raises(ValueError):
            InstanceParams(d=2, s=2, t=2, n=16, A=2, B=4, m=9)
        with pytest.raises(RangeTooTight):
            InstanceParams(d=2, s=2, t=2, n=16, A=0, B=4, m=0)
        with pytest.raises(RangeTooTight):
            # B + (d-1)*A*s = 9 + 4 > 16/2.
            InstanceParams(d=2, s=2, t=2, n=16, A=2, B=9, m=18)

    @pytest.mark.parametrize("field", ["d", "s", "t", "n", "A", "B", "m"])
    def test_field_outside_int64_rejected(self, field):
        fields = dict(d=2, s=2, t=2, n=16, A=2, B=4, m=8)
        fields[field] = INT64_MAX + 1
        with pytest.raises(ArithmeticOverflow, match=f"^{field} = "):
            InstanceParams(**fields)

    @pytest.mark.parametrize("s,t,A", [(3, 3, 1), (1, 1, 3)], ids=["s_power", "A_power"])
    def test_huge_d_rejected_without_computing_the_power(self, s, t, A):
        # s**(d-1) or A**(d-1) would have millions of digits; past exponent
        # 63 any base >= 2 exceeds INT64_MAX, so the check needs no power.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="> INT64_MAX"):
            InstanceParams(d=2**24, s=s, t=t, n=3, A=A, B=1, m=1)
        assert time.perf_counter() - start < 1.0


def search_largest_valid_richness(d, n_requested):
    """The downward search the closed form replaced, kept as its reference:
    try sides from just above iroot(n // d, d) down to 1."""
    if d < 2 or n_requested < 1:
        raise ValueError(f"need d >= 2 and n >= 1, got d={d}, n={n_requested}")
    s = iroot(n_requested // d, d) + 1 if n_requested >= d else 1
    while s >= 1:
        try:
            return normalize_params(d, n_requested, s ** (d - 1))
        except RangeTooTight:
            s -= 1
    raise RangeTooTight(f"no valid richness exists for d={d}, n={n_requested}")


def outcome(fn, *args):
    """fn(*args), or the type of the SrlbError it raises."""
    try:
        return fn(*args)
    except SrlbError as exc:
        return type(exc)


class TestLargestValidRichness:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_closed_form_matches_the_search(self, d):
        sizes = list(range(1, 4097))
        sizes += [2**k + delta for k in range(1, 41) for delta in (-1, 0, 1)]
        for n in sizes:
            expected = outcome(search_largest_valid_richness, d, n)
            assert outcome(largest_valid_richness, d, n) == expected, (d, n)

    @pytest.mark.parametrize("d,n,expected_s", [(2, 1024, 22), (3, 1024, 6), (4, 1024, 4)])
    def test_known_sizes(self, d, n, expected_s):
        p = largest_valid_richness(d, n)
        assert p.s == expected_s
        # Maximality: the next larger side must be rejected.
        with pytest.raises(RangeTooTight):
            normalize_params(d, n, (p.s + 1) ** (d - 1))

    def test_small_n_falls_back_to_t1(self):
        p = largest_valid_richness(2, 2)
        assert p.t == 1 and p.n == 2

    def test_no_valid_richness(self):
        with pytest.raises(RangeTooTight):
            largest_valid_richness(2, 1)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="need d >= 2"):
            largest_valid_richness(1, 8)

    def test_n_beyond_int64_is_refused_before_the_root(self):
        # iroot's float guess of a 401-digit n would raise OverflowError.
        with pytest.raises(ArithmeticOverflow, match="^n = "):
            largest_valid_richness(2, 10**400)


class TestGeneratePoints:
    @pytest.mark.parametrize("d,n,t", [
        (2, 16, 2), (2, 30, 3), (3, 96, 4), (4, 1024, 64), (5, 320, 16), (5, 2**12, 81),
        # The instances of the three benchmark workloads.
        *((2, 2**e, s) for e, s in zip(range(7, 13), (5, 8, 11, 16, 22, 32))),
        (3, 2**10, 25), (3, 2**11, 16),
    ])
    def test_table_matches_the_oracle(self, d, n, t):
        params = normalize_params(d, n, t)
        table = generate_points(params)
        assert table.shape == (params.n, params.d)
        assert point_rows(table) == reference_generate_points(params)
        with pytest.raises(ValueError):
            table[0, 0] = 0

    def test_planar_lattice(self, d2_instance):
        _, points, _ = d2_instance
        rows = point_rows(points)
        assert len(rows) == 16
        assert rows[0] == (1, 1)
        assert rows[-1] == (2, 8)

    def test_3d_extent(self, d3_instance):
        params, points, _ = d3_instance
        assert len(points) == 96
        for axis, top in enumerate((2, 2, 24)):
            assert {p[axis] for p in points} == set(range(1, top + 1))

    @pytest.mark.parametrize("d,n,t", [(2, 16, 2), (3, 96, 4), (2, 30, 3), (4, 1024, 64)])
    def test_count_and_uniqueness(self, d, n, t):
        params = normalize_params(d, n, t)
        points = point_rows(generate_points(params))
        assert len(points) == params.n
        assert len(set(points)) == params.n

    def test_deterministic(self, d2_instance):
        params, points, _ = d2_instance
        assert point_rows(generate_points(params)) == point_rows(points)


class TestGenerateHyperplanes:
    def test_planar_family_enumerated(self, d2_instance):
        _, _, hyperplanes = d2_instance
        expected = [Hyperplane(a=(a,), b=b) for a in (1, 2) for b in (1, 2, 3, 4)]
        assert list(hyperplanes) == expected

    def test_3d_count(self, d3_instance):
        params, _, hyperplanes = d3_instance
        assert len(hyperplanes) == 128 == params.m
        assert len(set(hyperplanes)) == 128

    def test_singleton_family(self):
        params = InstanceParams(d=2, s=1, t=1, n=2, A=1, B=1, m=1)
        assert list(generate_hyperplanes(params)) == [Hyperplane(a=(1,), b=1)]

    @pytest.mark.parametrize("d,n,t", [(2, 64, 4), (3, 96, 4)])
    def test_indexed_access_matches_enumeration(self, d, n, t):
        params = normalize_params(d, n, t)
        family = generate_hyperplanes(params)
        assert [hyperplane_at(params, i) for i in range(params.m)] == list(family)
        with pytest.raises(ValueError):
            hyperplane_at(params, params.m)

    def test_d3_order_is_pinned(self):
        # The (a, b) order written out, so it has a reference outside numpy.
        params = normalize_params(3, 96, 4)
        assert (params.A, params.B, params.m) == (4, 8, 128)
        family = generate_hyperplanes(params)
        expected = [Hyperplane(a=(1, 1), b=b) for b in range(1, 9)] + [Hyperplane(a=(1, 2), b=1)]
        last = Hyperplane(a=(4, 4), b=8)
        assert list(family)[:9] == expected and family[127] == last
        assert [hyperplane_at(params, i) for i in (*range(9), 127)] == [*expected, last]

    def test_hyperplane_validation(self):
        # The family checks every row it is given; a Hyperplane is a plain value.
        for slopes, offsets in [(np.ones((1, 0), np.int64), [1]), ([[0]], [1]), ([[1]], [0])]:
            with pytest.raises(ValueError):
                HyperplaneFamily(np.array(slopes, np.int64), np.array(offsets, np.int64))


def _columns(rows):
    """Slopes and offsets of (a..., b) rows as fresh int64 arrays."""
    table = np.array(rows, dtype=np.int64)
    return table[:, :-1].copy(), table[:, -1].copy()


class TestHyperplaneFamily:
    @pytest.mark.parametrize(
        "d,n,t", [(2, 16, 2), (2, 256, 4), (3, 96, 4), (3, 2048, 16), (4, 256, 8), (5, 1024, 16)]
    )
    def test_equals_the_itertools_oracle(self, d, n, t):
        params = normalize_params(d, n, t)
        family = generate_hyperplanes(params)
        assert isinstance(family, HyperplaneFamily)
        assert (len(family), family.d) == (params.m, d)
        assert family.slopes.shape == (params.m, d - 1) and family.offsets.shape == (params.m,)
        assert list(family) == reference_generate_hyperplanes(params)
        assert all(type(h) is Hyperplane and type(h.a) is tuple for h in family)
        assert all(type(c) is int for h in family for c in (*h.a, h.b))

    def test_columns_are_read_only(self, d3_instance):
        _, _, family = d3_instance
        for column in (family.slopes, family.offsets):
            assert column.dtype == np.int64 and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 5

    @pytest.mark.parametrize(
        "rows,bad",
        [
            ([(1, 1), (0, 2), (1, 0)], 1),
            ([(1, 1, 1), (2, 3, 1), (2, -4, 7), (0, 0, 0)], 2),
            ([(1, 1), (1, 1), (3, 0)], 2),
            ([(-(2**63), 2**63 - 1)], 0),
            # Only the last slope column, or only the offset, of the first bad row.
            ([(1, 1, 1, 1), (2, 3, 0, 5), (0, 1, 1, 1)], 1),
            ([(1, 1, 1, 1), (2, 3, 4, 0), (1, 0, 1, 1)], 1),
            ([(1, 1), (1, 1), (1, 1), (1, -3), (-3, 1)], 3),
        ],
    )
    def test_first_bad_row_named_as_hyperplane_names_it(self, rows, bad):
        table = np.array(rows, dtype=np.int64)
        # Fresh columns, and views of one table as the loader passes them.
        for columns in (_columns(rows), (table[:, :-1], table[:, -1])):
            with pytest.raises(ValueError) as raised:
                HyperplaneFamily(*columns)
            a, b = rows[bad][:-1], rows[bad][-1]
            assert str(raised.value) == f"coefficients must be >= 1, got a={a}, b={b}"

    @pytest.mark.parametrize(
        "slopes,offsets",
        [
            (np.ones((2, 1), dtype=np.int32), np.ones(2, dtype=np.int64)),
            (np.ones((2, 1)), np.ones(2)),
            (np.ones(2, dtype=np.int64), np.ones(2, dtype=np.int64)),
            (np.ones((2, 0), dtype=np.int64), np.ones(2, dtype=np.int64)),
            (np.ones((2, 1), dtype=np.int64), np.ones(3, dtype=np.int64)),
            (np.ones((2, 1), dtype=np.int64), np.ones((2, 1), dtype=np.int64)),
        ],
        ids=["int32", "float", "1d_slopes", "no_slopes", "length_mismatch", "2d_offsets"],
    )
    def test_malformed_columns_rejected(self, slopes, offsets):
        with pytest.raises(ValueError, match="need int64 slopes"):
            HyperplaneFamily(slopes, offsets)

    def test_empty_family(self):
        family = HyperplaneFamily(np.empty((0, 2), np.int64), np.empty(0, np.int64))
        assert (len(family), family.d, list(family)) == (0, 3, [])

    def test_indexing_behaves_like_a_list(self):
        params = normalize_params(3, 96, 4)
        family, oracle = generate_hyperplanes(params), reference_generate_hyperplanes(params)
        for i in (0, 1, 17, params.m - 1, -1, -params.m, np.int64(5)):
            assert family[i] == oracle[i]
            assert type(family[i].b) is int and all(type(c) is int for c in family[i].a)
        for i in (params.m, -params.m - 1):
            with pytest.raises(IndexError):
                family[i]
        for i in (1.0, "1", [1, 2], None, slice(3, 9)):
            with pytest.raises(TypeError):
                family[i]

    def test_compares_by_identity(self, d3_instance):
        params, _, family = d3_instance
        assert family == family and family != generate_hyperplanes(params)
        assert hash(family) == hash(family)


class TestEvalAndIncidence:
    def test_eval_examples(self):
        assert eval_hyperplane(Hyperplane(a=(1,), b=1), (1,)) == 2
        assert eval_hyperplane(Hyperplane(a=(2,), b=4), (2,)) == 8
        assert eval_hyperplane(Hyperplane(a=(4, 4), b=8), (2, 2)) == 24

    def test_eval_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_hyperplane(Hyperplane(a=(1, 1), b=1), (1,))

    def test_eval_overflow(self):
        with pytest.raises(ArithmeticOverflow):
            eval_hyperplane(Hyperplane(a=(INT64_MAX,), b=1), (3,))

    def test_incident_examples(self):
        h = Hyperplane(a=(1,), b=1)
        assert incident(h, (1, 2)) is True
        assert incident(h, (1, 3)) is False
        with pytest.raises(DimensionMismatch):
            incident(h, (1, 2, 3))

    def test_offset_uniquely_determines_incidence(self, d2_instance):
        # x_d is a function of the base coords, so planes differing only in
        # b can share no point.
        _, points, _ = d2_instance
        h1 = Hyperplane(a=(2,), b=1)
        h2 = Hyperplane(a=(2,), b=3)
        for p in points:
            assert not (incident(h1, p) and incident(h2, p))

    def test_incident_points_planar(self, d2_instance):
        params, _, _ = d2_instance
        assert incident_points(Hyperplane(a=(1,), b=1), params) == [(1, 2), (2, 3)]

    def test_incident_points_cross_checked_3d(self, d3_instance):
        params, points, hyperplanes = d3_instance
        for h in hyperplanes:
            parametric = incident_points(h, params)
            assert len(parametric) == 4
            scanned = [p for p in point_rows(points) if incident(h, p)]
            assert sorted(parametric) == sorted(scanned)

    @pytest.mark.parametrize("d,n,t", [(2, 16, 2), (2, 1024, 22), (3, 96, 4), (4, 1024, 64)])
    def test_exact_richness_whole_family(self, d, n, t):
        params = normalize_params(d, n, t)
        for h in generate_hyperplanes(params):
            assert len(incident_points(h, params)) == params.t

    def test_point_escapes_grid_for_foreign_hyperplane(self, d2_instance):
        params, _, _ = d2_instance
        with pytest.raises(PointEscapesGrid):
            incident_points(Hyperplane(a=(5,), b=4), params)

    def test_incident_points_dimension_mismatch(self, d2_instance):
        params, _, _ = d2_instance
        with pytest.raises(DimensionMismatch):
            incident_points(Hyperplane(a=(1, 1), b=1), params)


class TestConstructionProperties:
    @pytest.mark.parametrize("d,n,t", [(2, 16, 2), (3, 96, 4), (2, 256, 8), (3, 648, 36)])
    def test_parametric_predicate_agreement(self, d, n, t):
        params = normalize_params(d, n, t)
        points = point_rows(generate_points(params))
        for h in generate_hyperplanes(params):
            via_scan = {p for p in points if incident(h, p)}
            assert set(incident_points(h, params)) == via_scan

    @pytest.mark.parametrize("d,n,t", [(2, 16, 2), (3, 96, 4), (4, 1024, 64)])
    def test_containment_attained_at_top_corner(self, d, n, t):
        params = normalize_params(d, n, t)
        top = (params.s,) * (params.d - 1)
        best = max(
            eval_hyperplane(h, top) for h in generate_hyperplanes(params)
        )
        assert best == params.max_last_coordinate() <= params.rows

    def test_generation_is_pure(self):
        params = normalize_params(3, 96, 4)
        assert point_rows(generate_points(params)) == point_rows(generate_points(params))
        assert list(generate_hyperplanes(params)) == list(generate_hyperplanes(params))
