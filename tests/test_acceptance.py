"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The instance grid shared by several criteria is (d, n) over
{2,3,4} x {2^10, 2^12, 2^14} with the richness rule set to auto.
"""

import functools
import itertools
import json
import random

import numpy as np
import pytest

from conftest import from_rows
from srlb.cli import main
from srlb.errors import RangeTooTight
from srlb.geometry import (
    InstanceParams,
    generate_hyperplanes,
    generate_points,
    largest_valid_richness,
    normalize_params,
)
from srlb.incidence import (
    build_incidence_graph,
    pair_coverage,
    richness_histogram,
)
from srlb.reporting import (
    brute_force_query,
    build_kdtree,
    query,
    random_simplex_queries,
    slab_query_for,
)

GRID_DIMS = (2, 3, 4)
GRID_EXPONENTS = (10, 12, 14)
RANDOM_QUERIES_PER_INSTANCE = 1000


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number} FAIL  {label}")
                raise
            print(f"\ncriterion {number} PASS  {label}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def grid():
    """(d, exponent) -> (params, points, hyperplanes, graph) with t = auto."""
    built = {}
    for d, k in itertools.product(GRID_DIMS, GRID_EXPONENTS):
        params = largest_valid_richness(d, 2**k)
        points = generate_points(params)
        hyperplanes = generate_hyperplanes(params)
        graph = build_incidence_graph(points, hyperplanes)
        built[(d, k)] = (params, points, hyperplanes, graph)
    return built


@criterion(1, "every family hyperplane is exactly t-rich on the full grid")
def test_criterion_1_richness(grid):
    for (d, k), (params, _, _, graph) in grid.items():
        assert richness_histogram(graph) == {params.t: params.m}, (d, k)


@criterion(2, "pair coverage never exceeds A**(d-2); attained for d=2")
def test_criterion_2_pair_coverage(grid):
    for (d, k), (params, _, _, graph) in grid.items():
        max_common, witness = pair_coverage(graph)
        assert max_common <= params.pair_coverage_bound(), (d, k)
        if d == 2:
            assert params.m >= 2 and params.t >= 2
            assert max_common == 1, (d, k)
            assert witness is not None


@criterion(3, "family size equals A**(d-1) * B with no duplicates")
def test_criterion_3_family_size(grid):
    for (d, k), (params, _, hyperplanes, _) in grid.items():
        assert len(hyperplanes) == params.A ** (params.d - 1) * params.B == params.m
        assert len(set(hyperplanes)) == params.m, (d, k)


@criterion(4, "containment holds iff accepted (exhaustive d, s, n/t sweep)")
def test_criterion_4_containment_exhaustive():
    for d, s, rows in itertools.product((2, 3, 4), range(1, 7), range(1, 65)):
        t = s ** (d - 1)
        n = rows * t
        formula_A = n // (d * s**d)
        formula_B = n // (d * t)
        if formula_A >= 1 and formula_B >= 1:
            params = normalize_params(d, n, t)
            assert (params.s, params.t, params.n) == (s, t, n)
            assert params.A == formula_A and params.B == formula_B
            assert params.containment_holds(), (d, s, rows)
            assert params.max_last_coordinate() <= params.rows
        else:
            with pytest.raises(RangeTooTight):
                normalize_params(d, n, t)


@criterion(5, "tree queries equal the brute-force oracle (slabs + random)")
def test_criterion_5_oracle_equivalence(grid):
    for (d, k), (params, points, hyperplanes, _) in grid.items():
        if params.n > 2**14:
            continue
        tree = build_kdtree(points)
        for h in hyperplanes:
            q = slab_query_for(h)
            reported, _ = query(tree, q)
            assert np.array_equal(reported, brute_force_query(points, q)), (d, k, h)
        rng = random.Random(d * 1000 + k)
        for q in random_simplex_queries(params, RANDOM_QUERIES_PER_INSTANCE, rng):
            reported, _ = query(tree, q)
            assert np.array_equal(reported, brute_force_query(points, q)), (d, k, q)


@criterion(6, "every slab query reports k = t exactly")
def test_criterion_6_slab_output_size(grid):
    for (d, k), (params, points, hyperplanes, _) in grid.items():
        tree = build_kdtree(points)
        for h in hyperplanes:
            _, stats = query(tree, slab_query_for(h))
            assert stats.points_reported == params.t, (d, k, h)


@criterion(7, "empirical query exponent matches (d-1)/d within 0.1")
def test_criterion_7_scaling_exponent(tmp_path, capsys):
    windows = {
        2: (",".join(str(2**k) for k in range(10, 19)), 0.5),
        3: (",".join(str(2**k) for k in range(12, 19)), 2 / 3),
    }
    for d, (sizes, target) in windows.items():
        csv_path = tmp_path / f"bench_d{d}.csv"
        rc = main(["bench", "-d", str(d), "--sizes", sizes, "--t-rule", "auto",
                   "--seed", "0", "--out", str(csv_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["fit", str(csv_path)])
        out = capsys.readouterr().out
        assert rc == 0
        fit = json.loads(out.strip().splitlines()[-1])
        assert abs(fit["slope"] - target) <= 0.1, (d, fit)


@criterion(8, "bound calculator reproduces the exact rationals and identity")
def test_criterion_8_bound_calculator(capsys):
    rc = main(["bound", "-d", "2", "-n", "16", "-t", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["figure_of_merit"] == {"num": 8, "den": 1}

    rc = main(["bound", "-d", "3", "-n", "96", "-t", "4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["figure_of_merit"] == {"num": 512, "den": 5}

    rc = main(["bound", "-d", "2", "-n", str(2**20), "-t", "2", "--space", "n"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # (n^2 / n)^((d-1)/d) = n^(1/2) = 1024 to 6 significant digits.
    assert doc["implied_query_bound"] == pytest.approx(1024.0, rel=5e-7)


@criterion(9, "injected faults trip the matching verifier")
def test_criterion_9_falsifiability(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "-d", "2", "-n", "16", "-t", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    pristine = path.read_text()

    # Moved point: (1,2) leaves its only line; richness is no longer exact.
    doc = json.loads(pristine)
    doc["points"][1] = [1, 9]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["richness_exact"] is False

    # Duplicated hyperplane: the repeated line shares both its points with
    # its copy, yielding pair coverage 2 > A**(d-2) = 1.
    doc = json.loads(pristine)
    doc["hyperplanes"][1] = doc["hyperplanes"][0]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["k2beta_free"] is False

    # Hand-built K_{2, beta} incidence graph fed straight to the verifier.
    params = normalize_params(2, 16, 2)
    beta = params.pair_coverage_bound() + 1
    planted = from_rows(
        point_count=params.n,
        hyperplane_count=params.m,
        adjacency=tuple([(0, 1)] * beta + [()] * (params.m - beta)),
    )
    assert pair_coverage(planted)[0] > params.pair_coverage_bound()
