import functools
import json
import random

import pytest

import srlb.cli
import srlb.geometry
import srlb.incidence
import srlb.io
from srlb.cli import main
from srlb.geometry import (
    generate_hyperplanes,
    generate_points,
    largest_valid_richness,
    normalize_params,
)
from srlb.incidence import IncidenceGraph, verify_instance
from srlb.io import instance_to_dict, load_instance, read_stats_csv


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


class TestGen:
    def test_writes_instance_and_prints_report(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        rc, stdout, _ = run_cli(capsys, "gen", "-d", "2", "-n", "16", "-t", "2",
                                "--out", str(out))
        assert rc == 0
        doc = load_instance(out)
        assert len(doc.points) == 16 and len(doc.hyperplanes) == 8
        printed = last_json(stdout)
        assert printed["params"] == {"d": 2, "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, "m": 8}
        assert printed["bound"]["figure_of_merit"] == {"num": 8, "den": 1}

    def test_3d_instance(self, tmp_path, capsys):
        out = tmp_path / "inst3.json"
        rc, stdout, _ = run_cli(capsys, "gen", "-d", "3", "-n", "96", "-t", "4",
                                "--out", str(out))
        assert rc == 0
        doc = load_instance(out)
        assert len(doc.points) == 96 and len(doc.hyperplanes) == 128

    def test_too_tight_fails_with_named_constraint(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, _, stderr = run_cli(capsys, "gen", "-d", "2", "-n", "4", "-t", "4")
        assert rc == 2
        assert "A = floor" in stderr

    def test_default_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, stdout, _ = run_cli(capsys, "gen", "-d", "2", "-n", "16", "-t", "2")
        assert rc == 0
        assert (tmp_path / "instance_d2_n16_t2.json").exists()
        assert last_json(stdout)["out"] == "instance_d2_n16_t2.json"

    @pytest.mark.parametrize("d,n", [(2, 2**16), (3, 2**15), (4, 2**14)])
    def test_gen_verify_round_trip(self, d, n, tmp_path, capsys):
        path = tmp_path / "roundtrip.json"
        assert main(["gen", "-d", str(d), "-n", str(n), "-t",
                     str(largest_valid_richness(d, n).t), "--out", str(path)]) == 0
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    rc = main(["gen", "-d", "2", "-n", "16", "-t", "2", "--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    return path


class TestVerify:
    def test_good_instance_passes(self, instance_file, capsys):
        rc, stdout, _ = run_cli(capsys, "verify", str(instance_file))
        assert rc == 0
        report = last_json(stdout)
        assert report == {
            "richness_exact": True,
            "max_pair_coverage": 1,
            "beta_bound": 1,
            "k2beta_free": True,
            "containment_ok": True,
        }

    def test_moved_point_flags_richness(self, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["points"][1] = [1, 9]  # (1,2) moved off every family line
        instance_file.write_text(json.dumps(doc))
        rc, stdout, _ = run_cli(capsys, "verify", str(instance_file))
        assert rc == 2
        assert last_json(stdout)["richness_exact"] is False

    def test_duplicated_hyperplane_flags_k2beta(self, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["hyperplanes"][1] = doc["hyperplanes"][0]
        instance_file.write_text(json.dumps(doc))
        rc, stdout, _ = run_cli(capsys, "verify", str(instance_file))
        assert rc == 2
        report = last_json(stdout)
        assert report["k2beta_free"] is False
        assert report["max_pair_coverage"] == 2

    def test_hyperplane_without_offset_names_the_key(self, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["hyperplanes"] = [{"a": [1], "b": 1}, {"a": [2]}]
        instance_file.write_text(json.dumps(doc))
        rc, stdout, stderr = run_cli(capsys, "verify", str(instance_file))
        assert (rc, stdout) == (2, "")
        assert stderr == "error: hyperplane 1 has no 'b' key\n"

    def test_out_of_family_hyperplane_flags_containment(self, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["hyperplanes"][0] = {"a": [5], "b": 4}  # eval at x=2 gives 14 > 8
        instance_file.write_text(json.dumps(doc))
        rc, stdout, _ = run_cli(capsys, "verify", str(instance_file))
        assert rc == 2
        report = last_json(stdout)
        assert report["containment_ok"] is False
        assert report["richness_exact"] is False

    def test_budget_flag(self, instance_file, capsys):
        rc, _, stderr = run_cli(capsys, "verify", str(instance_file), "--budget", "1")
        assert rc == 3
        assert "budget" in stderr

    def test_missing_file(self, tmp_path, capsys):
        rc, _, stderr = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
        assert rc == 2

    def test_instance_without_stored_sections(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(
            {"params": {"d": 2, "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, "m": 8}}
        ))
        rc, stdout, _ = run_cli(capsys, "verify", str(path))
        assert rc == 0
        assert last_json(stdout)["richness_exact"] is True

    @pytest.mark.parametrize(
        "section",
        [
            {"points": [{"1": 0, "2": 0}]},
            {"points": 5},
            {"hyperplanes": [5]},
            {"hyperplanes": [{"a": [1], "b": [1]}]},
            {"params": [1]},
            {"params": {"d": [2], "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, "m": 8}},
        ],
    )
    def test_malformed_section_shape_exits_2(self, section, tmp_path, capsys):
        doc = {"params": {"d": 2, "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, "m": 8}, **section}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        rc, stdout, stderr = run_cli(capsys, "verify", str(path))
        assert (rc, stdout) == (2, "")
        assert stderr.startswith("error:")

    def test_library_report_matches_cli(self, instance_file, capsys):
        rc, stdout, _ = run_cli(capsys, "verify", str(instance_file))
        assert rc == 0
        assert verify_instance(load_instance(instance_file)) == last_json(stdout)


@functools.cache
def verify_fixtures():
    """Instance documents for `srlb verify`, pristine and corrupted, by name.

    Built on first use, not at import: the verify_d3-size family is large.
    """
    def family(d, n, t):
        params = normalize_params(d, n, t)
        return instance_to_dict(params, generate_points(params), generate_hyperplanes(params))

    d2, d3 = family(2, 16, 2), family(3, 96, 4)
    cases = {"d2": d2, "d3": d3, "d3_verify_size": family(3, 2048, 16)}

    def variant(name, base, *edits):
        doc = json.loads(json.dumps(base))
        for edit in edits:
            edit(doc)
        cases[name] = doc

    def replace(section, index, value):
        def edit(doc):
            doc[section][index] = value
        return edit

    def truncate(section, count):
        def edit(doc):
            doc[section] = doc[section][:count]
        return edit

    def shuffle_with_duplicates(doc):
        doc["points"] += doc["points"][:5]
        random.Random(17).shuffle(doc["points"])

    def signed_points(doc):
        doc["points"][:2] = [[0, -3], [-1, 0]]
        doc["points"].append([2, 4])

    def low_points_only(doc):
        doc["points"] = [p for p in doc["points"] if p[0] == 1]

    def repeat_hyperplanes(doc):
        doc["hyperplanes"] += doc["hyperplanes"][:9]

    steep = {"a": [2**62], "b": 1}
    variant("d2_moved_point", d2, replace("points", 1, [1, 9]))
    variant("d2_duplicated_hyperplane", d2, replace("hyperplanes", 1, d2["hyperplanes"][0]))
    variant("d2_out_of_family_hyperplane", d2, replace("hyperplanes", 0, {"a": [5], "b": 4}))
    variant("d2_bare_params", d2, lambda doc: (doc.pop("points"), doc.pop("hyperplanes")))
    variant("d2_empty_sections", d2, truncate("points", 0), truncate("hyperplanes", 0))
    variant("d2_no_hyperplanes", d2, truncate("hyperplanes", 0))
    variant("d2_coerced_values", d2, replace("points", 0, [1.0, "1"]))
    variant("d2_signed_points", d2, signed_points)
    variant("d2_coordinate_beyond_int64", d2, replace("points", 3, [1, 2**63]))
    variant("d2_slope_beyond_int64", d2, replace("hyperplanes", 2, {"a": [2**64], "b": 1}))
    variant("d2_top_corner_overflows", d2, replace("hyperplanes", 5, steep))
    # With every point at X_1 = 1 the incidence graph fits int64, but a = 2**62
    # overflows at the top corner X_1 = s = 2 unless a hyperplane before it
    # already left the grid.
    variant("d2_overflow_only_at_top_corner", d2,
            low_points_only, replace("hyperplanes", 5, steep))
    variant("d2_outside_before_top_corner_overflow", d2, low_points_only,
            replace("hyperplanes", 5, steep), replace("hyperplanes", 0, {"a": [5], "b": 4}))
    variant("d3_shuffled_with_duplicates", d3, shuffle_with_duplicates)
    variant("d3_truncated_hyperplanes", d3, truncate("hyperplanes", 40))
    variant("d3_repeated_hyperplanes", d3, repeat_hyperplanes)
    return cases


# `srlb verify` exit code and stdout on each fixture, as recorded from the
# per-row-tuple implementation that the CSR graph replaced.
RECORDED_VERIFY = {
    "d2": (
        0, '{"richness_exact": true, "max_pair_coverage": 1, "beta_bound": 1,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
    "d2_bare_params": (
        0, '{"richness_exact": true, "max_pair_coverage": 1, "beta_bound": 1,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
    "d2_coerced_values": (
        0, '{"richness_exact": true, "max_pair_coverage": 1, "beta_bound": 1,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
    "d2_coordinate_beyond_int64": (2, ""),
    "d2_duplicated_hyperplane": (
        2, '{"richness_exact": true, "max_pair_coverage": 2, "beta_bound": 1,'
           ' "k2beta_free": false, "containment_ok": true}\n'),
    "d2_empty_sections": (
        2, '{"richness_exact": false, "max_pair_coverage": 0, "beta_bound": 1,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
    "d2_moved_point": (
        2, '{"richness_exact": false, "max_pair_coverage": 1, "beta_bound": 1,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
    "d2_no_hyperplanes": (
        2, '{"richness_exact": false, "max_pair_coverage": 0, "beta_bound": 1,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
    "d2_out_of_family_hyperplane": (
        2, '{"richness_exact": false, "max_pair_coverage": 1, "beta_bound": 1,'
           ' "k2beta_free": true, "containment_ok": false}\n'),
    "d2_outside_before_top_corner_overflow": (
        2, '{"richness_exact": false, "max_pair_coverage": 0, "beta_bound": 1,'
           ' "k2beta_free": true, "containment_ok": false}\n'),
    "d2_overflow_only_at_top_corner": (2, ""),
    "d2_signed_points": (
        2, '{"richness_exact": false, "max_pair_coverage": 1, "beta_bound": 1,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
    "d2_slope_beyond_int64": (2, ""),
    "d2_top_corner_overflows": (2, ""),
    "d3": (
        0, '{"richness_exact": true, "max_pair_coverage": 4, "beta_bound": 4,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
    "d3_repeated_hyperplanes": (
        2, '{"richness_exact": false, "max_pair_coverage": 5, "beta_bound": 4,'
           ' "k2beta_free": false, "containment_ok": true}\n'),
    "d3_shuffled_with_duplicates": (
        2, '{"richness_exact": false, "max_pair_coverage": 6, "beta_bound": 4,'
           ' "k2beta_free": false, "containment_ok": true}\n'),
    "d3_truncated_hyperplanes": (
        2, '{"richness_exact": false, "max_pair_coverage": 4, "beta_bound": 4,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
    "d3_verify_size": (
        0, '{"richness_exact": true, "max_pair_coverage": 10, "beta_bound": 10,'
           ' "k2beta_free": true, "containment_ok": true}\n'),
}


class TestVerifyRecorded:
    def test_every_fixture_is_recorded(self):
        assert sorted(verify_fixtures()) == sorted(RECORDED_VERIFY)

    @pytest.mark.parametrize("name", sorted(RECORDED_VERIFY))
    def test_stdout_is_byte_identical(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(verify_fixtures()[name]))
        rc, stdout, _ = run_cli(capsys, "verify", str(path))
        assert (rc, stdout) == RECORDED_VERIFY[name]

    @pytest.mark.parametrize("name", ["d3", "d2_moved_point", "d3_repeated_hyperplanes"])
    def test_verify_never_builds_tuple_rows(self, name, tmp_path, capsys, monkeypatch):
        def refuse(graph):
            raise AssertionError("verify built the tuple rows of the incidence graph")

        monkeypatch.setattr(IncidenceGraph, "adjacency", property(refuse))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(verify_fixtures()[name]))
        report = verify_instance(load_instance(path))
        rc, stdout, _ = run_cli(capsys, "verify", str(path))
        assert (rc, stdout) == RECORDED_VERIFY[name]
        assert json.loads(stdout) == report


# gen -d 2 -n 65536 -t 2 normalizes to m = 2**27 hyperplanes: n*m is about 8.8e12.
OVERSIZED_PARAMS = {"d": 2, "s": 2, "t": 2, "n": 65536, "A": 8192, "B": 16384, "m": 2**27}


@pytest.fixture
def no_generation(monkeypatch):
    """Fail the test if points or hyperplanes are generated, wherever looked up."""
    def refuse(params):
        raise AssertionError(f"instance {params} generated before the pre-flight")

    for module in (srlb.geometry, srlb.io, srlb.cli):
        monkeypatch.setattr(module, "generate_points", refuse)
        monkeypatch.setattr(module, "generate_hyperplanes", refuse)


class TestPreflight:
    def test_gen_refuses_oversized(self, tmp_path, capsys, no_generation):
        out = tmp_path / "big.json"
        rc, _, stderr = run_cli(capsys, "gen", "-d", "2", "-n", "65536", "-t", "2",
                                "--out", str(out))
        assert rc == 3
        assert "budget" in stderr
        assert not out.exists()

    def test_verify_refuses_oversized_params_only(self, tmp_path, capsys, no_generation):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"params": OVERSIZED_PARAMS}))
        rc, stdout, stderr = run_cli(capsys, "verify", str(path))
        assert rc == 3
        assert "budget" in stderr
        assert stdout == ""

    def test_verify_charges_stored_sections(self, instance_file, capsys, monkeypatch):
        # params claim n*m = 128, but 16 points times 100,000 stored hyperplanes
        # is 1.6e6 incidence tests.
        doc = json.loads(instance_file.read_text())
        doc["hyperplanes"] *= 12500
        assert len(doc["hyperplanes"]) == 100_000
        instance_file.write_text(json.dumps(doc))

        def refuse(points, hyperplanes):
            raise AssertionError("incidence graph built before the stored sections were charged")

        monkeypatch.setattr(srlb.incidence, "build_incidence_graph", refuse)
        rc, stdout, stderr = run_cli(capsys, "verify", str(instance_file), "--budget", "1000")
        assert rc == 3
        assert "budget" in stderr
        assert stdout == ""

    def test_budget_bounds_incidence_scan(self, instance_file, capsys):
        # d=2, n=16: n*m = 128 point/hyperplane tests, pair cost m*t**2 = 32.
        assert run_cli(capsys, "verify", str(instance_file), "--budget", "127")[0] == 3
        assert run_cli(capsys, "verify", str(instance_file), "--budget", "128")[0] == 0


class TestBenchAndFit:
    def test_bench_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        rc, stdout, _ = run_cli(
            capsys, "bench", "-d", "2", "--sizes", "64,256,1024",
            "--t-rule", "auto", "--seed", "1", "--out", str(out),
        )
        assert rc == 0
        expected = [largest_valid_richness(2, size) for size in (64, 256, 1024)]
        rows = read_stats_csv(out)
        mean_rows = [r for r in rows if r["query_id"] == "mean"]
        assert [int(r["n"]) for r in mean_rows] == [p.n for p in expected]
        assert "mean_visits=" in stdout
        # Every row's k equals the t of its instance.
        by_n_t = {p.n: p.t for p in expected}
        for r in rows:
            assert float(r["k"]) == by_n_t[int(r["n"])]

    def test_reproducible_modulo_timestamp(self, tmp_path, capsys):
        args = ["bench", "-d", "2", "--sizes", "64,256", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        strip = lambda p: p.read_text().splitlines()[1:]
        assert strip(a) == strip(b)

    def test_bench_validation_error(self, tmp_path, capsys):
        rc, _, stderr = run_cli(
            capsys, "bench", "-d", "2", "--sizes", "256,64",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    def test_partial_csv_flushed_on_midrun_error(self, tmp_path, capsys, monkeypatch):
        import srlb.bench as bench_mod
        from srlb.errors import ArithmeticOverflow

        real_query = bench_mod.query
        calls = {"n": 0}

        def flaky_query(tree, q):
            calls["n"] += 1
            if calls["n"] > 3:
                raise ArithmeticOverflow("injected failure")
            return real_query(tree, q)

        monkeypatch.setattr(bench_mod, "query", flaky_query)
        out = tmp_path / "partial.csv"
        rc, _, stderr = run_cli(capsys, "bench", "-d", "2", "--sizes", "64",
                                "--out", str(out))
        assert rc == 2
        assert "injected failure" in stderr
        # The three completed query rows survived the abort.
        assert [r["query_id"] for r in read_stats_csv(out)] == ["0", "1", "2"]

    def test_fit_on_bench_output(self, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        rc, _, _ = run_cli(
            capsys, "bench", "-d", "2", "--sizes", "256,1024,4096",
            "--out", str(out),
        )
        assert rc == 0
        rc, stdout, _ = run_cli(capsys, "fit", str(out))
        assert rc == 0
        fit = last_json(stdout)
        assert set(fit) == {"slope", "intercept", "r_squared", "points_used"}
        assert fit["points_used"] == 3

    def test_fit_insufficient_rows(self, tmp_path, capsys):
        out = tmp_path / "short.csv"
        rc, _, _ = run_cli(capsys, "bench", "-d", "2", "--sizes", "64,256",
                           "--out", str(out))
        assert rc == 0
        rc, _, stderr = run_cli(capsys, "fit", str(out))
        assert rc == 2
        assert "3" in stderr


class TestBound:
    def test_planar_example(self, capsys):
        rc, stdout, _ = run_cli(capsys, "bound", "-d", "2", "-n", "16", "-t", "2")
        assert rc == 0
        doc = last_json(stdout)
        assert doc["figure_of_merit"] == {"num": 8, "den": 1}
        assert doc["space"] == 16

    def test_3d_example(self, capsys):
        rc, stdout, _ = run_cli(capsys, "bound", "-d", "3", "-n", "96", "-t", "4")
        doc = last_json(stdout)
        assert doc["figure_of_merit"] == {"num": 512, "den": 5}

    def test_linear_space_identity(self, capsys):
        rc, stdout, _ = run_cli(
            capsys, "bound", "-d", "2", "-n", str(2**20), "-t", "2", "--space", "n"
        )
        doc = last_json(stdout)
        assert doc["implied_query_bound"] == pytest.approx(1024.0, rel=1e-6)

    def test_explicit_space(self, capsys):
        rc, stdout, _ = run_cli(
            capsys, "bound", "-d", "2", "-n", "1024", "-t", "2", "--space", "4096"
        )
        doc = last_json(stdout)
        assert doc["space"] == 4096
        assert doc["implied_query_bound"] == pytest.approx((1024**2 / 4096) ** 0.5, rel=1e-6)

    def test_too_tight(self, capsys):
        rc, _, stderr = run_cli(capsys, "bound", "-d", "2", "-n", "4", "-t", "4")
        assert rc == 2
