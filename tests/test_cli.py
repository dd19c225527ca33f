import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

import srlb.bench
import srlb.cli
import srlb.exact
import srlb.geometry
import srlb.incidence
from conftest import reference_instance_to_dict
from srlb.cli import main
from srlb.geometry import (
    Hyperplane,
    generate_hyperplanes,
    generate_points,
    largest_valid_richness,
    normalize_params,
)
from srlb.errors import InstanceTooLarge
from srlb.incidence import IncidenceGraph, charge_verify, verify_instance
from srlb.io import STATS_HEADER, load_instance, read_stats_csv


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

    def test_dimension_cap(self, tmp_path, capsys):
        # s = t = A = B = m = 1 at both d; np.indices would need 65 axes at d = 64.
        d63, d64 = tmp_path / "d63.json", tmp_path / "d64.json"
        assert run_cli(capsys, "gen", "-d", "63", "-n", "64", "-t", "1", "--out", str(d63))[0] == 0
        assert run_cli(capsys, "verify", str(d63))[0] == 0
        refusal = (2, "", "error: d = 64 exceeds the cap of 63 for generated tables\n")
        outcome = run_cli(capsys, "gen", "-d", "64", "-n", "64", "-t", "1", "--out", str(d64))
        assert outcome == refusal
        assert not d64.exists()
        csv = str(tmp_path / "d64.csv")
        assert run_cli(capsys, "bench", "-d", "64", "--sizes", "64", "--out", csv) == refusal
        assert not Path(csv).exists()


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

    @pytest.mark.parametrize("indent", [None, 1], ids=["as_dumped", "indented"])
    def test_values_int_would_coerce_are_refused(self, instance_file, capsys, indent):
        # Once read as a = 1, the point (1, 1) and b = 2: a file that verified.
        doc = json.loads(instance_file.read_text())
        doc["hyperplanes"][0]["a"] = [1.5]
        doc["points"][0] = [1.9, True]
        doc["hyperplanes"][1]["b"] = "2"
        instance_file.write_text(json.dumps(doc, indent=indent))
        rc, stdout, stderr = run_cli(capsys, "verify", str(instance_file))
        assert (rc, stdout) == (2, "")
        assert stderr == "error: every value of point coordinates must be an integer\n"

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
            # json.dumps writes these as the literals Infinity and -Infinity.
            {"params": {"d": float("inf"), "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, "m": 8}},
            {"params": {"d": float("-inf"), "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, "m": 8}},
            # s**(d-1) would have millions of digits.
            {"params": {"d": 2**24, "s": 3, "t": 3, "n": 3, "A": 1, "B": 1, "m": 1}},
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
        points, hyperplanes = generate_points(params), generate_hyperplanes(params)
        return reference_instance_to_dict(params, points, hyperplanes)

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
    "d2_coerced_values": (2, ""),  # refused since values must be integers
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

    @pytest.mark.parametrize("name", [
        "d3", "d2_moved_point", "d3_repeated_hyperplanes", "d2_bare_params", "d3_verify_size",
    ])
    def test_verify_never_builds_tuple_rows(self, name, tmp_path, capsys, monkeypatch):
        # The fixture is written first: building it makes Hyperplane objects.
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(verify_fixtures()[name]))

        # Nor any Hyperplane object: the family stays int64 columns throughout.
        def refuse(self, *args):  # as Hyperplane.__new__, self is the class
            kind = self if isinstance(self, type) else type(self)
            raise AssertionError(f"verify built {kind.__name__} objects")

        # Nor a point tuple: loaded or regenerated (d2_bare_params), the
        # points reach the join as a table, as point_table admits nothing else.
        monkeypatch.setattr(IncidenceGraph, "adjacency", property(refuse))
        monkeypatch.setattr(Hyperplane, "__new__", refuse)
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

    for module in (srlb.geometry, srlb.incidence, srlb.cli):
        monkeypatch.setattr(module, "generate_points", refuse)
        monkeypatch.setattr(module, "generate_hyperplanes", refuse)
    monkeypatch.setattr(srlb.bench, "generate_points", refuse)


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

    def test_gen_refuses_what_verify_cannot_hold(self, tmp_path, capsys, traced_peak,
                                                 no_generation):
        # d = 3, t = 1225, A = 2: verify would enumerate 284 * C(1225, 2) =
        # 212,914,800 uint64 pair codes, 1.59 GiB before the sort.
        out = tmp_path / "big.json"
        argv = ["gen", "-d", "3", "-n", "260925", "-t", "1225", "--out", str(out)]
        rc, peak = traced_peak(main, argv)
        stdout, stderr = capsys.readouterr()
        assert (rc, stdout) == (3, "")
        assert stderr.startswith("error: verify of n = 260925, t = 1225, m = 284:")
        assert not out.exists()
        assert peak < 64 * 1024

    def test_verify_refuses_crafted_pairs_within_the_budget(
        self, instance_file, capsys, traced_peak, monkeypatch
    ):
        # Valid params, but 100 equal points under 10,000 equal hyperplanes:
        # 10**6 incidences and 49,500,000 pair codes, a 259 MiB peak unrefused.
        doc = json.loads(instance_file.read_text())
        doc["points"] = [[1, 2]] * 100
        doc["hyperplanes"] = [{"a": [1], "b": 1}] * 10_000
        instance_file.write_text(json.dumps(doc))
        budget = 64 * 2**20
        monkeypatch.setattr(srlb.exact, "MEMORY_BUDGET", budget)
        rc, stdout, stderr = run_cli(capsys, "verify", str(instance_file))
        assert (rc, stdout) == (3, "")
        assert stderr.startswith("error: 49500000 point pairs take up to")
        error, peak = traced_peak(verify_instance, load_instance(instance_file))
        assert isinstance(error, InstanceTooLarge)
        assert peak < budget

    def test_verify_charges_stored_sections(self, instance_file, capsys, traced_peak,
                                            monkeypatch):
        # params claim m = 8, but 16 points meet 100,000 stored hyperplanes at
        # 2 distinct bases: 200,000 evaluations, charged before the join's blocks.
        doc = json.loads(instance_file.read_text())
        doc["hyperplanes"] *= 12500
        assert len(doc["hyperplanes"]) == 100_000
        instance_file.write_text(json.dumps(doc))
        monkeypatch.setattr(srlb.exact, "WORK_BUDGET", 1000)
        rc, stdout, stderr = run_cli(capsys, "verify", str(instance_file))
        assert rc == 3
        assert "budget" in stderr
        assert stdout == ""
        error, peak = traced_peak(verify_instance, load_instance(instance_file))
        assert isinstance(error, InstanceTooLarge)
        assert peak < 64 * 1024

    def test_join_charges_its_block_scratch_first(self, instance_file, capsys, traced_peak,
                                                  monkeypatch):
        # The stored sections above: the join's first block holds 16,384 values
        # (8,192 hyperplanes at 2 bases), whose scratch (72 bytes each) is
        # charged before it exists, with the output of all 100,000 rows (24
        # bytes each, and 320 for each of the 13 blocks) and the slot tables
        # the blocks index (19 cells, 16 bytes each).
        doc = json.loads(instance_file.read_text())
        doc["hyperplanes"] *= 12500
        instance_file.write_text(json.dumps(doc))
        monkeypatch.setattr(srlb.exact, "MEMORY_BUDGET", 2**20)
        rc, stdout, stderr = run_cli(capsys, "verify", str(instance_file))
        assert (rc, stdout) == (3, "")
        assert stderr.startswith(
            "error: join blocks of 16384 values and the rows of 100000 hyperplanes take up to"
            " 3584136 bytes"
        )
        error, peak = traced_peak(verify_instance, load_instance(instance_file))
        assert isinstance(error, InstanceTooLarge)
        assert peak < 800_000  # below one copy of the 8 * 100,000-byte slope column

    def test_budget_bounds_incidence_scan(self, instance_file, capsys, monkeypatch):
        # d=2, n=16: the verify model is the largest byte charge of the run.
        cost = charge_verify(load_instance(instance_file).params)
        assert cost == 86_144
        monkeypatch.setattr(srlb.exact, "MEMORY_BUDGET", cost - 1)
        assert run_cli(capsys, "verify", str(instance_file))[0] == 3
        monkeypatch.setattr(srlb.exact, "MEMORY_BUDGET", cost)
        assert run_cli(capsys, "verify", str(instance_file))[0] == 0


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
        # One summary line per size, naming the whole instance first.
        lines = stdout.splitlines()
        assert len(lines) == len(expected)
        for line, p in zip(lines, expected):
            assert line.startswith(
                f"d={p.d} s={p.s} t={p.t} n={p.n} A={p.A} B={p.B} m={p.m} queries={p.m} "
            )
            assert " mean_visits=" in line and " max_visits=" in line
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

    def test_bench_refuses_a_size_beyond_int64(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        size = 10**400
        rc, stdout, stderr = run_cli(capsys, "bench", "-d", "2", "--sizes", str(size),
                                     "--out", str(out))
        error = f"error: n = {size} exceeds the 64-bit safe envelope\n"
        assert (rc, stdout, stderr) == (2, "", error)
        assert not out.exists()

    @pytest.mark.parametrize("sizes,bad", [("64,x", "x"), (",", ""), ("64,1.5,256", "1.5")])
    def test_bench_refuses_sizes_that_are_not_integers(self, tmp_path, capsys, sizes, bad):
        # int() once answered with only "invalid literal for int() with base 10".
        out = tmp_path / "x.csv"
        rc, stdout, stderr = run_cli(capsys, "bench", "-d", "2", "--sizes", sizes,
                                     "--out", str(out))
        assert (rc, stdout, stderr) == (2, "", f"error: --sizes: {bad!r} is not an integer\n")
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--sizes", "--t-rule", "--space"])
    def test_digit_strings_past_int_limit_name_their_option(self, tmp_path, capsys, option):
        # int() refuses more than 4,300 digits with a text that names no option.
        ones = "1" * 5000
        out = tmp_path / "x.csv"
        argv = {
            "--sizes": ["bench", "-d", "2", "--sizes", ones, "--out", str(out)],
            "--t-rule": ["bench", "-d", "2", "--sizes", "64", "--t-rule", f"fixed:{ones}",
                         "--out", str(out)],
            "--space": ["bound", "-d", "2", "-n", "16", "-t", "2", "--space", ones],
        }[option]
        rc, stdout, stderr = run_cli(capsys, *argv)
        error = f"error: {option}: {ones[:40] + '...'!r} is not an integer\n"
        assert (rc, stdout, stderr) == (2, "", error)
        assert not out.exists()

    @pytest.mark.parametrize("capacity", ["0", "-1"])
    def test_bench_refuses_leaf_capacity_below_one_before_the_file(self, tmp_path, capsys,
                                                                    capacity):
        out = tmp_path / "x.csv"
        rc, stdout, stderr = run_cli(capsys, "bench", "-d", "2", "--sizes", "64",
                                     "--leaf-capacity", capacity, "--out", str(out))
        error = f"error: leaf capacity must be >= 1, got {capacity}\n"
        assert (rc, stdout, stderr) == (2, "", error)
        assert not out.exists()

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

    @pytest.mark.parametrize("column,value", [
        *((column, value) for value in ("nan", "inf", "0", "-1")
          for column in ("n", "nodes_visited")),
        ("n", "16.5"), ("n", "abc"), ("nodes_visited", "abc"),
    ])
    def test_fit_rejects_mean_row_without_a_logarithm(self, tmp_path, capsys, column, value):
        rows = [{"n": n, "nodes_visited": n // 8} for n in (256, 1024, 4096)]
        rows[1][column] = value
        out = tmp_path / "stats.csv"
        out.write_text(",".join(STATS_HEADER) + "\n" + "".join(
            f"{r['n']},2,mean,1,{r['nodes_visited']},1,1\n" for r in rows
        ))
        rc, stdout, stderr = run_cli(capsys, "fit", str(out))
        assert (rc, stdout) == (2, "")
        assert stderr.startswith("error: mean row ") and f"{column}={value}" in stderr

    @pytest.mark.parametrize("row,fields", [("1024,2,mean", 3), ("1024,2,mean,1,9,1,1,7", 8)],
                             ids=["short", "long"])
    def test_fit_refuses_a_row_of_the_wrong_width(self, tmp_path, capsys, row, fields):
        # A short row once ended in a TypeError traceback; a long one was fitted.
        out = tmp_path / "stats.csv"
        out.write_text(",".join(STATS_HEADER) + "\n" + "".join(
            f"{n},2,mean,1,{n // 8},1,1\n" for n in (256, 4096)) + row + "\n")
        rc, stdout, stderr = run_cli(capsys, "fit", str(out))
        error = f"error: stats row {row!r} has {fields} fields, want 7\n"
        assert (rc, stdout, stderr) == (2, "", error)

    def test_bench_refuses_sizes_that_resolve_to_one_instance(self, tmp_path, capsys):
        # All three normalize to n = 98, which fit would count three times.
        out = tmp_path / "x.csv"
        rc, stdout, stderr = run_cli(capsys, "bench", "-d", "2", "--sizes", "100,101,102",
                                     "--out", str(out))
        error = "error: sizes (100, 101, 102) give n = (98, 98, 98), not strictly increasing\n"
        assert (rc, stdout, stderr) == (2, "", error)
        assert not out.exists()

    @pytest.mark.parametrize("size,n,cost", [
        # 2**24 normalizes to 16,776,528 points; at 2**32 the points alone are
        # 4.3e9 tuples.  4096 comes first but is not run either.
        (2**24, 16_776_528, 10_200_128_640),
        (2**32, 4_294_930_220, 2_611_317_573_376),
    ])
    def test_oversized_size_refused_before_any_row(self, tmp_path, capsys, traced_peak,
                                                   no_generation, size, n, cost):
        out = tmp_path / "stats.csv"
        argv = ["bench", "-d", "2", "--sizes", f"4096,{size}", "--out", str(out)]
        rc, peak = traced_peak(main, argv)
        assert (rc, capsys.readouterr()) == (3, (
            "", f"error: size n = {n}: its points and kd-tree take up to {cost} bytes,"
            " over the budget of 1073741824\n"
        ))
        assert not out.exists()
        assert peak < 64 * 1024

    def test_bench_budget_boundary(self, tmp_path, capsys, monkeypatch):
        # d = 2, n = 64 under `auto` normalizes to n = 60: at most 30 leaves,
        # 60 * 224 + 59 * 384 = 36,096 bytes.
        argv = ["bench", "-d", "2", "--sizes", "64", "--out", str(tmp_path / "s.csv")]
        monkeypatch.setattr(srlb.exact, "MEMORY_BUDGET", 36_095)
        assert run_cli(capsys, *argv)[0] == 3
        monkeypatch.setattr(srlb.exact, "MEMORY_BUDGET", 36_096)
        assert run_cli(capsys, *argv)[0] == 0


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

    def test_space_below_one(self, capsys):
        rc, stdout, stderr = run_cli(capsys, "bound", "-d", "2", "-n", "16", "-t", "2",
                                     "--space", "0")
        assert (rc, stdout, stderr) == (2, "", "error: hypothetical space must be >= 1, got 0\n")

    @pytest.mark.parametrize("space,error", [
        ("1.5", "--space: '1.5' is not an integer"),
        ("x", "--space: 'x' is not an integer"),
        # Once printed as "space", with an implied_query_bound of 0.0.
        (str(10**400), f"--space = {10**400} exceeds the 64-bit safe envelope"),
        (str(2**63), f"--space = {2**63} exceeds the 64-bit safe envelope"),
    ], ids=["float", "word", "401_digits", "int64_max_plus_one"])
    def test_space_that_is_not_an_int64_integer(self, capsys, space, error):
        rc, stdout, stderr = run_cli(capsys, "bound", "-d", "2", "-n", "16", "-t", "2",
                                     "--space", space)
        assert (rc, stdout, stderr) == (2, "", f"error: {error}\n")

    def test_space_at_int64_max(self, capsys):
        rc, stdout, _ = run_cli(capsys, "bound", "-d", "2", "-n", "16", "-t", "2",
                                "--space", str(srlb.exact.INT64_MAX))
        assert rc == 0 and last_json(stdout)["space"] == srlb.exact.INT64_MAX

    @pytest.mark.parametrize("d", [2**16, 2**20])
    @pytest.mark.parametrize("command", ["bound", "gen"])
    def test_huge_d_refused_without_the_power(self, tmp_path, capsys, traced_peak, command, d):
        # A**(d-1) would have a million bits or more; the refusal names A, B
        # and d, not the power.
        out = tmp_path / "inst.json"
        argv = [command, "-d", str(d), "-n", str(2**32), "-t", "1"]
        rc, peak = traced_peak(main, argv + (["--out", str(out)] if command == "gen" else []))
        A = 2**32 // d
        assert (rc, capsys.readouterr()) == (2, (
            "", f"error: family size A**(d-1)*B with A={A}, B={A}, d={d}"
            " exceeds the 64-bit safe envelope\n"
        ))
        assert peak < 64 * 1024
        assert not out.exists()


# Exact stdout of `gen` and `bound`, recorded from the release before the
# bound report became a plain dict: key order and number formatting.
RECORDED_REPORTS = {
    ("bound", "-d", "3", "-n", "96", "-t", "4"):
        '{"m": 128, "t": 4, "alpha": 2, "beta": 5, "figure_of_merit": {"num": 512, "den": 5},'
        ' "exponent": {"num": 2, "den": 3}, "space": 96, "implied_query_bound": 20.9659}\n',
    ("bound", "-d", "2", "-n", "1048576", "-t", "2"):
        '{"m": 34359738368, "t": 2, "alpha": 2, "beta": 2,'
        ' "figure_of_merit": {"num": 34359738368, "den": 1}, "exponent": {"num": 1, "den": 2},'
        ' "space": 1048576, "implied_query_bound": 1024.0}\n',
    ("gen", "-d", "2", "-n", "64", "-t", "4"):
        '{"params": {"d": 2, "s": 4, "t": 4, "n": 64, "A": 2, "B": 8, "m": 16},'
        ' "bound": {"m": 16, "t": 4, "alpha": 2, "beta": 2, "figure_of_merit": {"num": 32,'
        ' "den": 1}, "exponent": {"num": 1, "den": 2}}, "out": "instance_d2_n64_t4.json"}\n',
}


@pytest.mark.parametrize("argv", list(RECORDED_REPORTS), ids="_".join)
def test_report_stdout_is_byte_identical(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv)[:2] == (0, RECORDED_REPORTS[argv])


# `srlb bench --seed 0` then `srlb fit`, recorded before queries reported
# row ids: the sha256 of the CSV below its timestamped `#` line, and fit's
# exact stdout.  A change to the tree, the traversal or the query form that
# keeps every counter keeps both.
RECORDED_BENCH = {
    ("2", "256,1024,4096"): (
        "a31dbe37b36a00e7ee6c1e075de10956d44b12e8a81781075a260bed50e43122",
        '{"slope": 0.5369197010342309, "intercept": 1.4937855540381841,'
        ' "r_squared": 0.9999699053467216, "points_used": 3}\n',
    ),
    ("3", "512,2048,4096"): (
        "952d1b3530f052871351d82f727d6a20a10c704c48cb1fc5d526c99892a6d718",
        '{"slope": 0.6904073859085826, "intercept": 0.8538952078565689,'
        ' "r_squared": 0.992721705134812, "points_used": 3}\n',
    ),
}


@pytest.mark.parametrize("d,sizes", list(RECORDED_BENCH), ids="_".join)
def test_bench_csv_and_fit_stdout_are_pinned(d, sizes, tmp_path, capsys):
    out = tmp_path / "stats.csv"
    assert run_cli(capsys, "bench", "-d", d, "--sizes", sizes, "--seed", "0",
                   "--out", str(out))[0] == 0
    stamp, body = out.read_bytes().split(b"\n", 1)
    assert stamp.startswith(b"# srlb bench ")
    digest, fit_stdout = RECORDED_BENCH[d, sizes]
    assert hashlib.sha256(body).hexdigest() == digest
    assert run_cli(capsys, "fit", str(out))[:2] == (0, fit_stdout)


# Forms that int() takes and the command line's one integer grammar (an
# optional '-', then ASCII decimal digits) refuses; the last is ARABIC-INDIC
# DIGIT THREE.
NOT_INTEGERS = {"plus_sign": "+4", "leading_space": " 7", "underscores": "1_0_2_4",
                "non_ascii_digit": "٣"}
VALID_OPTIONS = {
    "gen": {"-d": "2", "-n": "16", "-t": "2"},
    "bench": {"-d": "2", "--sizes": "64", "--t-rule": "auto", "--seed": "0",
              "--leaf-capacity": "8", "--out": "stats.csv"},
    "bound": {"-d": "2", "-n": "16", "-t": "2", "--space": "n"},
}
INTEGER_OPTIONS = [(command, option) for command, options in VALID_OPTIONS.items()
                   for option in options if option != "--out"]


@pytest.mark.parametrize("form", list(NOT_INTEGERS))
@pytest.mark.parametrize("command,option", INTEGER_OPTIONS)
def test_integer_options_take_one_grammar(tmp_path, capsys, monkeypatch, command, option, form):
    # `bench --sizes 1_0_2_4` once ran n = 1012.  Options that argparse converts
    # exit through it, with its usage line; the others through main.
    monkeypatch.chdir(tmp_path)
    text = NOT_INTEGERS[form]
    options = {**VALID_OPTIONS[command], option: f"fixed:{text}" if option == "--t-rule" else text}
    argv = [command, *(word for pair in options.items() for word in pair)]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert repr(text) in err and "integer" in err
    assert list(tmp_path.iterdir()) == []
