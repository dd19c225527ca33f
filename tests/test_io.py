import json

import pytest

from srlb.cli import main
from srlb.errors import ArithmeticOverflow
from srlb.geometry import Hyperplane, normalize_params
from srlb.incidence import bound_report
from srlb.io import (
    STATS_HEADER,
    InstanceDocument,
    StatsCsvWriter,
    bound_report_to_dict,
    format_stat,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    params_from_dict,
    params_to_dict,
    read_stats_csv,
    save_instance,
    stats_row,
)


class TestParamsSchema:
    def test_round_trip(self, d2_instance):
        params, _, _ = d2_instance
        assert params_from_dict(params_to_dict(params)) == params

    def test_field_names_normative(self, d2_instance):
        params, _, _ = d2_instance
        assert set(params_to_dict(params)) == {"d", "s", "t", "n", "A", "B", "m"}

    def test_missing_field(self):
        with pytest.raises(ValueError):
            params_from_dict({"d": 2, "s": 2})


class TestInstanceSchema:
    def test_full_round_trip(self, tmp_path, d2_instance):
        params, points, hyperplanes = d2_instance
        path = tmp_path / "inst.json"
        save_instance(path, params, points, hyperplanes)
        doc = load_instance(path)
        assert doc.params == params
        assert doc.points == points
        assert doc.hyperplanes == hyperplanes

    def test_optional_sections_regenerate(self, tmp_path, d2_instance):
        params, points, hyperplanes = d2_instance
        path = tmp_path / "bare.json"
        save_instance(path, params)
        doc = load_instance(path)
        assert doc.points is None and doc.hyperplanes is None
        assert doc.materialized_points() == points
        assert doc.materialized_hyperplanes() == hyperplanes

    def test_schema_shape(self, d2_instance):
        params, points, hyperplanes = d2_instance
        doc = instance_to_dict(params, points, hyperplanes)
        assert doc["points"][0] == [1, 1]
        assert doc["hyperplanes"][0] == {"a": [1], "b": 1}

    def test_corrupted_points_still_load(self, d2_instance):
        params, points, hyperplanes = d2_instance
        doc = instance_to_dict(params, points, hyperplanes)
        doc["points"][0] = [1, 9]  # moved off-grid; must load so verify can flag it
        parsed = instance_from_dict(doc)
        assert parsed.points[0] == (1, 9)

    def test_wrong_point_dimension_rejected(self, d2_instance):
        params, points, hyperplanes = d2_instance
        doc = instance_to_dict(params, points, hyperplanes)
        doc["points"][0] = [1, 1, 1]
        with pytest.raises(ValueError):
            instance_from_dict(doc)

    def test_missing_params_rejected(self):
        for doc in ({"points": [[1, 1]]}, 5, "params"):
            with pytest.raises(ValueError):
                instance_from_dict(doc)


def reference_instance_from_dict(doc):
    """Reference loader: converts every stored value with int(), one at a time."""
    if "params" not in doc:
        raise ValueError("instance document has no 'params' object")
    params = params_from_dict(doc["params"])
    points = None
    if "points" in doc:
        points = [tuple(int(c) for c in p) for p in doc["points"]]
        if any(len(p) != params.d for p in points):
            raise ValueError(f"every point must have d = {params.d} coordinates")
    hyperplanes = None
    if "hyperplanes" in doc:
        hyperplanes = [
            Hyperplane(a=tuple(int(c) for c in h["a"]), b=int(h["b"]))
            for h in doc["hyperplanes"]
        ]
        if any(h.d != params.d for h in hyperplanes):
            raise ValueError(f"every hyperplane must have d-1 = {params.d - 1} slopes")
    return InstanceDocument(params=params, points=points, hyperplanes=hyperplanes)


D2_PARAMS = {"d": 2, "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, "m": 8}
D3_PARAMS = {"d": 3, "s": 2, "t": 4, "n": 96, "A": 4, "B": 8, "m": 128}

# name -> (params, stored sections); every value here is what a JSON file can hold.
LOADER_CASES = {
    "empty_sections": (D2_PARAMS, {"points": [], "hyperplanes": []}),
    "empty_points_only": (D3_PARAMS, {"points": []}),
    "pristine_d3": (D3_PARAMS, {"points": [[1, 1, 1], [2, 1, 24]],
                                "hyperplanes": [{"a": [1, 4], "b": 8}]}),
    "ragged_points": (D2_PARAMS, {"points": [[1, 1], [1]]}),
    "wide_point": (D2_PARAMS, {"points": [[1, 1], [1, 1, 1]]}),
    "every_point_too_wide": (D2_PARAMS, {"points": [[1, 1, 1], [2, 2, 2]]}),
    "empty_point": (D2_PARAMS, {"points": [[]]}),
    "ragged_slopes": (D3_PARAMS, {"hyperplanes": [{"a": [1, 1], "b": 1}, {"a": [1], "b": 1}]}),
    "wide_slopes": (D2_PARAMS, {"hyperplanes": [{"a": [1, 1], "b": 1}]}),
    "no_slopes": (D2_PARAMS, {"hyperplanes": [{"a": [], "b": 1}]}),
    "zero_slope": (D2_PARAMS, {"hyperplanes": [{"a": [1], "b": 1}, {"a": [0], "b": 2}]}),
    "negative_slope": (D3_PARAMS, {"hyperplanes": [{"a": [2, -1], "b": 1}]}),
    "zero_offset": (D2_PARAMS, {"hyperplanes": [{"a": [1], "b": 0}]}),
    "negative_offset": (D2_PARAMS, {"hyperplanes": [{"a": [1], "b": -3}]}),
    "floats_truncate": (D2_PARAMS, {"points": [[1.0, 2.9], [-0.5, -1.7]],
                                    "hyperplanes": [{"a": [2.5], "b": 3.99}]}),
    "float_truncates_below_one": (D2_PARAMS, {"hyperplanes": [{"a": [0.9], "b": 1}]}),
    "bools": (D2_PARAMS, {"points": [[True, False]], "hyperplanes": [{"a": [True], "b": True}]}),
    "numeric_strings": (D2_PARAMS, {"points": [["1", " 7"], ["-3", "+4"]],
                                    "hyperplanes": [{"a": ["2"], "b": "5"}]}),
    "mixed_types": (D3_PARAMS, {"points": [[1, "2", 3.0]],
                                "hyperplanes": [{"a": [1, "2"], "b": 3.0}]}),
    "non_numeric_string": (D2_PARAMS, {"points": [["1", "x"]]}),
    "fractional_string": (D2_PARAMS, {"hyperplanes": [{"a": ["1.5"], "b": 1}]}),
    "nan_coordinate": (D2_PARAMS, {"points": [[1, float("nan")]]}),
    "int64_extremes": (D2_PARAMS, {"points": [[-(2**63), 2**63 - 1]],
                                   "hyperplanes": [{"a": [2**63 - 1], "b": 2**63 - 1}]}),
}


def _outcome(load, doc):
    """The loaded document, or the type of the exception the loader raised."""
    try:
        return load(doc)
    except Exception as exc:  # the exception type is the outcome under test
        return type(exc)


class TestBulkLoader:
    @pytest.mark.parametrize("case", sorted(LOADER_CASES))
    def test_matches_per_value_reference(self, case):
        params, sections = LOADER_CASES[case]
        doc = {"params": params, **sections}
        expected = _outcome(reference_instance_from_dict, doc)
        assert _outcome(instance_from_dict, doc) == expected
        if isinstance(expected, InstanceDocument):
            loaded = instance_from_dict(doc)
            values = [c for p in loaded.points or [] for c in p]
            values += [c for h in loaded.hyperplanes or [] for c in (*h.a, h.b)]
            assert all(type(c) is int for c in values)  # equality misses numpy scalars

    @pytest.mark.parametrize(
        "sections",
        [{"points": [1, 2]}, {"points": [[[1], [2]]]}, {"hyperplanes": [{"a": 1, "b": 1}]}],
    )
    def test_rows_that_are_not_flat_lists_are_value_errors(self, sections):
        # The per-value reference raises TypeError here, which the CLI does not catch.
        with pytest.raises(TypeError):
            reference_instance_from_dict({"params": D2_PARAMS, **sections})
        with pytest.raises(ValueError):
            instance_from_dict({"params": D2_PARAMS, **sections})

    @pytest.mark.parametrize(
        "hyperplanes,message",
        [
            ([{"a": [1], "b": 1}, {"a": [2]}], "hyperplane 1 has no 'b' key"),
            ([{"b": 1}], "hyperplane 0 has no 'a' key"),
        ],
        ids=["missing_b", "missing_a"],
    )
    def test_missing_key_names_the_hyperplane(self, hyperplanes, message):
        # Not a parity case: the per-value reference raises a bare KeyError.
        doc = {"params": D2_PARAMS, "hyperplanes": hyperplanes}
        with pytest.raises(KeyError):
            reference_instance_from_dict(doc)
        with pytest.raises(ValueError) as raised:
            instance_from_dict(doc)
        assert str(raised.value) == message

    @pytest.mark.parametrize("row", ["12", {"1": 0, "2": 0}])
    def test_str_and_dict_rows_are_value_errors(self, row):
        # Not a parity case: the per-value reference iterates both rows and
        # loads them as the point (1, 2).
        with pytest.raises(ValueError):
            instance_from_dict({"params": D2_PARAMS, "points": [row]})

    @pytest.mark.parametrize(
        "sections",
        [
            {"points": [[1, 2**63]]},
            {"points": [[-(2**63) - 1, 1]]},
            {"points": [[1, float("inf")]]},
            {"points": [[1, 1e19]]},
            {"points": [[1, str(2**64)]]},
            {"hyperplanes": [{"a": [2**63], "b": 1}]},
            {"hyperplanes": [{"a": [1], "b": 2**70}]},
        ],
    )
    def test_value_outside_int64_is_arithmetic_overflow(self, sections, tmp_path, capsys):
        doc = {"params": D2_PARAMS, **sections}
        with pytest.raises(ArithmeticOverflow):
            instance_from_dict(doc)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "64-bit" in captured.err


class TestBoundReportSchema:
    def test_exact_rationals(self):
        report = bound_report(normalize_params(3, 96, 4))
        doc = bound_report_to_dict(report)
        assert doc["figure_of_merit"] == {"num": 512, "den": 5}
        assert doc["exponent"] == {"num": 2, "den": 3}
        assert doc["alpha"] == 2 and doc["beta"] == 5


class TestStatsCsv:
    def test_round_trip_with_comment(self, tmp_path):
        rows = [
            stats_row(16, 2, 0, 2, nodes_visited=7, leaves_scanned=2, points_tested=8),
            stats_row(16, 2, "mean", 2.0, nodes_visited=7.5, leaves_scanned=2.0,
                      points_tested=8.0),
        ]
        path = tmp_path / "stats.csv"
        with StatsCsvWriter(path, comment="ts 2024") as writer:
            writer.write_rows(rows)
        text = path.read_text().splitlines()
        assert text[0] == "# ts 2024"
        assert text[1] == ",".join(STATS_HEADER)
        assert text[2] == "16,2,0,2,7,2,8"
        assert text[3] == "16,2,mean,2,7.5,2,8"
        parsed = read_stats_csv(path)
        assert parsed[1]["query_id"] == "mean"
        assert float(parsed[1]["nodes_visited"]) == 7.5

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_stats_csv(path)

    def test_streaming_writer_flushes_partial(self, tmp_path):
        path = tmp_path / "partial.csv"
        writer = StatsCsvWriter(path)
        writer.write_rows(
            [stats_row(16, 2, 0, 2, nodes_visited=7, leaves_scanned=2, points_tested=8)]
        )
        # Rows already on disk before close.
        assert len(read_stats_csv(path)) == 1
        writer.close()

    def test_format_stat(self):
        assert format_stat(5) == "5"
        assert format_stat(5.0) == "5"
        assert format_stat(5.5) == "5.5"
        assert format_stat(1271.0340136054422) == "1271.0340136054422"
