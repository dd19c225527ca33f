import pytest

from srlb.geometry import normalize_params
from srlb.incidence import bound_report
from srlb.io import (
    STATS_HEADER,
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
        with pytest.raises(ValueError):
            instance_from_dict({"points": [[1, 1]]})


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
