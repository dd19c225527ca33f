import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

import srlb.io
from conftest import as_family, as_table, point_rows, reference_instance_to_dict
from srlb.cli import main
from srlb.errors import ArithmeticOverflow
from srlb.exact import INT64_MAX, INT64_MIN
from srlb.geometry import (
    Hyperplane,
    HyperplaneFamily,
    generate_hyperplanes,
    generate_points,
    normalize_params,
)
from srlb.incidence import bound_report, charge_verify, verify_instance
from srlb.io import (
    STATS_HEADER,
    InstanceDocument,
    StatsCsvWriter,
    _columnar_document,
    format_stat,
    instance_from_dict,
    load_instance,
    params_from_dict,
    params_to_dict,
    read_stats_csv,
    save_instance,
    stats_row,
)
from srlb.reporting import QueryStats


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

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_field_is_a_value_error(self, value):
        # A float, so refused before int() could raise OverflowError on it.
        with pytest.raises(ValueError, match="must be integers"):
            params_from_dict({"d": value, "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, "m": 8})

    @pytest.mark.parametrize("value", [2.0, True, "2", " 2", None, np.float64(2)])
    def test_field_that_is_not_an_integer_is_a_value_error(self, value):
        # int() would have read each as a valid d (or True as d = 1).
        with pytest.raises(ValueError, match="must be integers"):
            params_from_dict({"d": value, "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, "m": 8})

    def test_numpy_integer_fields_load_as_ints(self):
        raw = {"d": np.int64(2), "s": 2, "t": 2, "n": np.uint16(16), "A": 2, "B": 4, "m": 8}
        params = params_from_dict(raw)
        assert params == normalize_params(2, 16, 2)
        assert type(params.d) is type(params.n) is int


class TestInstanceSchema:
    def test_full_round_trip(self, tmp_path, d2_instance):
        params, points, hyperplanes = d2_instance
        path = tmp_path / "inst.json"
        save_instance(path, params, points, hyperplanes)
        doc = load_instance(path)
        assert doc.params == params
        assert point_rows(doc.points) == point_rows(points)
        assert list(doc.hyperplanes) == list(hyperplanes)

    def test_loaded_document_saves_back(self, tmp_path, d3_instance):
        params, points, hyperplanes = d3_instance
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_instance(first, params, points, hyperplanes)
        doc = load_instance(first)
        save_instance(second, doc.params, doc.points, doc.hyperplanes)
        assert second.read_bytes() == first.read_bytes()

    def test_optional_sections_regenerate(self, tmp_path, d2_instance):
        params, points, hyperplanes = d2_instance
        path = tmp_path / "bare.json"
        save_instance(path, params)
        doc = load_instance(path)
        assert doc.points is None and doc.hyperplanes is None
        full = InstanceDocument(params=params, points=points, hyperplanes=hyperplanes)
        assert verify_instance(doc) == verify_instance(full)

    @pytest.mark.parametrize(
        "d,n,t,size",
        [(2, 16, 2, None), (3, 96, 4, None), (3, 2048, 16, 125_742), (4, 4096, 64, 88_041),
         (5, 320, 16, None)],
    )
    def test_family_writes_the_json_of_its_objects(self, tmp_path, d, n, t, size):
        # (3, 2048, 16) is the instance of the verify benchmark.
        params = normalize_params(d, n, t)
        points, family = generate_points(params), generate_hyperplanes(params)
        path = tmp_path / "family.json"
        save_instance(path, params, points, family)
        expected = json.dumps(reference_instance_to_dict(params, points, family)).encode()
        assert path.read_bytes() == expected
        assert size is None or path.stat().st_size == size
        loaded = load_instance(path)
        assert isinstance(loaded.hyperplanes, HyperplaneFamily)
        assert list(loaded.hyperplanes) == list(family)

    @pytest.mark.parametrize(
        "points,hyperplanes",
        [
            (as_table([(1, 1, 1)]), None),
            (as_table([(1, 1)]), as_family([Hyperplane(a=(1, 1), b=1)])),
            (None, generate_hyperplanes(normalize_params(3, 96, 4))),
            ([(1, 1)], None),
        ],
        ids=["point_of_another_width", "hyperplane_of_another_d", "family_of_another_d",
             "points_not_a_table"],
    )
    def test_writer_refuses_what_no_loader_accepts(self, tmp_path, d2_instance, points,
                                                   hyperplanes):
        path = tmp_path / "inst.json"
        with pytest.raises(ValueError):
            save_instance(path, d2_instance[0], points, hyperplanes)
        assert not path.exists()

    def test_schema_shape(self, tmp_path, d2_instance):
        params, points, hyperplanes = d2_instance
        path = tmp_path / "inst.json"
        save_instance(path, params, points, hyperplanes)
        doc = json.loads(path.read_text())
        assert list(doc) == ["params", "points", "hyperplanes"]
        assert doc["points"][0] == [1, 1]
        assert doc["hyperplanes"][0] == {"a": [1], "b": 1}

    def test_documents_compare_by_identity(self, tmp_path, d2_instance):
        path = tmp_path / "inst.json"
        save_instance(path, *d2_instance)
        doc = load_instance(path)
        assert doc == doc and doc != load_instance(path)  # no elementwise == of the tables

    def test_corrupted_points_still_load(self, d2_instance):
        params, points, hyperplanes = d2_instance
        doc = reference_instance_to_dict(params, points, hyperplanes)
        doc["points"][0] = [1, 9]  # moved off-grid; must load so verify can flag it
        parsed = instance_from_dict(doc)
        assert point_rows(parsed.points)[0] == (1, 9)

    def test_wrong_point_dimension_rejected(self, d2_instance):
        params, points, hyperplanes = d2_instance
        doc = reference_instance_to_dict(params, points, hyperplanes)
        doc["points"][0] = [1, 1, 1]
        with pytest.raises(ValueError):
            instance_from_dict(doc)

    def test_missing_params_rejected(self):
        for doc in ({"points": [[1, 1]]}, 5, "params"):
            with pytest.raises(ValueError):
                instance_from_dict(doc)


D2, D3, D4 = normalize_params(2, 16, 2), normalize_params(3, 96, 4), normalize_params(4, 4096, 64)

# name -> (params, points, hyperplanes) that load_instance accepts back.
WRITER_CASES = {
    "bare_params": (D2, None, None),
    "empty_sections": (D2, as_table([], 2), as_family([], 2)),
    "empty_sections_d3": (D3, as_table([], 3), as_family([], 3)),
    "points_only": (D2, as_table([(1, 1), (2, 8)]), None),
    "hyperplanes_only": (D2, None, as_family([Hyperplane(a=(1,), b=1)])),
    "extreme_coordinates": (
        D2, as_table([(0, 0), (-1, -7), (INT64_MIN, INT64_MAX), (INT64_MAX, INT64_MIN)]),
        as_family([Hyperplane(a=(INT64_MAX,), b=INT64_MAX), Hyperplane(a=(1,), b=1)])),
    "extreme_coefficients_d4": (D4, as_table([(INT64_MIN, 0, -1, INT64_MAX)]),
                                as_family([Hyperplane(a=(INT64_MAX, 1, 2), b=INT64_MAX)])),
    **{f"generated_d{params.d}": (params, generate_points(params), generate_hyperplanes(params))
       for params in (D2, D3, D4)},
}


class TestWriter:
    """save_instance against json.dumps of reference_instance_to_dict."""

    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_bytes_match_the_reference(self, tmp_path, monkeypatch, case, block):
        # Blocks of 1 and 3 rows run the seams and separators between blocks.
        if block is not None:
            monkeypatch.setattr(srlb.io, "WRITE_BLOCK", block)
        params, points, hyperplanes = WRITER_CASES[case]
        path = tmp_path / "inst.json"
        save_instance(path, params, points, hyperplanes)
        expected = json.dumps(reference_instance_to_dict(params, points, hyperplanes))
        assert path.read_bytes() == expected.encode()
        doc = load_instance(path)
        assert point_rows(doc.points) == point_rows(points)
        assert doc.hyperplanes is None or list(doc.hyperplanes) == list(hyperplanes)

    @pytest.mark.parametrize(
        "d,n,t,sha256",
        [
            (2, 16, 2, "0a0e7a03904f3065e7af5d2f306f078fe6ac97445c23fa9fd910ff8aafd9a3e1"),
            (3, 96, 4, "ed0be07549dc0f3a86aee0de4ffc3f1fc06bc36b06fdc3107485cabb1a964fc0"),
            (3, 2048, 16, "bcc61a893abf280808e49d09437048b07497058dc983f8bca36bc1f85745732e"),
            (4, 4096, 64, "7f634e8c3d37c6ca144fa75b05846f351e985f297a31bc71eea838e54797c6c5"),
        ],
    )
    def test_gen_files_are_unchanged(self, tmp_path, capsys, d, n, t, sha256):
        # Digests of the files that the json.dumps writer wrote for these requests.
        out = tmp_path / "inst.json"
        assert main(["gen", "-d", str(d), "-n", str(n), "-t", str(t), "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "d,n,t",
        [(2, 16, 2), (2, 4096, 16), (3, 96, 4), (3, 2048, 16), (4, 4096, 64), (4, 4096, 27),
         (2, 70000, 32),  # 69,984 points: two blocks
         (2, 4096, 2)],  # 524,288 hyperplanes: eight blocks; dicts per row peak over it here
    )
    def test_gen_charge_bounds_the_writer(self, tmp_path, traced_peak, d, n, t):
        # gen charges charge_verify(params) and nothing else before it writes.
        params = normalize_params(d, n, t)
        points, family = generate_points(params), generate_hyperplanes(params)
        result, peak = traced_peak(save_instance, tmp_path / "inst.json", params, points, family)
        assert result is None
        assert peak <= charge_verify(params)


def reference_int(value, what):
    """One stored value under the value rule: JSON holds no numpy integers,
    so an int that is not a bool, else the loader's ValueError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"every value of {what} must be an integer")
    return value


def reference_instance_from_dict(doc):
    """Reference loader: checks every stored value with reference_int, one at
    a time, into point tuples and Hyperplane objects, checking each
    hyperplane's coefficients as it goes."""
    if "params" not in doc:
        raise ValueError("instance document has no 'params' object")
    params = params_from_dict(doc["params"])
    points = None
    if "points" in doc:
        points = [tuple(reference_int(c, "point coordinates") for c in p) for p in doc["points"]]
        if any(len(p) != params.d for p in points):
            raise ValueError(f"every point must have d = {params.d} coordinates")
    hyperplanes = None
    if "hyperplanes" in doc:
        hyperplanes = []
        for h in doc["hyperplanes"]:
            a = tuple(reference_int(c, "hyperplane slopes") for c in h["a"])
            b = reference_int(h["b"], "hyperplane offsets")
            if min(a, default=0) < 1 or b < 1:  # a row without slopes fails too
                raise ValueError(f"coefficients must be >= 1, got a={a}, b={b}")
            hyperplanes.append(Hyperplane(a=a, b=b))
        if any(h.d != params.d for h in hyperplanes):
            raise ValueError(f"every hyperplane must have d-1 = {params.d - 1} slopes")
    return SimpleNamespace(params=params, points=points, hyperplanes=hyperplanes)


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
    # int() would read the values of the next five cases; the value rule refuses them.
    "floats_truncate": (D2_PARAMS, {"points": [[1.0, 2.9], [-0.5, -1.7]],
                                    "hyperplanes": [{"a": [2.5], "b": 3.99}]}),
    "float_truncates_below_one": (D2_PARAMS, {"hyperplanes": [{"a": [0.9], "b": 1}]}),
    "bools": (D2_PARAMS, {"points": [[True, False]], "hyperplanes": [{"a": [True], "b": True}]}),
    "numeric_strings": (D2_PARAMS, {"points": [["1", " 7"], ["-3", "+4"]],
                                    "hyperplanes": [{"a": ["2"], "b": "5"}]}),
    "mixed_types": (D3_PARAMS, {"points": [[1, "2", 3.0]],
                                "hyperplanes": [{"a": [1, "2"], "b": 3.0}]}),
    "non_numeric_string": (D2_PARAMS, {"points": [["1", "x"]]}),
    "nested_values": (D2_PARAMS, {"points": [[[1], [2]]]}),
    "fractional_string": (D2_PARAMS, {"hyperplanes": [{"a": ["1.5"], "b": 1}]}),
    "nan_coordinate": (D2_PARAMS, {"points": [[1, float("nan")]]}),
    "int64_extremes": (D2_PARAMS, {"points": [[-(2**63), 2**63 - 1]],
                                   "hyperplanes": [{"a": [2**63 - 1], "b": 2**63 - 1}]}),
    "int64_extremes_below_one": (D3_PARAMS, {"hyperplanes": [
        {"a": [1, 1], "b": 1}, {"a": [2**63 - 1, -(2**63)], "b": 1}]}),
}


def _outcome(load, doc):
    """The loaded (params, points as tuples, hyperplanes as a list), or the
    type of the exception the loader raised.  The reference loader gives its
    points as tuples already; a table must be a read-only int64 one."""
    try:
        loaded = load(doc)
    except Exception as exc:  # the exception type is the outcome under test
        return type(exc)
    points = loaded.points if isinstance(loaded.points, list) else point_rows(loaded.points)
    hyperplanes = None if loaded.hyperplanes is None else list(loaded.hyperplanes)
    return loaded.params, points, hyperplanes


class TestBulkLoader:
    @pytest.mark.parametrize("case", sorted(LOADER_CASES))
    def test_matches_per_value_reference(self, case):
        params, sections = LOADER_CASES[case]
        doc = {"params": params, **sections}
        expected = _outcome(reference_instance_from_dict, doc)
        assert _outcome(instance_from_dict, doc) == expected
        if isinstance(expected, tuple):
            loaded = instance_from_dict(doc)
            assert loaded.hyperplanes is None or isinstance(loaded.hyperplanes, HyperplaneFamily)
            values = [c for h in loaded.hyperplanes or [] for c in (*h.a, h.b)]
            assert all(type(c) is int for c in values)  # equality misses numpy scalars

    @pytest.mark.parametrize(
        "case",
        ["zero_slope", "negative_slope", "zero_offset", "negative_offset",
         "float_truncates_below_one", "int64_extremes_below_one"],
    )
    def test_coefficient_below_one_message_matches_reference(self, case):
        # float_truncates_below_one is refused by the value rule first, also by name.
        params, sections = LOADER_CASES[case]
        doc = {"params": params, **sections}
        with pytest.raises(ValueError) as expected:
            reference_instance_from_dict(doc)
        with pytest.raises(ValueError) as raised:
            instance_from_dict(doc)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "sections",
        [{"points": [1, 2]}, {"points": [[1, 2], 3]}, {"hyperplanes": [{"a": 1, "b": 1}]}],
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
            {"points": [[1, -(2**64)]]},
            {"points": [[1, 10**19]]},
            {"hyperplanes": [{"a": [1], "b": -(2**63) - 1}]},
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

    @pytest.mark.parametrize(
        "sections,what",
        [
            ({"points": [[1, float("inf")]]}, "point coordinates"),
            ({"points": [[1, 1e19]]}, "point coordinates"),
            ({"points": [[1, str(2**64)]]}, "point coordinates"),
            ({"hyperplanes": [{"a": [2.0**70], "b": 1}]}, "hyperplane slopes"),
            ({"hyperplanes": [{"a": [1], "b": str(2**70)}]}, "hyperplane offsets"),
        ],
        ids=["inf", "1e19", "str_2_to_64", "float_slope", "str_offset"],
    )
    def test_value_that_is_not_an_integer_is_a_value_error(self, sections, what, tmp_path,
                                                          capsys):
        # Beyond int64 as numbers, but not integers: the value rule refuses them first.
        doc = {"params": D2_PARAMS, **sections}
        with pytest.raises(ValueError, match=f"^every value of {what} must be an integer$"):
            instance_from_dict(doc)
        path = tmp_path / "not_an_integer.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: every value of {what} must be an integer\n"


def json_load(path):
    """The loader the columnar parse must agree with: the bytes decoded as
    UTF-8 with an optional byte-order mark, json, then instance_from_dict."""
    return instance_from_dict(json.loads(path.read_bytes().decode("utf-8-sig")))


def loaded_tables(load, path):
    """load(path) as (params, point table, (slope table, offset column)),
    each table as (dtype, shape, rows); or the (type, text) of the error."""
    try:
        doc = load(path)
    except Exception as exc:  # the exception type and text are the outcome under test
        return type(exc), str(exc)

    def table(array):
        return array.dtype, array.shape, array.tolist()

    family = doc.hyperplanes
    return (
        doc.params,
        None if doc.points is None else table(doc.points),
        None if family is None else (table(family.slopes), table(family.offsets)),
    )


WRITTEN = json.dumps({"params": D2_PARAMS, "points": [[1, 1], [2, 8]],
                      "hyperplanes": [{"a": [2], "b": 3}]})
POINTS, HYPERPLANES = ', "points": [[1, 1], [2, 8]]', ', "hyperplanes": [{"a": [2], "b": 3}]'
BARE = WRITTEN.replace(POINTS, "").replace(HYPERPLANES, "")

# name -> (file bytes, whether the columnar parse takes them).  The text
# differs from what save_instance writes only where the name says.
TEXT_CASES = {
    "as_written": (WRITTEN, True),
    "bare_params": (BARE, True),
    "points_only": (WRITTEN.replace(HYPERPLANES, ""), True),
    "hyperplanes_only": (WRITTEN.replace(POINTS, ""), True),
    "empty_sections": (WRITTEN.replace("[[1, 1], [2, 8]]", "[]")
                       .replace('[{"a": [2], "b": 3}]', "[]"), True),
    "zero": (WRITTEN.replace("[2, 8]", "[0, 0]"), True),
    "minus_zero": (WRITTEN.replace("[2, 8]", "[-0, 8]"), True),
    "int64_max": (WRITTEN.replace("[2, 8]", f"[{2**63 - 1}, {-(2**63 - 1)}]"), True),
    "int64_min": (WRITTEN.replace("[2, 8]", f"[{-(2**63)}, 8]"), True),
    "int64_max_slope": (WRITTEN.replace('"b": 3', f'"b": {2**63 - 1}'), True),
    "two_to_63": (WRITTEN.replace("[2, 8]", f"[{2**63}, 8]"), False),
    "below_int64_min": (WRITTEN.replace("[2, 8]", f"[{-(2**63) - 1}, 8]"), False),
    "two_to_63_offset": (WRITTEN.replace('"b": 3', f'"b": {2**63}'), False),
    "19_digits": (WRITTEN.replace("[2, 8]", f"[{10**18}, 8]"), True),
    "19_digits_over": (WRITTEN.replace("[2, 8]", f"[{10**19 - 1}, 8]"), False),
    "20_digits": (WRITTEN.replace("[2, 8]", f"[{10**19}, 8]"), False),
    "20_digits_leading_zeros": (WRITTEN.replace("[2, 8]", "[00000000000000000001, 8]"), False),
    "leading_zero": (WRITTEN.replace("[2, 8]", "[01, 8]"), False),
    "leading_zero_negative": (WRITTEN.replace("[2, 8]", "[-01, 8]"), False),
    "leading_zero_slope": (WRITTEN.replace('"a": [2]', '"a": [02]'), False),
    "exponent": (WRITTEN.replace("[2, 8]", "[1e3, 8]"), False),
    "fraction": (WRITTEN.replace("[2, 8]", "[1.0, 8]"), False),
    "plus_sign": (WRITTEN.replace("[2, 8]", "[+2, 8]"), False),
    "lone_minus": (WRITTEN.replace("[2, 8]", "[-, 8]"), False),
    "minus_inside": (WRITTEN.replace("[2, 8]", "[2-1, 8]"), False),
    "double_minus": (WRITTEN.replace("[2, 8]", "[--2, 8]"), False),
    "below_one_slope": (WRITTEN.replace('"a": [2]', '"a": [0]'), True),
    "negative_offset": (WRITTEN.replace('"b": 3', '"b": -3'), True),
    "wide_point": (WRITTEN.replace("[2, 8]", "[2, 8, 1]"), False),
    "wide_slopes": (WRITTEN.replace('"a": [2]', '"a": [2, 1]'), False),
    "reordered_sections": (BARE[:-1] + HYPERPLANES + POINTS + "}", False),
    "reordered_hyperplane_keys": (WRITTEN.replace('{"a": [2], "b": 3}', '{"b": 3, "a": [2]}'),
                                  False),
    "extra_key": (WRITTEN[:-1] + ', "note": 1}', False),
    "extra_hyperplane_key": (WRITTEN.replace('"b": 3}', '"b": 3, "c": 4}'), False),
    "extra_params_key": (WRITTEN.replace('"m": 8}', '"m": 8, "note": "x"}'), True),
    "invalid_params": (WRITTEN.replace('"m": 8', '"m": 9'), False),
    "invalid_params_and_text": (WRITTEN.replace('"m": 8', '"m": 9')
                                .replace("[2, 8]", "[02, 8]"), False),
    "nested_params": (WRITTEN.replace('"m": 8', '"m": {"x": 8}'), False),
    "params_not_an_object": (WRITTEN.replace('{"d": 2, "s": 2, "t": 2, "n": 16, "A": 2, "B": 4, '
                                             '"m": 8}', "[2]"), False),
    "compact": (WRITTEN.replace(", ", ","), False),
    "no_space_in_row": (WRITTEN.replace("[2, 8]", "[2,8]"), False),
    "space_in_empty_section": (BARE[:-1] + ', "points": [ ]}', False),
    "trailing_newline": (WRITTEN + "\n", False),
    "trailing_bytes": (WRITTEN + "x", False),
    "truncated": (WRITTEN[:-2], False),
    "utf8_bom": ("\ufeff" + WRITTEN, False),
    "non_ascii_params_key": (WRITTEN.replace('"m": 8}', '"m": 8, "\u00e9": 1}'), False),
}
NOT_UTF8 = {
    "not_utf8_in_params": WRITTEN.encode().replace(b'"m": 8}', b'"m": 8, "\xff": 1}'),
    "not_utf8_in_points": WRITTEN.encode().replace(b"[2, 8]", b"[2, \xff8]"),
}
DUMPS_STYLES = {"default": {}, "indent": {"indent": 1}, "compact": {"separators": (",", ":")}}


class TestColumnarLoader:
    """load_instance against json.loads and instance_from_dict, file by file."""

    @pytest.mark.parametrize("style", sorted(DUMPS_STYLES))
    @pytest.mark.parametrize("case", sorted(LOADER_CASES))
    def test_loader_cases_match_the_json_path(self, tmp_path, case, style):
        params, sections = LOADER_CASES[case]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"params": params, **sections}, **DUMPS_STYLES[style]))
        assert loaded_tables(load_instance, path) == loaded_tables(json_load, path)

    @pytest.mark.parametrize("case", sorted(TEXT_CASES))
    def test_text_cases_match_the_json_path(self, tmp_path, case):
        text, columnar = TEXT_CASES[case]
        path = tmp_path / "inst.json"
        path.write_bytes(text.encode())
        assert loaded_tables(load_instance, path) == loaded_tables(json_load, path)
        if case == "utf8_bom":  # the mark is decoded away: the document as written
            plain = tmp_path / "plain.json"
            plain.write_text(WRITTEN)
            assert loaded_tables(load_instance, path) == loaded_tables(load_instance, plain)
        try:
            taken = _columnar_document(path.read_bytes()) is not None
        except ValueError:  # a coefficient below 1, raised as the json path raises it
            taken = True
        assert taken == columnar

    @pytest.mark.parametrize("case", sorted(NOT_UTF8))
    def test_bytes_that_are_not_utf8_match_the_json_path(self, tmp_path, case):
        path = tmp_path / "inst.json"
        path.write_bytes(NOT_UTF8[case])
        outcome = loaded_tables(load_instance, path)
        assert outcome[0] is UnicodeDecodeError
        assert outcome == loaded_tables(json_load, path)

    @pytest.mark.parametrize("d,n,t", [(2, 16, 2), (3, 2048, 16), (4, 4096, 64)])
    def test_gen_files_never_reach_json_with_a_section(self, tmp_path, capsys, monkeypatch,
                                                       d, n, t):
        out = tmp_path / "inst.json"
        assert main(["gen", "-d", str(d), "-n", str(n), "-t", str(t), "--out", str(out)]) == 0
        capsys.readouterr()
        parsed, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
        doc = load_instance(out)
        params = normalize_params(d, n, t)
        assert parsed == [json.dumps(params_to_dict(params)).encode()]
        assert point_rows(doc.points) == point_rows(generate_points(params))
        assert list(doc.hyperplanes) == list(generate_hyperplanes(params))

    @pytest.mark.parametrize("d,n,t", [(2, 4096, 16), (3, 2048, 16), (4, 4096, 64)])
    def test_load_peak_per_file_byte(self, tmp_path, traced_peak, d, n, t):
        params = normalize_params(d, n, t)
        path = tmp_path / "inst.json"
        save_instance(path, params, generate_points(params), generate_hyperplanes(params))
        doc, peak = traced_peak(load_instance, path)
        assert doc.params == params
        assert peak < 16 * path.stat().st_size


class TestBoundReportSchema:
    def test_exact_rationals(self):
        doc = bound_report(normalize_params(3, 96, 4))
        assert list(doc) == ["m", "t", "alpha", "beta", "figure_of_merit", "exponent"]
        assert doc["figure_of_merit"] == {"num": 512, "den": 5}
        assert doc["exponent"] == {"num": 2, "den": 3}
        assert doc["alpha"] == 2 and doc["beta"] == 5


class TestStatsCsv:
    def test_round_trip_with_comment(self, tmp_path):
        rows = [dict(zip(STATS_HEADER, (16, 2, 0, 2, 7, 2, 8))),
                dict(zip(STATS_HEADER, (16, 2, "mean", 2.0, 7.5, 2.0, 8.0)))]
        # A per-query row takes its counters from a QueryStats by the header's names.
        stats = QueryStats(nodes_visited=7, leaves_scanned=2, points_reported=2, points_tested=8)
        assert stats_row(16, 2, 0, 2, stats) == rows[0]
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
        writer.write_rows([dict(zip(STATS_HEADER, (16, 2, 0, 2, 7, 2, 8)))])
        # Rows already on disk before close.
        assert len(read_stats_csv(path)) == 1
        writer.close()

    def test_format_stat(self):
        assert format_stat(5) == "5"
        assert format_stat(5.0) == "5"
        assert format_stat(5.5) == "5.5"
        assert format_stat(1271.0340136054422) == "1271.0340136054422"
