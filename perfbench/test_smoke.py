"""Smoke test of the benchmark harness on tiny instances (a few seconds).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from harness import Workload  # noqa: E402
from srlb.geometry import normalize_params  # noqa: E402

TINY = (
    Workload("tiny_slab", "slab", d=2, sizes=(2**8, 2**9, 2**10, 2**11), min_slopes=2),
    Workload("tiny_simplex", "simplex", d=3, sizes=(2**10,), min_slopes=2, queries=20),
    Workload("tiny_verify", "verify", d=3, sizes=(2**10,), min_slopes=2),
)
SPEC = harness.benchmark_spec()


@pytest.fixture(scope="module", params=TINY, ids=lambda w: w.name)
def traced(request, tmp_path_factory):
    workload = request.param
    out = tmp_path_factory.mktemp(workload.name)
    return harness.execute(workload, seed=1, seconds=0.2, trace=True, out_dir=out), out


def test_run_is_correct(traced):
    report, _ = traced
    assert report["error"] is None
    assert report["failures"] == []
    assert report["result"]["correct"] and report["result"]["failed"] == 0
    assert report["samples"]["traced_passes"] >= 1 and report["samples"]["passes"] >= 1


def test_every_metric_is_printed_with_its_unit(traced, capsys):
    report, _ = traced
    result = report["result"]["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: v["unit"] for name, v in result.items()
    }
    for name, value in report["metrics"].items():
        assert isinstance(value, (int, float)), name
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(report["metrics"])
    assert all(report["metrics"][m["name"]] > 0 for m in SPEC["end_to_end"])

    import run

    run.print_report(report)
    lines = capsys.readouterr().out.splitlines()
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), m["name"]
    assert any(line.startswith("failed_frac") for line in lines)
    assert json.loads(lines[-1]) == report["result"]


def test_span_self_times(traced):
    report, out = traced
    spans = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    covered = defaultdict(int)
    for s in spans:
        assert s["end_ns"] >= s["start_ns"]
        if s["parent"] is not None:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    self_ns = {s["id"]: s["end_ns"] - s["start_ns"] - covered[s["id"]] for s in spans}
    assert min(self_ns.values()) >= 0
    names = {s["id"]: s["name"] for s in spans}
    in_passes = sum(self_ns[s["id"]] for s in spans if names[s["root"]] == "pass")
    traced_wall = sum(w for w, kind in report["pass_wall_s"] if kind == "traced")
    assert 0 < in_passes / 1e9 <= traced_wall


def test_layers_have_expectations():
    expectations = harness.load_json("expectations.json")
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(harness.WORKLOADS)
    assert set(expectations["moves"]) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for moves in expectations["moves"].values():
        assert set(moves) <= end_to_end
        assert all(set(names) <= workloads for names in moves.values())


def test_untraced_run_reports_end_to_end(tmp_path):
    report = harness.execute(TINY[1], seed=0, seconds=0.2, trace=False, out_dir=tmp_path)
    assert report["result"]["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: v["unit"] for name, v in report["result"]["metrics"].items()
    }
    assert report["provenance"]["trace_file"] is None


def test_oversized_instance_is_refused_before_generation(tmp_path):
    # d=3, n=6144, t=4 normalises to m = 33,554,432 hyperplanes.
    params = normalize_params(3, 6144, 4)
    assert params.m == 33_554_432
    with pytest.raises(harness.Refused):
        harness.refuse_if_too_large(params)
    huge = Workload("huge", "verify", d=2, sizes=(2**22,), min_slopes=2)
    report = harness.execute(huge, seed=0, seconds=0.2, trace=False, out_dir=tmp_path)
    assert not report["result"]["correct"]
    assert report["result"]["failed"] >= 1
    assert report["error"].startswith("refused")
    assert not (tmp_path / "instance.json").exists()
