import math
import re

import pytest

import srlb.bench
from srlb.bench import (
    ExperimentPlan,
    FitResult,
    aggregate_rows,
    fit_from_rows,
    fit_loglog,
    peak_bytes,
    run_plan,
    select_query_ids,
)
from srlb.errors import InstanceTooLarge, InsufficientData, RangeTooTight
from srlb.geometry import normalize_params
from srlb.io import STATS_HEADER


def plan_rows(plan):
    return [row for _, row in run_plan(plan)]


class TestExperimentPlan:
    def test_valid_plan_resolves_params(self):
        plan = ExperimentPlan(d=2, sizes=(1024, 2048), t_rule="auto", seed=0)
        assert plan.instances[0].t == 22

    def test_fixed_rule(self):
        plan = ExperimentPlan(d=2, sizes=(64, 128), t_rule="fixed:2", seed=0)
        assert plan.instances[0].t == 2

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentPlan(d=2, sizes=(128, 64), t_rule="auto", seed=0)
        with pytest.raises(ValueError):
            ExperimentPlan(d=2, sizes=(64, 64), t_rule="auto", seed=0)
        with pytest.raises(ValueError):
            ExperimentPlan(d=2, sizes=(), t_rule="auto", seed=0)
        # Increasing sizes that normalize to the same n as the one before.
        with pytest.raises(ValueError):
            ExperimentPlan(d=2, sizes=(100, 101, 102), t_rule="auto", seed=0)
        with pytest.raises(ValueError):
            ExperimentPlan(d=2, sizes=(64, 66), t_rule="fixed:4", seed=0)

    def test_bad_rule(self):
        for rule in ("random", "fixed:", "fixed:-4", "Fixed:4", "auto:4"):
            message = f"t rule must be 'auto' or 'fixed:<t>', got {rule!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ExperimentPlan(d=2, sizes=(64,), t_rule=rule, seed=0)
        # A fixed t is read by exact.integer; int() alone would also take " 4" and "+4".
        for t in ("x", "1.5", " 4", "+4", "4:4"):
            message = f"--t-rule: {t!r} is not an integer"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ExperimentPlan(d=2, sizes=(64,), t_rule=f"fixed:{t}", seed=0)

    def test_infeasible_pair_rejected_up_front(self):
        with pytest.raises(RangeTooTight):
            ExperimentPlan(d=2, sizes=(16,), t_rule="fixed:4", seed=0)

    def test_dimension_cap_up_front(self):
        # d = 64, n = 64 normalizes (s = t = A = B = 1), but generate_points
        # would need 65 axes; the plan refuses it with generate_points' text.
        message = "d = 64 exceeds the cap of 63 for generated tables"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentPlan(d=64, sizes=(64,), t_rule="auto", seed=0)
        assert ExperimentPlan(d=63, sizes=(64,), t_rule="auto", seed=0).instances[0].t == 1

    def test_run_plan_runs_the_resolved_instances(self, monkeypatch):
        plan = ExperimentPlan(d=2, sizes=(64, 256), t_rule="fixed:2", seed=0)
        assert plan.instances == (normalize_params(2, 64, 2), normalize_params(2, 256, 2))
        # run_plan takes the plan's instances; it resolves no size again.
        monkeypatch.setattr(srlb.bench, "normalize_params", None)
        monkeypatch.setattr(srlb.bench, "largest_valid_richness", None)
        maxima = [params for params, row in run_plan(plan) if row["query_id"] == "max"]
        assert maxima == list(plan.instances)


class TestQuerySampling:
    def test_small_family_runs_all(self):
        assert select_query_ids(8, seed=0) == list(range(8))

    def test_large_family_sampled(self):
        ids = select_query_ids(10_000, seed=0)
        assert len(ids) == 512
        assert ids == sorted(ids)
        assert len(set(ids)) == 512
        assert all(0 <= i < 10_000 for i in ids)

    def test_sampling_deterministic_per_seed(self):
        assert select_query_ids(10_000, seed=3) == select_query_ids(10_000, seed=3)
        assert select_query_ids(10_000, seed=3) != select_query_ids(10_000, seed=4)


class TestRunInstance:
    """One instance's rows, as run_plan yields them."""

    def test_planar_rows(self):
        plan = ExperimentPlan(d=2, sizes=(16,), t_rule="fixed:2", seed=0)
        (params,) = plan.instances
        rows = plan_rows(plan)
        per_query, aggregates = rows[:-2], rows[-2:]
        assert [r["query_id"] for r in per_query] == list(range(8))
        assert all(r["k"] == params.t for r in per_query)
        assert [r["query_id"] for r in aggregates] == ["mean", "max"]
        assert aggregates[0]["k"] == params.t  # mean of a constant column
        assert aggregates[1]["nodes_visited"] == max(r["nodes_visited"] for r in per_query)

    def test_aggregate_of_empty(self):
        assert aggregate_rows([]) == []


class TestFit:
    def synthetic_rows(self, values, query_id="mean"):
        return [dict(zip(STATS_HEADER, (n, 2, query_id, 1, v, 1, 1))) for n, v in values]

    def test_exact_linear_power_law(self):
        rows = self.synthetic_rows([(n, float(n)) for n in (2**10, 2**12, 2**14, 2**16)])
        fit = fit_from_rows(rows)
        assert abs(fit.slope - 1.0) < 1e-9
        assert abs(fit.r_squared - 1.0) < 1e-12
        assert fit.points_used == 4

    def test_exact_sqrt_power_law(self):
        rows = self.synthetic_rows(
            [(n, math.sqrt(n)) for n in (2**10, 2**12, 2**14, 2**16)]
        )
        fit = fit_from_rows(rows)
        assert abs(fit.slope - 0.5) < 1e-9

    def test_intercept_recovered(self):
        fit = fit_loglog([(2**k, 8.0 * 2**k) for k in (4, 6, 9)])
        assert abs(fit.slope - 1.0) < 1e-9
        assert abs(fit.intercept - 3.0) < 1e-9

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientData):
            fit_loglog([(16, 4.0), (32, 5.0)])

    def test_identical_sizes_rejected(self):
        with pytest.raises(InsufficientData):
            fit_loglog([(16, 4.0), (16, 5.0), (16, 6.0)])

    def test_only_mean_rows_used(self):
        rows = self.synthetic_rows([(n, float(n)) for n in (16, 64, 256)])
        rows += self.synthetic_rows([(999, 1e9)], "max") + self.synthetic_rows([(999, 1e9)], 7)
        fit = fit_from_rows(rows)
        assert fit.points_used == 3
        assert abs(fit.slope - 1.0) < 1e-9


class TestRunPlan:
    def test_rows_grouped_and_ordered(self):
        plan = ExperimentPlan(d=2, sizes=(64, 256), t_rule="fixed:2", seed=0)
        rows = plan_rows(plan)
        sizes = [r["n"] for r in rows if r["query_id"] == "mean"]
        assert sizes == [64, 256]
        fit_input = [r for r in rows if r["query_id"] == "mean"]
        assert all(isinstance(r["nodes_visited"], float) for r in fit_input)
        assert all(params.n == row["n"] for params, row in run_plan(plan))

    def test_deterministic(self):
        plan = ExperimentPlan(d=2, sizes=(64, 256), t_rule="auto", seed=5)
        assert plan_rows(plan) == plan_rows(plan)

    def test_every_size_charged_before_generation(self, monkeypatch):
        plan = ExperimentPlan(d=2, sizes=(64, 256), t_rule="fixed:2", seed=0)
        # fixed:2 normalizes both sizes as given; the leaf capacity of 4 leaves
        # at most 256 // 2 = 128 leaves: 256 * 224 + 255 * 384 = 155,264 bytes.
        cost = peak_bytes(plan.instances[1], plan.leaf_capacity)
        assert cost == 155_264
        generated = []
        monkeypatch.setattr(srlb.bench, "generate_points",
                            lambda params: generated.append(params) or [])
        monkeypatch.setattr(srlb.exact, "MEMORY_BUDGET", cost - 1)
        # The plan is the pre-flight: making it charges every size.
        with pytest.raises(InstanceTooLarge,
                           match=f"size n = 256: .* {cost} bytes, over the budget of {cost - 1}"):
            ExperimentPlan(d=2, sizes=(64, 256), t_rule="fixed:2", seed=0)
        assert generated == []
        monkeypatch.undo()
        monkeypatch.setattr(srlb.exact, "MEMORY_BUDGET", cost)
        charged = ExperimentPlan(d=2, sizes=(64, 256), t_rule="fixed:2", seed=0)
        assert plan_rows(charged) == plan_rows(plan)

    @pytest.mark.parametrize("d,leaf_capacity", [(2, 1), (2, 4), (3, 4), (3, 8)])
    def test_peak_bytes_bounds_the_traced_peak(self, traced_peak, d, leaf_capacity):
        plan = ExperimentPlan(d=d, sizes=(2**12,), t_rule="auto", seed=0,
                              leaf_capacity=leaf_capacity)
        rows, peak = traced_peak(lambda: sum(1 for _ in run_plan(plan)))
        assert rows > 2
        assert peak <= peak_bytes(plan.instances[0], leaf_capacity)
