"""Perturbation-study and report-serialization tests."""

import csv
import io
import json
import statistics
import sys

import pytest

from pegplan import bench
from pegplan import (
    DEFAULT_ELIGIBLE_KINDS,
    FeatureKind,
    MetricKind,
    PerturbSpec,
    ReconciliationProblem,
    eligible_features,
    emit_csv,
    emit_json,
    generate_concise,
    generate_progressive,
    perturb_model,
    run_comparison,
    sweep_missing_prob,
    trace_to_dict,
)

from oracles import chained_perturbation


class TestPerturbSpec:
    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="missing_prob"):
            PerturbSpec(1.5, 0)

    def test_cost_kind_rejected(self):
        with pytest.raises(ValueError, match="not eligible"):
            PerturbSpec(0.1, 0, frozenset({FeatureKind.COST}))

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            PerturbSpec(0.1, 0, frozenset())

    def test_init_and_goal_kinds_allowed(self):
        spec = PerturbSpec(0.1, 0, frozenset({FeatureKind.INIT, FeatureKind.GOAL}))
        assert FeatureKind.INIT in spec.eligible_kinds

    def test_replace_checks_like_the_constructor(self):
        spec = PerturbSpec(0.1, 0)
        assert spec._replace(seed=3) == PerturbSpec(0.1, 3)
        assert type(spec._replace(seed=3)) is PerturbSpec
        with pytest.raises(ValueError, match="missing_prob"):
            spec._replace(missing_prob=1.5)
        with pytest.raises(ValueError, match="not eligible"):
            spec._replace(eligible_kinds=frozenset({FeatureKind.COST}))


class TestEligibleFeatures:
    def test_default_pool_has_only_action_structure(self, errand_pair):
        robot, _ = errand_pair
        kinds = {f.kind for f in eligible_features(robot)}
        assert kinds <= DEFAULT_ELIGIBLE_KINDS

    def test_pool_is_sorted_by_rendered_string(self, rover_p01):
        pool = eligible_features(rover_p01)
        assert [f.render() for f in pool] == sorted(f.render() for f in pool)

    def test_rover_pool_size(self, rover_p01, rover_p02):
        assert len(eligible_features(rover_p01)) == 75
        assert len(eligible_features(rover_p02)) == 81

    def test_errand_pool_size(self, errand_pair):
        assert len(eligible_features(errand_pair[0])) == 10


class TestPerturbModel:
    def test_deterministic_for_a_fixed_spec(self, rover_p01):
        spec = PerturbSpec(0.2, 42)
        m1, n1, p1 = perturb_model(rover_p01, spec)
        m2, n2, p2 = perturb_model(rover_p01, spec)
        assert m1 == m2
        assert (n1, p1) == (n2, p2)

    def test_zero_probability_removes_nothing(self, rover_p01):
        model, removed, pool = perturb_model(rover_p01, PerturbSpec(0.0, 1))
        assert removed == 0
        assert model == rover_p01

    def test_certain_probability_removes_everything(self, errand_pair):
        robot, _ = errand_pair
        model, removed, pool = perturb_model(robot, PerturbSpec(1.0, 1))
        assert removed == pool == 10
        assert not eligible_features(model)

    def test_removal_rate_is_unbiased(self, errand_pair):
        robot, _ = errand_pair
        counts = [perturb_model(robot, PerturbSpec(0.3, seed))[1] for seed in range(400)]
        mean = statistics.fmean(counts)
        # pool 10, p 0.3: mean 3.0, sd of the mean ~0.072; allow 3 sigma
        assert abs(mean - 3.0) < 0.25

    def test_never_touches_costs_or_actions(self, rover_p01):
        model, _, _ = perturb_model(rover_p01, PerturbSpec(0.5, 7))
        assert {a.name for a in model.actions} == {a.name for a in rover_p01.actions}
        for act in model.actions:
            assert act.cost == rover_p01.action(act.name).cost

    def test_new_fact_sets_are_frozen_to_fit(self, rover_p02):
        # see tests/test_pddl.py::TestGrounding::test_fact_sets_are_frozen_to_fit
        kinds = frozenset(FeatureKind) - {FeatureKind.COST}
        for seed in range(10):
            model, removed, _ = perturb_model(rover_p02, PerturbSpec(0.2, seed, kinds))
            used = [model.init, model.goal]
            for act in model.actions:
                used += [act.preconditions, act.add_effects, act.delete_effects]
            assert removed and all(
                sys.getsizeof(facts) <= sys.getsizeof(frozenset(set(facts))) for facts in used
            )

    @pytest.mark.parametrize(
        "kinds", [DEFAULT_ELIGIBLE_KINDS, frozenset(FeatureKind) - {FeatureKind.COST}]
    )
    def test_equals_the_apply_change_chain(self, rover_p01, rover_p02, errand_fixture_pair, kinds):
        for robot in (rover_p01, rover_p02, errand_fixture_pair[0]):
            for p in (0, 0.05, 0.1, 0.2, 0.5, 1):
                for seed in range(30):
                    spec = PerturbSpec(p, seed, kinds)
                    assert perturb_model(robot, spec) == chained_perturbation(robot, spec), spec


class TestRunComparison:
    def test_runs_use_consecutive_seeds(self, errand_pair):
        robot, _ = errand_pair
        report = run_comparison(robot, spec=PerturbSpec(0.3, 5), runs=4)
        assert [r.seed for r in report.records] == [5, 6, 7, 8]
        assert [r.run_index for r in report.records] == [0, 1, 2, 3]

    def test_progressive_never_costs_more_than_concise(self, errand_pair):
        robot, _ = errand_pair
        report = run_comparison(robot, spec=PerturbSpec(0.3, 0), runs=8)
        for rec in report.records:
            assert not rec.failed
            assert rec.peg_sum_rho_p2 <= rec.concise_sum_rho_p2

    def test_budget_blowups_are_flagged_not_raised(self, rover_p01):
        report = run_comparison(rover_p01, spec=PerturbSpec(0.2, 1), runs=2, node_budget=1)
        assert all(r.failed for r in report.records)
        assert report.averages == {}

    def test_averages_cover_the_comparison_columns(self, errand_pair):
        robot, _ = errand_pair
        report = run_comparison(robot, spec=PerturbSpec(0.2, 0), runs=3)
        assert report.averages["missing_features"] == pytest.approx(
            statistics.fmean(r.missing_features for r in report.records)
        )
        assert "peg_sum_rho_p2" in report.averages
        assert "concise_expansions" in report.averages


class TestLibraryIsQuiet:
    def test_searches_and_studies_write_nothing(self, errand_pair, rover_p01, capfd):
        """The library reports through return values only: perfbench/run.py
        takes its last stdout line as the result, so a stray line on either
        stream would hide it."""
        robot, human = errand_pair
        problem = ReconciliationProblem(robot, human)
        generate_concise(problem)
        generate_progressive(problem)
        run_comparison(robot, spec=PerturbSpec(0.3, 0), runs=2)
        budgeted = run_comparison(rover_p01, spec=PerturbSpec(0.2, 1), runs=2, node_budget=1)
        assert all(r.failed for r in budgeted.records)
        sweep_missing_prob(robot, p_lo=0.1, p_hi=0.2, p_step=0.1)
        assert capfd.readouterr() == ("", "")


class TestSweep:
    def test_grid_is_exact(self, errand_pair):
        robot, _ = errand_pair
        report = sweep_missing_prob(robot, p_lo=0.06, p_hi=0.14, p_step=0.01, seed=3)
        assert [round(r.missing_prob, 2) for r in report.records] == [
            0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12, 0.13, 0.14,
        ]
        assert [r.seed for r in report.records] == [3, 4, 5, 6, 7, 8, 9, 10, 11]

    def test_invalid_grid_rejected(self, errand_pair, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("a probe ran before the grid was checked")

        monkeypatch.setattr(bench, "perturb_model", no_probe)
        monkeypatch.setattr(bench, "generate_progressive", no_probe)
        robot, _ = errand_pair
        nan, inf = float("nan"), float("inf")
        grids = [(0.2, 0.1, 0.1), (0.5, 1.2, 0.1), (-0.1, 0.3, 0.1),
                 (nan, 0.3, 0.1), (0.1, inf, 0.1), (0.1, 0.3, nan)]
        for p_lo, p_hi, p_step in grids:
            with pytest.raises(ValueError, match="p_lo"):
                sweep_missing_prob(robot, p_lo=p_lo, p_hi=p_hi, p_step=p_step)

    def test_budget_blowups_are_flagged_not_raised(self, rover_p01):
        report = sweep_missing_prob(rover_p01, p_lo=0.1, p_hi=0.2, p_step=0.1, node_budget=1)
        assert len(report.records) == 2
        assert all(r.failed for r in report.records)
        assert report.averages == {}


class TestSerialization:
    def test_trace_csv_matches_the_errand_walkthrough(self, errand_pair):
        robot, human = errand_pair
        trace = generate_progressive(
            ReconciliationProblem(robot, human), metric=MetricKind.P1
        )
        assert emit_csv(trace) == "step,cost_star,rho\r\n0,5,0\r\n1,10,5\r\n2,10,0\r\n3,9,1\r\n"

    def test_comparison_csv_shape(self, errand_pair):
        robot, _ = errand_pair
        report = run_comparison(robot, spec=PerturbSpec(0.2, 0), runs=3)
        rows = list(csv.reader(io.StringIO(emit_csv(report))))
        assert rows[0][0] == "run_index"
        assert len(rows) == 1 + 3 + 1  # header, runs, average
        assert rows[-1][0] == "average"

    def test_sweep_csv_shape(self, errand_pair):
        robot, _ = errand_pair
        report = sweep_missing_prob(robot, p_lo=0.1, p_hi=0.12, p_step=0.01, seed=0)
        rows = list(csv.reader(io.StringIO(emit_csv(report))))
        assert rows[0][:3] == ["missing_prob", "seed", "missing_features"]
        assert rows[-1][0] == "average"

    def test_trace_json_round_trips_and_uses_plain_keys(self, errand_pair):
        robot, human = errand_pair
        trace = generate_progressive(
            ReconciliationProblem(robot, human), metric=MetricKind.P1
        )
        payload = json.loads(emit_json(trace))
        assert payload["metric"] == "p1"
        assert payload["epsilon"] == "1/1000"
        assert payload["sum_rho"] == 6
        assert payload["changes"][0] == {
            "direction": "remove",
            "feature": "init-has-not-holiday",
        }
        assert [s["cost_star"] for s in payload["steps"]] == [5, 10, 10, 9]

    def test_report_json_contains_config_and_averages(self, errand_pair):
        robot, _ = errand_pair
        report = run_comparison(robot, spec=PerturbSpec(0.2, 0), runs=2)
        payload = json.loads(emit_json(report))
        assert payload["kind"] == "comparison"
        assert payload["config"]["missing_prob"] == 0.2
        assert len(payload["records"]) == 2
        assert set(payload["averages"]) <= {
            "missing_features", "peg_size", "peg_sum_rho_p2", "peg_expansions",
            "peg_wall_time", "concise_size", "concise_sum_rho_p2",
            "concise_expansions", "concise_wall_time",
        }

    def test_trace_to_dict_mirrors_fields(self, errand_pair):
        robot, human = errand_pair
        trace = generate_progressive(ReconciliationProblem(robot, human))
        d = trace_to_dict(trace)
        assert d["mode"] == "peg"
        assert d["complete"] is True
        assert len(d["steps"]) == trace.size + 1
