"""Optimal-planner tests, including the canonical-plan cross-checks.

Re-record ``planner_pins.json`` (only when an output change is intended and
explained)::

    PYTHONPATH=src python tests/test_planner.py --record
"""

import json
import random
import sys
from pathlib import Path

import pytest

from pegplan import (
    BudgetExceededError,
    Fact,
    GroundAction,
    Model,
    PerturbSpec,
    UnknownActionError,
    optimal_plan,
    perturb_model,
    plan_cost,
)
from pegplan import planner
from pegplan.pddl import ground, parse_domain, parse_problem
from pegplan.planner import _breadth_first, _cheapest_first, compile_model

from conftest import BENCHMARKS
from oracles import (
    enumerated_plan,
    random_action_sequence,
    random_model,
    random_solvable_model,
    simulated_cost,
    uniform_cost_plan,
)

P, Q, G = Fact("p"), Fact("q"), Fact("g")

# Canonical plans and search counters of the instances below.  The plans
# are fixed by their definition; the counters change with the search, so a
# change to how the planner explores shows up here.
PINS = Path(__file__).with_name("planner_pins.json")


def pinned_models(rover_p01: Model, rover_p02: Model) -> dict[str, Model]:
    """Rover p01/p02, perturbed rover p01 models (larger searches with many
    f-ties), and small random models, a third of them with 0/1 costs."""
    models = {"rover-p01": rover_p01, "rover-p02": rover_p02}
    for seed in range(10):
        human, _, _ = perturb_model(rover_p01, PerturbSpec(0.1, seed))
        models[f"rover-p01-perturbed-{seed}"] = human
    rng = random.Random(31)
    for i in range(200):
        if i % 3 == 0:
            models[f"random-{i}"] = random_model(rng, min_cost=0, max_cost=1)
        else:
            models[f"random-{i}"] = random_model(rng)
    return models


def search_record(model: Model) -> list:
    """[plan actions, cost, expansions, generated]; None for no plan."""
    result = optimal_plan(model)
    if not result.solvable:
        return [None, None, result.expansions, result.generated]
    return [list(result.plan.actions), result.plan.cost, result.expansions, result.generated]


def chain_model() -> Model:
    # p --one--> q --two--> g, plus an expensive direct jump
    return Model(
        frozenset({P, Q, G}),
        (
            GroundAction("one", frozenset({P}), frozenset({Q}), frozenset(), 2),
            GroundAction("two", frozenset({Q}), frozenset({G}), frozenset(), 3),
            GroundAction("jump", frozenset({P}), frozenset({G}), frozenset(), 6),
        ),
        frozenset({P}),
        frozenset({G}),
    )


class TestOptimalPlan:
    def test_cheapest_path_beats_direct_jump(self):
        result = optimal_plan(chain_model())
        assert result.solvable
        assert result.plan.actions == ("one", "two")
        assert result.plan.cost == 5

    def test_goal_already_satisfied_yields_empty_plan(self):
        m = Model(frozenset({P}), (), frozenset({P}), frozenset({P}))
        result = optimal_plan(m)
        assert result.solvable
        assert result.plan == type(result.plan)((), 0)

    def test_unsolvable_detected_without_expansion(self):
        m = Model(
            frozenset({P, G}),
            (GroundAction("noop", frozenset({P}), frozenset({P}), frozenset(), 1),),
            frozenset(),
            frozenset({G}),
        )
        result = optimal_plan(m)
        assert not result.solvable
        assert result.plan is None
        assert result.expansions == 0

    def test_deterministic_tie_break_prefers_lex_smaller_action(self):
        m = Model(
            frozenset({G}),
            (
                GroundAction("zeta", frozenset(), frozenset({G}), frozenset(), 1),
                GroundAction("alpha", frozenset(), frozenset({G}), frozenset(), 1),
            ),
            frozenset(),
            frozenset({G}),
        )
        for _ in range(3):
            assert optimal_plan(m).plan.actions == ("alpha",)

    def test_repeated_calls_are_identical(self):
        rng = random.Random(11)
        for _ in range(10):
            m = random_model(rng)
            r1, r2 = optimal_plan(m), optimal_plan(m)
            assert r1.solvable == r2.solvable
            assert r1.plan == r2.plan
            assert r1.expansions == r2.expansions

    def test_costs_match_uniform_cost_oracle(self):
        rng = random.Random(12)
        for _ in range(60):
            m = random_model(rng)
            got = optimal_plan(m)
            want = uniform_cost_plan(m)
            if want is None:
                assert not got.solvable
            else:
                assert got.solvable
                assert got.plan.cost == want[0]
                # and the returned plan really achieves that cost
                assert plan_cost(got.plan.actions, m) == want[0]

    def test_node_budget_raises_distinct_error(self):
        rng = random.Random(13)
        m = random_solvable_model(rng)
        if optimal_plan(m).expansions <= 1:
            pytest.skip("instance too small to exceed a unit budget")
        with pytest.raises(BudgetExceededError):
            optimal_plan(m, node_budget=1)

    def test_rover_costs(self, rover_p01, rover_p02):
        assert optimal_plan(rover_p01).plan.cost == 11
        assert optimal_plan(rover_p02).plan.cost == 9

    def test_rover_plan_is_valid(self, rover_p01):
        result = optimal_plan(rover_p01)
        assert plan_cost(result.plan, rover_p01) == result.plan.cost


class TestCanonicalPlan:
    """The plan returned is the cheapest, then shortest, then
    lexicographically smallest one, on every instance checked."""

    @staticmethod
    def planned(model: Model) -> tuple[int, tuple[str, ...]] | None:
        result = optimal_plan(model)
        return (result.plan.cost, result.plan.actions) if result.solvable else None

    def test_matches_oracle_on_pinned_instances(self, rover_p01, rover_p02):
        models = pinned_models(rover_p01, rover_p02)
        differ = [name for name, m in models.items() if self.planned(m) != uniform_cost_plan(m)]
        assert differ == []

    def test_matches_oracles_on_random_models(self):
        rng = random.Random(53)
        solvable = 0
        for i in range(2100):
            if i % 3 == 0:
                m = random_model(rng, min_cost=0, max_cost=1)
            else:
                m = random_model(rng)
            want = uniform_cost_plan(m)
            assert self.planned(m) == want, m
            if want is not None:
                solvable += 1
                assert enumerated_plan(m, want[0]) == want[1], m
        assert solvable > 1000

    def test_zero_cost_loop_is_not_taken(self):
        # set-q and clear-q cost nothing and cycle between {p} and {p, q}.
        # By names alone (set-q, win) beats (win), (set-q, clear-q, set-q,
        # win) beats that, and so on with no least plan; length comes first.
        m = Model(
            frozenset({P, Q, G}),
            (
                GroundAction("clear-q", frozenset({Q}), frozenset(), frozenset({Q}), 0),
                GroundAction("set-q", frozenset({P}), frozenset({Q}), frozenset(), 0),
                GroundAction("win", frozenset({P}), frozenset({G}), frozenset(), 1),
            ),
            frozenset({P}),
            frozenset({G}),
        )
        assert self.planned(m) == (1, ("win",))
        assert enumerated_plan(m, 1) == ("win",)


class TestPinnedSearch:
    def test_plans_and_counters_match_the_pins(self, rover_p01, rover_p02):
        pins = json.loads(PINS.read_text())
        models = pinned_models(rover_p01, rover_p02)
        assert sorted(models) == sorted(pins)
        got = {name: search_record(m) for name, m in models.items()}
        drifted = [(name, got[name], pins[name]) for name in models if got[name] != pins[name]]
        assert drifted == []


def with_cost(model: Model, cost: int) -> Model:
    """The model with every action's cost set to ``cost``."""
    actions = tuple(a._replace(cost=cost) for a in model.actions)
    return model._replace(actions=actions)


def budget_outcome(search, compiled, node_budget):
    """What ``search`` returns, or the message of the budget error it raises."""
    try:
        return search(compiled, node_budget)
    except BudgetExceededError as exc:
        return str(exc)


def cross_check_models(rover_p01: Model, rover_p02: Model, mixed: bool) -> list[Model]:
    """Rover p01/p02 and their perturbations (every cost 1), and 300 seeded
    random models with every cost set to 0, 1 and 3, and also as drawn
    (mixed costs) when ``mixed``."""
    models = [rover_p01, rover_p02]
    for seed in range(10):
        models.append(perturb_model(rover_p01, PerturbSpec(0.1, seed))[0])
        models.append(perturb_model(rover_p02, PerturbSpec(0.2, seed))[0])
    rng = random.Random(71)
    for _ in range(300):
        m = random_model(rng)
        models.extend(with_cost(m, cost) for cost in (0, 1, 3))
        if mixed:
            models.append(m)
    return models


class TestProjection:
    """optimal_plan searches the model projected onto its live facts; the
    projection keeps every model's solvability and canonical plan."""

    def test_same_plan_as_the_unprojected_search_and_the_oracle(self, rover_p01, rover_p02):
        solvable = unsolvable = merged = 0
        for m in cross_check_models(rover_p01, rover_p02, mixed=True):
            c = compile_model(m)
            got = optimal_plan(m)
            unprojected, expansions, _ = _cheapest_first(c, None)
            assert (got.solvable, got.plan) == (unprojected is not None, unprojected), m
            want = uniform_cost_plan(m)
            assert ((got.plan.cost, got.plan.actions) if got.solvable else None) == want, m
            solvable += got.solvable
            unsolvable += not got.solvable
            # the projection merges states: the same search expands fewer
            merged += _cheapest_first(planner._project(c), None)[1] < expansions
        assert solvable > 700 and unsolvable > 400 and merged > 200


class TestBreadthFirst:
    """On models whose actions all cost the same, the breadth-first search
    returns the heap search's plan, with no more work, and raises the same
    budget error whenever its own work exceeds the budget."""

    def test_same_plan_as_the_heap_search_with_no_more_work(self, rover_p01, rover_p02):
        solvable = unsolvable = 0
        for m in cross_check_models(rover_p01, rover_p02, mixed=False):
            c = compile_model(m)
            plan, expansions, generated = _breadth_first(c, None)
            heap_plan, heap_expansions, heap_generated = _cheapest_first(c, None)
            assert plan == heap_plan, m
            assert expansions <= heap_expansions and generated <= heap_generated, m
            if plan is None:
                unsolvable += 1
            else:
                solvable += 1
                assert plan_cost(plan, m) == plan.cost
        assert solvable > 300 and unsolvable > 100

    def test_less_work_than_the_heap_search_on_rover(self, rover_p01, rover_p02):
        for m in (rover_p01, rover_p02):
            c = compile_model(m)
            _, expansions, generated = _breadth_first(c, None)
            _, heap_expansions, heap_generated = _cheapest_first(c, None)
            assert expansions < heap_expansions and generated < heap_generated

    def test_budget_error_exactly_when_its_work_exceeds_the_budget(self, rover_p01, rover_p02):
        for m in cross_check_models(rover_p01, rover_p02, mixed=False)[::7]:
            c = compile_model(m)
            expansions = _breadth_first(c, None)[1]
            for budget in {0, 1, 2, 5, max(expansions - 1, 0), expansions}:
                got = budget_outcome(_breadth_first, c, budget)
                assert isinstance(got, str) == (budget < expansions), (m, budget)
                if isinstance(got, str):
                    assert got == budget_outcome(_cheapest_first, c, budget), (m, budget)

    def test_optimal_plan_picks_the_search_by_costs(self, rover_p01, errand_fixture_pair, monkeypatch):
        robot, _ = errand_fixture_pair
        assert len({a.cost for a in robot.actions}) > 1
        want_mixed, want_uniform = optimal_plan(robot), optimal_plan(rover_p01)

        def refuse(c, node_budget):
            raise AssertionError("the other search was expected")

        monkeypatch.setattr(planner, "_breadth_first", refuse)
        assert optimal_plan(robot).plan == want_mixed.plan
        monkeypatch.undo()
        monkeypatch.setattr(planner, "_cheapest_first", refuse)
        assert optimal_plan(rover_p01).plan == want_uniform.plan


class TestPlanCost:
    def test_cost_of_valid_plan(self):
        assert plan_cost(("one", "two"), chain_model()) == 5

    def test_infeasible_plan_costs_none(self):
        assert plan_cost(("two",), chain_model()) is None

    def test_goal_not_reached_costs_none(self):
        assert plan_cost(("one",), chain_model()) is None

    def test_empty_plan_only_when_goal_holds(self):
        assert plan_cost((), chain_model()) is None
        m = Model(frozenset({P}), (), frozenset({P}), frozenset({P}))
        assert plan_cost((), m) == 0

    def test_unknown_action_raises(self):
        with pytest.raises(UnknownActionError):
            plan_cost(("teleport",), chain_model())


class TestPlanCostOracle:
    """plan_cost, given a model or its compiled form, against the frozenset
    simulation in ``oracles.simulated_cost``."""

    @staticmethod
    def outcome(cost_of, plan, model):
        try:
            return cost_of(plan, model)
        except UnknownActionError:
            return "unknown"

    def assert_agrees(self, plan, model):
        want = self.outcome(simulated_cost, plan, model)
        assert self.outcome(plan_cost, plan, model) == want, (plan, model)
        assert self.outcome(plan_cost, plan, compile_model(model)) == want, (plan, model)
        return want

    def test_pinned_plans_and_their_prefixes(self, rover_p01, rover_p02):
        pins = json.loads(PINS.read_text())
        models = pinned_models(rover_p01, rover_p02)
        for name, (plan, cost, _, _) in pins.items():
            if plan is None:
                continue
            assert self.assert_agrees(plan, models[name]) == cost, name
            for k in range(len(plan)):
                self.assert_agrees(plan[:k], models[name])
                self.assert_agrees(plan[k + 1:], models[name])

    def test_random_action_sequences(self):
        rng = random.Random(61)
        seen = {"feasible": 0, "zero-cost": 0, "unmet precondition": 0, "unmet goal": 0, "unknown": 0}
        for i in range(1500):
            model = random_model(rng, min_cost=0, max_cost=1 if i % 3 == 0 else 9)
            names = [act.name for act in model.actions] + (["teleport"] if i % 5 == 0 else [])
            plan = random_action_sequence(rng, names)
            got = self.assert_agrees(plan, model)
            # the same model without a goal fails only on preconditions
            goal_free = model._replace(goal=frozenset())
            if got == "unknown":
                seen["unknown"] += 1
            elif got is not None:
                seen["feasible"] += 1
                seen["zero-cost"] += any(model.action(a).cost == 0 for a in plan)
            elif simulated_cost(plan, goal_free) is not None:
                seen["unmet goal"] += 1
            elif simulated_cost(plan[:1], goal_free) is not None:
                seen["unmet precondition"] += 1  # at a later step than the first
        assert min(seen.values()) > 0, seen


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    rover = BENCHMARKS / "rover"
    domain = parse_domain((rover / "domain.pddl").read_text())
    p01, p02 = (
        ground(domain, parse_problem((rover / f"{p}.pddl").read_text())) for p in ("p01", "p02")
    )
    records = {name: search_record(m) for name, m in pinned_models(p01, p02).items()}
    lines = (f"  {json.dumps(name)}: {json.dumps(rec)}" for name, rec in records.items())
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(records)} pins in {PINS}")
