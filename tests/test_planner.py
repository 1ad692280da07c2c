"""Optimal-planner tests, including the uniform-cost and h-max cross-checks."""

import json
import random
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
    validate_plan,
)

from pegplan.planner import _Compiled, _hmax

from oracles import hmax_fixpoint, random_model, random_solvable_model, uniform_cost_plan

P, Q, G = Fact("p"), Fact("q"), Fact("g")

# Plans and search counters of the instances below, recorded while h-max
# was still computed by Dijkstra over facts.  A* keys on h, so any drift in
# h-max values or tie-breaks shows up here.
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
        assert validate_plan(result.plan, rover_p01).ok


class TestHmax:
    @pytest.mark.parametrize("min_cost,max_cost", [(0, 1), (0, 9), (1, 9)])
    def test_matches_fixpoint_oracle_on_every_state(self, min_cost, max_cost):
        rng = random.Random(40 + 10 * min_cost + max_cost)
        for _ in range(150):
            m = random_model(rng, min_cost=min_cost, max_cost=max_cost)
            c = _Compiled(m)
            for state in range(1 << len(c.facts)):
                facts = frozenset(f for i, f in enumerate(c.facts) if state >> i & 1)
                assert _hmax(c, state) == hmax_fixpoint(m, facts), (m, sorted(facts))

    def test_zero_cost_actions_chain_within_a_level(self):
        m = Model(
            frozenset({P, Q, G}),
            (
                GroundAction("free-q", frozenset({P}), frozenset({Q}), frozenset(), 0),
                GroundAction("free-g", frozenset({Q}), frozenset({G}), frozenset(), 0),
                GroundAction("paid-g", frozenset({P}), frozenset({G}), frozenset(), 4),
            ),
            frozenset({P}),
            frozenset({G}),
        )
        c = _Compiled(m)
        assert _hmax(c, c.init_mask) == 0
        assert _hmax(c, 0) == float("inf")

    def test_goal_cost_is_the_dearest_goal_fact(self):
        m = Model(
            frozenset({P, Q, G}),
            (
                GroundAction("to-q", frozenset({P}), frozenset({Q}), frozenset(), 2),
                GroundAction("to-g", frozenset({P}), frozenset({G}), frozenset(), 5),
            ),
            frozenset({P}),
            frozenset({Q, G}),
        )
        c = _Compiled(m)
        assert _hmax(c, c.init_mask) == 5


class TestPinnedSearch:
    def test_plans_and_counters_match_the_pins(self, rover_p01, rover_p02):
        pins = json.loads(PINS.read_text())
        models = pinned_models(rover_p01, rover_p02)
        assert sorted(models) == sorted(pins)
        got = {name: search_record(m) for name, m in models.items()}
        drifted = [(name, got[name], pins[name]) for name in models if got[name] != pins[name]]
        assert drifted == []


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


class TestValidatePlan:
    def test_valid_plan(self):
        result = validate_plan(("one", "two"), chain_model())
        assert result.ok
        assert result.failed_index is None

    def test_precondition_violation_reports_step(self):
        result = validate_plan(("two", "one"), chain_model())
        assert not result.ok
        assert result.failed_index == 0
        assert "two" in result.message

    def test_unreached_goal_reported(self):
        result = validate_plan(("one",), chain_model())
        assert not result.ok
        assert "goal" in result.message.lower()
