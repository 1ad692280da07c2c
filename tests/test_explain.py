"""Reconciliation-problem and explanation-search tests."""

import random
from collections import Counter
from fractions import Fraction
from math import inf

import pytest

from pegplan import (
    BudgetExceededError,
    Fact,
    FeatureKind,
    GroundAction,
    MetricKind,
    Model,
    ModelError,
    PerturbSpec,
    ReconciliationError,
    ReconciliationProblem,
    SearchInstrument,
    UniverseMismatchError,
    generate_concise,
    generate_progressive,
    is_complete,
    is_explanation,
    optimal_plan,
    parse_change,
    perturb_model,
)

from pegplan import explain, planner
from pegplan.metrics import heuristic, rho

from oracles import (
    constrained_reconciliation,
    exhaustive_min_effort,
    gamma_digest,
    gamma_is_explanation,
    random_edit,
    random_reconciliation,
    simulated_cost,
    subset_model,
    uniform_cost_plan,
)

P, G = Fact("p"), Fact("g")


def errand_problem(errand_pair) -> ReconciliationProblem:
    robot, human = errand_pair
    return ReconciliationProblem(robot, human)


class TestProblemConstruction:
    def test_action_universe_mismatch_rejected(self, errand_pair):
        robot, _ = errand_pair
        other = Model(
            frozenset({P, G}),
            (GroundAction("a", frozenset(), frozenset({G}), frozenset(), 1),),
            frozenset({P}),
            frozenset({G}),
        )
        with pytest.raises(UniverseMismatchError):
            ReconciliationProblem(robot, other)

    def test_zero_budget_fails_when_built(self, errand_pair):
        # construction plans the robot model, under the problem's budget
        with pytest.raises(
            BudgetExceededError, match="^optimal-plan search exceeded the node budget of 0$"
        ):
            ReconciliationProblem(*errand_pair, node_budget=0)

    def test_robot_plan_is_reused_by_the_budget_rule(self, rover_p01, monkeypatch):
        human, _, _ = perturb_model(rover_p01, PerturbSpec(0.1, 0))
        robot = rover_p01._replace()  # a robot object no problem has planned
        ReconciliationProblem(robot, human)
        expansions = optimal_plan(robot).expansions
        planned = []

        def counted(*args, **kwargs):
            planned.append(args)
            return optimal_plan(*args, **kwargs)

        def build(robot, budget):
            planned.clear()
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(explain, "optimal_plan", counted)
                    problem = ReconciliationProblem(robot, human, node_budget=budget)
            except BudgetExceededError as exc:
                return str(exc), len(planned)
            trace = generate_concise(problem)
            return (problem.robot_plan, problem.planner_calls(), trace.planner_calls), len(planned)

        for budget in (0, expansions - 1, expansions, expansions + 1, None):
            reused, replanned = build(robot, budget)
            assert reused == build(rover_p01._replace(), budget)[0], budget
            if budget is not None and budget < expansions:
                assert reused == f"optimal-plan search exceeded the node budget of {budget}"
                assert replanned == 1
            else:
                assert replanned == 0

    def test_unsolvable_robot_rejected(self, errand_pair):
        robot, human = errand_pair
        bad = Model(robot.facts, robot.actions, frozenset(), frozenset({Fact("not-holiday")}))
        with pytest.raises(ReconciliationError, match="unsolvable"):
            ReconciliationProblem(bad, human)

    def test_infeasible_robot_plan_rejected(self, errand_pair):
        robot, human = errand_pair
        with pytest.raises(ReconciliationError, match="infeasible"):
            ReconciliationProblem(robot, human, robot_plan=("outlet-shopping",))

    def test_suboptimal_robot_plan_rejected(self, errand_pair):
        robot, human = errand_pair
        with pytest.raises(ReconciliationError, match="costs 10"):
            ReconciliationProblem(robot, human, robot_plan=("visit-park",))

    def test_fact_universes_are_merged(self, errand_pair):
        robot, human = errand_pair
        smaller = Model(
            frozenset({Fact("happy"), Fact("not-holiday")}),
            (
                GroundAction("outlet-shopping", frozenset({Fact("not-holiday")}), frozenset({Fact("happy")}), frozenset(), 5),
                GroundAction("outlet-shopping-cheap", frozenset({Fact("not-holiday")}), frozenset({Fact("happy")}), frozenset(), 1),
                GroundAction("visit-park", frozenset(), frozenset({Fact("happy")}), frozenset(), 10),
                GroundAction("visit-park-cheap", frozenset(), frozenset({Fact("happy")}), frozenset(), 9),
            ),
            frozenset({Fact("not-holiday")}),
            frozenset({Fact("happy")}),
        )
        problem = ReconciliationProblem(robot, smaller)
        assert problem.human.facts == robot.facts

    def test_pool_is_the_model_difference(self, errand_pair):
        problem = errand_problem(errand_pair)
        assert sorted(c.render() for c in problem.pool) == [
            "add init-has-car-ready",
            "add init-has-is-sunny",
            "remove init-has-not-holiday",
        ]


class TestOneFactEncoding:
    def test_a_problem_sorts_its_fact_universe_once(self, rover_p01, monkeypatch):
        """A problem with a given robot plan, its progressive and concise
        searches, both predicates on their answers and each public query on
        a Model sort the fact universe once, for the problem's one encoding:
        robot, human, edits, trace steps and queries all compile against it.
        Counting the planner module's ``sorted`` calls counts those sorts."""
        human, _, _ = perturb_model(rover_p01, PerturbSpec(0.14, 1))
        robot_plan = optimal_plan(rover_p01).plan
        sorts = Counter()

        def counting_sorted(*args, **kwargs):
            sorts["calls"] += 1
            return sorted(*args, **kwargs)

        monkeypatch.setattr(planner, "sorted", counting_sorted, raising=False)
        problem = ReconciliationProblem(rover_p01, human, robot_plan)
        for trace in (generate_progressive(problem), generate_concise(problem)):
            assert trace.changes and trace.complete
            assert is_explanation(problem, trace.changes)
            assert is_complete(problem, trace.changes)
        for model in (problem.human, problem.robot):
            problem.plan_result(model)
            problem.cost_gap(model)
            problem.is_complete_model(model)
            problem._cost_and_plan(model)
        assert sorts["calls"] == 1


class TestGapAndAnchoring:
    def test_gap_is_zero_on_the_robot_model(self, errand_pair):
        problem = errand_problem(errand_pair)
        assert problem.cost_gap(problem.robot) == 0

    def test_gap_is_infinite_when_plan_infeasible(self, errand_pair):
        problem = errand_problem(errand_pair)
        assert problem.cost_gap(problem.human) == inf

    def test_anchored_plan_prefers_the_robot_plan_among_optima(self, errand_pair):
        problem = errand_problem(errand_pair)
        assert problem._cost_and_plan(problem.robot)[1] == problem.robot_plan.actions

    def test_anchored_plan_falls_back_to_canonical_optimum(self, errand_pair):
        problem = errand_problem(errand_pair)
        assert problem._cost_and_plan(problem.human)[1] == ("outlet-shopping",)


class TestExplanationPredicates:
    def test_empty_change_list_is_not_an_explanation(self, errand_pair):
        assert not is_explanation(errand_problem(errand_pair), [])

    def test_single_changes_do_not_shrink_an_infinite_gap(self, errand_pair):
        problem = errand_problem(errand_pair)
        for change in problem.pool:
            assert not is_explanation(problem, [change])

    def test_partial_pair_is_an_explanation_but_incomplete(self, errand_pair):
        problem = errand_problem(errand_pair)
        pair = [parse_change("add init-has-car-ready"), parse_change("add init-has-is-sunny")]
        assert is_explanation(problem, pair)
        assert not is_complete(problem, pair)

    def test_full_difference_is_complete(self, errand_pair):
        problem = errand_problem(errand_pair)
        changes = sorted(problem.pool, key=lambda c: c.render())
        assert is_explanation(problem, changes)
        assert is_complete(problem, changes)

    def test_changes_outside_the_robot_model_are_rejected(self, errand_pair):
        problem = errand_problem(errand_pair)
        full = sorted(problem.pool, key=lambda c: c.render())
        # goal-has-not-holiday is true in neither model: stating it is untrue content
        assert not is_explanation(problem, full + [parse_change("add goal-has-not-holiday")])

    def test_identical_models_are_complete_with_no_changes(self, errand_pair):
        robot, _ = errand_pair
        problem = ReconciliationProblem(robot, robot)
        assert is_complete(problem, [])
        assert not is_explanation(problem, [])

    def test_is_explanation_agrees_with_its_feature_set_definition(self):
        """Random pool subsets in random order, some with off-pool edits of
        the human model appended: ``is_explanation`` (a delta against the
        pool) and the gamma-set oracle agree, also on the lists that raise."""
        rng = random.Random(71)
        outcomes = Counter()
        for i in range(600):
            make = random_reconciliation if i % 2 else constrained_reconciliation
            problem = make(rng)
            pool = sorted(problem.pool)
            for _ in range(5):
                changes = rng.sample(pool, rng.randint(0, len(pool)))
                for _ in range(rng.choice((0, 0, 1, 2))):
                    extra = random_edit(rng, problem.human)
                    if extra is not None and extra not in changes:
                        changes.insert(rng.randint(0, len(changes)), extra)
                try:
                    want = gamma_is_explanation(problem, changes)
                except ModelError as exc:
                    with pytest.raises(type(exc)):
                        is_explanation(problem, changes)
                    outcomes["raised"] += 1
                    continue
                assert is_explanation(problem, changes) == want, [c.render() for c in changes]
                outcomes[want, bool(set(changes) - problem.pool)] += 1
        assert outcomes[True, False] and outcomes[False, False] and outcomes[False, True]
        assert outcomes["raised"]


class TestCandidateOrdering:
    def test_cost_raising_changes_come_first_below_target(self, errand_pair):
        problem = errand_problem(errand_pair)
        # the root is at or below the target cost, so the search takes this order
        assert problem._cost_and_plan(problem.human)[0] <= problem.robot_plan.cost
        assert [problem._changes[i].render() for i in problem._raising_first] == [
            "remove init-has-not-holiday",
            "add init-has-car-ready",
            "add init-has-is-sunny",
        ]

    def test_pure_lexicographic_order_above_target(self, errand_pair):
        robot, human = errand_pair
        problem = ReconciliationProblem(robot, human)
        # past the target cost, the special-casing of raisers disappears
        applied = [
            parse_change("remove init-has-not-holiday"),
            parse_change("add init-has-car-ready"),
        ]
        above = problem.apply_changes(applied)
        assert problem._cost_and_plan(above)[0] > problem.robot_plan.cost
        mask = sum(1 << problem._changes.index(c) for c in applied)
        ordered = [i for i in problem._feature_order if not mask >> i & 1]
        assert [problem._changes[i].render() for i in ordered] == ["add init-has-is-sunny"]


class TestProgressive:
    def test_errand_cost_trajectory_and_order(self, errand_pair):
        trace = generate_progressive(errand_problem(errand_pair), metric=MetricKind.P1)
        assert [c.render() for c in trace.changes] == [
            "remove init-has-not-holiday",
            "add init-has-car-ready",
            "add init-has-is-sunny",
        ]
        assert [s.cost_star for s in trace.steps] == [5, 10, 10, 9]
        assert [s.rho for s in trace.steps] == [0, 5, 0, 1]
        assert trace.sum_rho == 6
        assert trace.complete
        assert trace.mode == "peg"

    @pytest.mark.parametrize(
        "metric,expected",
        [(MetricKind.P1, 6), (MetricKind.P2, 26), (MetricKind.P3, 2), (MetricKind.P4, 2)],
    )
    def test_errand_minimal_effort_per_metric(self, errand_pair, metric, expected):
        problem = errand_problem(errand_pair)
        trace = generate_progressive(problem, metric=metric, epsilon=Fraction(0))
        assert trace.sum_rho == expected
        assert trace.sum_rho == exhaustive_min_effort(problem, metric.value)

    def test_paper_and_safe_variants_agree_on_the_errand(self, errand_pair):
        problem = errand_problem(errand_pair)
        for metric in MetricKind:
            a = generate_progressive(problem, metric=metric, variant="paper")
            b = generate_progressive(problem, metric=metric, variant="safe")
            assert a.sum_rho == b.sum_rho

    def test_identical_models_yield_an_empty_trace(self, errand_pair):
        robot, _ = errand_pair
        trace = generate_progressive(ReconciliationProblem(robot, robot))
        assert trace.size == 0
        assert trace.sum_rho == 0
        assert trace.complete
        assert len(trace.steps) == 1

    def test_an_empty_robot_plan_is_not_met_by_an_unsolvable_model(self):
        # The robot's goal holds in its init, so its plan is () at cost 0.
        # The human lacks that init fact and cannot reach g.  An unsolvable
        # model also reads cost 0 and plan (), so a completeness test that
        # ignored solvability would return the empty explanation.
        action = GroundAction("a", frozenset({P}), frozenset({G}), frozenset(), 1)
        robot = Model(frozenset({P, G}), (action,), frozenset({G}), frozenset({G}))
        human = Model(frozenset({P, G}), (action,), frozenset(), frozenset({G}))
        problem = ReconciliationProblem(robot, human)
        assert problem.robot_plan.actions == () and problem.robot_plan.cost == 0
        for metric in MetricKind:
            trace = generate_progressive(problem, metric=metric)
            assert [c.render() for c in trace.changes] == ["add init-has-g"], metric
            assert trace.complete and not trace.steps[0].solvable

    def test_final_step_lands_on_the_robot_plan(self, errand_pair):
        problem = errand_problem(errand_pair)
        for metric in MetricKind:
            trace = generate_progressive(problem, metric=metric)
            assert trace.steps[-1].plan == problem.robot_plan.actions
            assert trace.steps[-1].cost_star == problem.robot_plan.cost

    def test_inert_differences_are_not_explained(self, errand_pair):
        # both sides also know a daydream action gated on an unreachable
        # fact; they disagree on its effect, but no plan can ever use it,
        # so the per-change epsilon keeps it out of the explanation
        robot, human = errand_pair
        blocked = Fact("blocked")

        def extend(model: Model, effects: frozenset) -> Model:
            return Model(
                model.facts | {blocked},
                model.actions + (GroundAction("dream", frozenset({blocked}), effects, frozenset(), 1),),
                model.init,
                model.goal,
            )

        problem = ReconciliationProblem(
            extend(robot, frozenset({Fact("happy")})), extend(human, frozenset())
        )
        assert len(problem.pool) == 4
        trace = generate_progressive(problem, metric=MetricKind.P1)
        assert trace.size == 3
        assert trace.sum_rho == 6
        assert "dream-has-add-effect-happy" not in {c.feature.render() for c in trace.changes}

    def test_helpful_cost_misreads_are_used_to_smooth_the_ride(self, errand_pair):
        # the human also overprices visit-park; correcting that first makes
        # the cost trajectory gentler, so the search spends the extra change
        robot, human = errand_pair
        human2 = human.replace_action(
            GroundAction("visit-park", frozenset(), frozenset({Fact("happy")}), frozenset(), 11)
        )
        problem = ReconciliationProblem(robot, human2)
        assert len(problem.pool) == 4
        trace = generate_progressive(problem, metric=MetricKind.P1)
        assert trace.size == 4
        assert trace.sum_rho == 6  # the three-change route would cost 8

    def test_budget_is_enforced(self, errand_pair):
        # Each planner call here expands at most 2 nodes and the search 7,
        # so the problem's one budget of 2 stops the search alone.
        problem = ReconciliationProblem(*errand_pair, node_budget=2)
        with pytest.raises(
            BudgetExceededError, match="^progressive search exceeded the node budget of 2$"
        ):
            generate_progressive(problem)

    def test_negative_epsilon_rejected(self, errand_pair):
        with pytest.raises(ValueError, match="epsilon"):
            generate_progressive(errand_problem(errand_pair), epsilon=Fraction(-1, 2))

    def test_instrument_probes_fire(self, errand_pair):
        nodes, edges = [], []
        instrument = SearchInstrument(
            on_node=lambda model, h, seq: nodes.append((h, len(seq))),
            on_edge=lambda ph, step, ch: edges.append((ph, step, ch)),
        )
        generate_progressive(errand_problem(errand_pair), instrument=instrument)
        assert nodes and edges
        assert nodes[0][1] == 0  # first expansion is the unchanged human model

    def test_search_matches_exhaustive_oracle_on_random_instances(self):
        rng = random.Random(15)
        for _ in range(12):
            problem = random_reconciliation(rng, max_delta=4)
            for metric in (MetricKind.P1, MetricKind.P2):
                trace = generate_progressive(
                    problem, metric=metric, variant="safe", epsilon=Fraction(0)
                )
                assert trace.complete
                assert trace.sum_rho == exhaustive_min_effort(problem, metric.value)

    def test_effort_totals_never_beat_the_unordered_bound(self):
        # total |cost step| can never undercut the net start-to-end cost move
        rng = random.Random(16)
        for _ in range(10):
            problem = random_reconciliation(rng, max_delta=4)
            trace = generate_progressive(problem, metric=MetricKind.P1)
            net = abs(trace.steps[0].cost_star - trace.steps[-1].cost_star)
            assert trace.sum_rho >= net


class TestLowerNeighbourRule:
    """``generate_progressive`` does not plan a subset C that a known subset
    C - j decides, for a cost-raising change j in C.  These tests check that
    rule on plans alone, and that it spares most planner calls."""

    @staticmethod
    def _problems(rover_p01):
        rng = random.Random(61)
        for _ in range(60):
            yield constrained_reconciliation(rng)
        for seed in (3, 5):  # five relevant changes each, two or three raising
            human, _, _ = perturb_model(rover_p01, PerturbSpec(0.1, seed))
            yield ReconciliationProblem(rover_p01, human)

    @staticmethod
    def _anchored(problem, model, planned) -> tuple[str, ...]:
        """The anchored plan of ``model``, whose ``uniform_cost_plan`` is
        ``planned``: the robot plan when it is optimal there, else the
        canonical plan."""
        robot = problem.robot_plan.actions
        return robot if simulated_cost(robot, model) == planned[0] else planned[1]

    def test_a_lower_neighbour_decides_by_its_plans(self, rover_p01):
        decided = unsolvable = inherited = by_robot_plan = 0
        for problem in self._problems(rover_p01):
            changes = problem._changes
            models = {}
            for mask in range(1 << len(changes)):
                model = subset_model(
                    problem.human, [c for i, c in enumerate(changes) if mask >> i & 1]
                )
                if model is not None:
                    models[mask] = model, uniform_cost_plan(model)
            for mask, (model, plan) in models.items():
                for j in problem._raising:
                    if not mask >> j & 1 or mask ^ 1 << j not in models:
                        continue
                    below_model, below = models[mask ^ 1 << j]
                    if below is None:
                        unsolvable += 1
                        assert plan is None
                        continue
                    if simulated_cost(below[1], model) == below[0]:
                        decided += 1
                        assert plan == below
                    # C inherits C - j's info when C - j's anchored plan keeps
                    # its cost in C
                    anchored = self._anchored(problem, below_model, below)
                    if simulated_cost(anchored, model) == below[0]:
                        inherited += 1
                        by_robot_plan += anchored != below[1]
                        assert plan[0] == below[0]
                        assert self._anchored(problem, model, plan) == anchored
        assert decided > 100 and unsolvable > 10
        assert inherited > 100 and by_robot_plan > 0

    def test_rover_p02_plans_few_models(self, rover_p02):
        human, _, _ = perturb_model(rover_p02, PerturbSpec(0.2, 5))
        trace = generate_progressive(ReconciliationProblem(rover_p02, human))
        # a rule that asks only each child's parent plans 2,640 models here,
        # and one that tests C - j's canonical plan rather than its anchored
        # plan plans 75
        assert trace.planner_calls <= 70


class TestIntegerKeys:
    """Progressive's A* keys are integers scaled from the exact rationals;
    the search must find the same minimum effort at any epsilon, and the
    instrument must still see the heuristic's own Fractions."""

    @pytest.mark.parametrize(
        "epsilon", [Fraction(0), Fraction(1, 1000), Fraction(1, 10**9 + 7)], ids=str
    )
    def test_minimum_effort_and_instrument_values(self, epsilon, monkeypatch):
        returned = []

        def recording_heuristic(*args):
            h = heuristic(*args)
            returned.append(h)
            return h

        monkeypatch.setattr(explain, "heuristic", recording_heuristic)
        rng = random.Random(18)
        sizes = []
        for _ in range(30):
            problem = constrained_reconciliation(rng, max_pool=5)
            target = (problem.robot_plan.cost, problem.robot_plan.actions)
            n = len(problem._changes)
            sizes.append(n)
            for metric in MetricKind:
                returned.clear()
                seen = []
                popped_f = [Fraction(0)]

                def on_node(model, h, seq, _p=problem, _m=metric):
                    info = _p._cost_and_plan(model)
                    assert h == heuristic(_m, "safe", info, target, n - len(seq))
                    seen.append(h)
                    # a consistent h pops f = g + h in nondecreasing order
                    path = [_p._cost_and_plan(_p.apply_changes(seq[:k])) for k in range(len(seq))]
                    path.append(info)
                    g = sum(rho(_m, a, b) for a, b in zip(path, path[1:])) + epsilon * len(seq)
                    assert g + h >= popped_f[-1]
                    popped_f.append(g + h)

                def on_edge(parent_h, step_rho, child_h):
                    seen.extend((parent_h, child_h))

                trace = generate_progressive(
                    problem, metric=metric, variant="safe", epsilon=epsilon,
                    instrument=SearchInstrument(on_node=on_node, on_edge=on_edge),
                )
                assert trace.complete
                assert trace.sum_rho == exhaustive_min_effort(problem, metric.value)
                ids = {id(h) for h in returned}
                assert seen and all(id(h) in ids for h in seen)
                assert all(type(h) is Fraction for h in seen if h != inf)
        assert max(sizes) >= 4


class TestConcise:
    def test_errand_needs_all_three_changes(self, errand_pair):
        trace = generate_concise(errand_problem(errand_pair))
        assert trace.size == 3
        assert trace.complete
        assert trace.mode == "concise"

    def test_minimum_cardinality_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(12):
            problem = random_reconciliation(rng, max_delta=4)
            concise = generate_concise(problem)
            peg = generate_progressive(problem, metric=MetricKind.P2)
            assert concise.complete
            assert concise.size <= peg.size

    def test_budget_is_enforced(self, errand_pair):
        # Each planner call here expands at most 2 nodes and the search 8.
        problem = ReconciliationProblem(*errand_pair, node_budget=2)
        with pytest.raises(
            BudgetExceededError, match="^concise search exceeded the node budget of 2$"
        ):
            generate_concise(problem)


class TestTraceBookkeeping:
    def test_step_records_chain_digests(self, errand_pair):
        problem = errand_problem(errand_pair)
        trace = generate_progressive(problem, metric=MetricKind.P1)
        assert trace.steps[0].model_digest == problem.human.digest()
        assert trace.steps[-1].model_digest == problem.robot.digest()
        assert [s.index for s in trace.steps] == [0, 1, 2, 3]

    def test_step_digests_are_the_step_models_digests(
        self, rover_p01, rover_p02, errand_fixture_pair
    ):
        problems = [ReconciliationProblem(*errand_fixture_pair)]
        problems += [
            ReconciliationProblem(robot, perturb_model(robot, PerturbSpec(p, seed))[0])
            for robot, p in ((rover_p01, 0.1), (rover_p02, 0.2))
            for seed in range(4)
        ]
        rng = random.Random(29)
        problems += [random_reconciliation(rng) for _ in range(40)]
        cost_changes = 0
        for problem in problems:
            for trace in (generate_progressive(problem), generate_concise(problem)):
                for i, step in enumerate(trace.steps):
                    model = problem.apply_changes(trace.changes[:i])
                    assert step.model_digest == gamma_digest(model)
                cost_changes += sum(c.feature.kind is FeatureKind.COST for c in trace.changes)
        assert cost_changes > 0  # each replaces one cost feature string by another

    def test_sum_rho_for_recomputes_other_metrics(self, errand_pair):
        trace = generate_progressive(errand_problem(errand_pair), metric=MetricKind.P1)
        assert trace.sum_rho_for(MetricKind.P1) == trace.sum_rho == 6
        assert trace.sum_rho_for(MetricKind.P2) == 26

    def test_search_statistics_are_positive(self, errand_pair):
        trace = generate_progressive(errand_problem(errand_pair))
        assert trace.expansions > 0
        assert trace.generated > 0
        assert trace.planner_calls > 0
        assert trace.wall_time >= 0


class TestSearchIndependence:
    """A problem caches plans and witnesses across its searches; an
    explanation must not depend on them, only the work counts may."""

    SEARCHES = {
        "progressive p2": lambda p: generate_progressive(p, metric=MetricKind.P2),
        "progressive p4": lambda p: generate_progressive(p, metric=MetricKind.P4),
        "progressive p1 paper": lambda p: generate_progressive(
            p, metric=MetricKind.P1, variant="paper"
        ),
        "concise": generate_concise,
    }

    def _check(self, problem: ReconciliationProblem) -> None:
        for name, search in self.SEARCHES.items():
            fresh = ReconciliationProblem(problem.robot, problem.human, problem.robot_plan)
            shared, alone = search(problem), search(fresh)
            assert shared._replace(planner_calls=0, wall_time=0.0) == (
                alone._replace(planner_calls=0, wall_time=0.0)
            ), name

    @pytest.mark.parametrize("seed", range(6))
    def test_rover_p01(self, rover_p01, seed):
        human, _, _ = perturb_model(rover_p01, PerturbSpec(0.1, seed))
        self._check(ReconciliationProblem(rover_p01, human))

    def test_random_instances(self):
        rng = random.Random(53)
        for i in range(200):
            make = random_reconciliation if i % 2 else constrained_reconciliation
            self._check(make(rng))
