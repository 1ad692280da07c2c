"""Step-effort metrics and search-heuristic tests."""

import itertools
import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, strategies as st

from pegplan import (
    MetricKind,
    ReconciliationProblem,
    generate_concise,
    generate_progressive,
    heuristic,
    plan_edit_distance,
    rho,
)
from pegplan.metrics import balanced_bound

from oracles import levenshtein_recursive, random_action_sequence, random_reconciliation

ACTIONS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=7).map(tuple)


def step(prev_cost=0, cur_cost=0, prev_plan=(), cur_plan=()):
    """rho's (prev, cur) pairs."""
    return (prev_cost, prev_plan), (cur_cost, cur_plan)


def node(cur_cost=0, cur_plan=(), target_plan=(), target_cost=0):
    """heuristic's (cur, target) pairs."""
    return (cur_cost, cur_plan), (target_cost, target_plan)


class TestMetricKind:
    @pytest.mark.parametrize("name", ["p9", "P2"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ValueError):
            MetricKind(name)


class TestRho:
    def test_p1_is_absolute_cost_difference(self):
        assert rho(MetricKind.P1, *step(prev_cost=5, cur_cost=10)) == 5
        assert rho(MetricKind.P1, *step(prev_cost=10, cur_cost=9)) == 1

    def test_p2_is_squared_cost_difference(self):
        assert rho(MetricKind.P2, *step(prev_cost=5, cur_cost=10)) == 25

    def test_p3_is_plan_edit_distance(self):
        c = step(prev_plan=("go", "eat"), cur_plan=("go", "nap", "eat"))
        assert rho(MetricKind.P3, *c) == 1

    def test_p4_is_squared_edit_distance(self):
        c = step(prev_plan=("go", "eat"), cur_plan=("fly",))
        assert rho(MetricKind.P4, *c) == 4

    def test_no_change_costs_nothing(self):
        c = step(prev_cost=7, cur_cost=7, prev_plan=("x",), cur_plan=("x",))
        for kind in MetricKind:
            assert rho(kind, *c) == 0


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ((), (), 0),
            (("x",), (), 1),
            (("a", "b", "c"), ("a", "b", "c"), 0),
            (("a", "b"), ("b", "a"), 2),
            (("a", "b", "c"), ("a", "x", "c"), 1),
            (("a",), ("a", "b", "c"), 2),
        ],
    )
    def test_known_distances(self, a, b, d):
        assert plan_edit_distance(a, b) == d

    def test_matches_recursive_oracle_on_random_pairs(self):
        rng = random.Random(14)
        alphabet = ["a", "b", "c"]
        for _ in range(300):
            a = random_action_sequence(rng, alphabet)
            b = random_action_sequence(rng, alphabet)
            assert plan_edit_distance(a, b) == levenshtein_recursive(a, b)

    @given(ACTIONS, ACTIONS)
    def test_symmetry(self, a, b):
        assert plan_edit_distance(a, b) == plan_edit_distance(b, a)

    @given(ACTIONS, ACTIONS)
    def test_zero_iff_equal(self, a, b):
        assert (plan_edit_distance(a, b) == 0) == (a == b)

    @given(ACTIONS, ACTIONS, ACTIONS)
    def test_triangle_inequality(self, a, b, c):
        assert plan_edit_distance(a, c) <= plan_edit_distance(a, b) + plan_edit_distance(b, c)

    @given(ACTIONS, ACTIONS)
    def test_bounds(self, a, b):
        d = plan_edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


class TestHeuristic:
    def test_zero_gap_costs_nothing(self):
        c = node(cur_cost=9, target_cost=9)
        for kind in MetricKind:
            for variant in ("paper", "safe"):
                assert heuristic(kind, variant, *c, 3) == 0

    def test_linear_metrics_estimate_the_gap_itself(self):
        c = node(cur_cost=4, target_cost=9)
        assert heuristic(MetricKind.P1, "paper", *c, 3) == Fraction(5)
        assert heuristic(MetricKind.P1, "safe", *c, 3) == Fraction(5)

    def test_p3_uses_edit_distance_to_target_plan(self):
        c = node(cur_plan=("a", "b"), target_plan=("a", "c", "d"))
        assert heuristic(MetricKind.P3, "safe", *c, 2) == Fraction(2)

    def test_squared_metric_paper_variant_halves_square(self):
        c = node(cur_cost=4, target_cost=10)
        assert heuristic(MetricKind.P2, "paper", *c, 5) == Fraction(36, 2)

    def test_squared_metric_safe_variant_is_the_balanced_bound(self):
        # a gap of 6 in at most 4 integer steps: 2 + 2 + 1 + 1 at best
        c = node(cur_cost=4, target_cost=10)
        assert heuristic(MetricKind.P2, "safe", *c, 4) == Fraction(4 + 4 + 1 + 1)
        assert heuristic(MetricKind.P2, "safe", *c, 3) == Fraction(3 * 4)
        assert heuristic(MetricKind.P2, "safe", *c, 9) == Fraction(6)  # six unit steps
        p = node(cur_plan=("a",), target_plan=("b", "c", "d", "e"))  # edit distance 4
        assert heuristic(MetricKind.P4, "safe", *p, 3) == Fraction(4 + 1 + 1)

    def test_gap_with_no_remaining_changes_is_dead_end(self):
        c = node(cur_cost=4, target_cost=10)
        assert heuristic(MetricKind.P2, "safe", *c, 0) == inf

    def test_results_are_exact_rationals(self):
        c = node(cur_cost=0, target_cost=7)
        value = heuristic(MetricKind.P2, "safe", *c, 3)
        assert isinstance(value, Fraction)
        assert value == Fraction(9 + 4 + 4)  # 3 + 2 + 2
        assert heuristic(MetricKind.P2, "paper", *c, 3) == Fraction(49, 2)

    def test_floor_raises_a_node_at_value_zero_only(self):
        # unsolvable (cost 0), target 11, floor 4, one change left after the
        # next: the next solvable model costs c >= 4, then one step to 11
        unsolvable = node(cur_cost=0, target_cost=11)
        expected = min(c * c + (11 - c) ** 2 for c in range(4, 12))
        assert heuristic(MetricKind.P2, "safe", *unsolvable, 2, 4) == Fraction(expected)
        assert heuristic(MetricKind.P2, "safe", *unsolvable, 2) == Fraction(36 + 25)
        solvable = node(cur_cost=3, target_cost=11)
        assert heuristic(MetricKind.P2, "safe", *solvable, 2, 4) == Fraction(16 + 16)
        assert heuristic(MetricKind.P2, "paper", *unsolvable, 2, 4) == Fraction(121, 2)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            heuristic(MetricKind.P1, "fast", *node(), 1)


def _least_sum_of_squares(gap: int, moves: int) -> int | float:
    """Brute force: the least sum of squares of ``moves`` integers (a zero
    is a step not taken, and a negative one overshoots) that add up to ``gap``."""
    sums = [
        sum(d * d for d in split)
        for split in itertools.combinations_with_replacement(range(-1, gap + 2), moves)
        if sum(split) == gap
    ]
    return min(sums, default=inf)


class TestBalancedBound:
    def test_equals_the_brute_force_minimum(self):
        for gap in range(16):
            for moves in range(7):
                assert balanced_bound(gap, moves) == _least_sum_of_squares(gap, moves), (gap, moves)

    def test_safe_p2_is_consistent_on_every_edge(self):
        """h(parent) <= step effort + h(child) for every p2 edge between
        solvable nodes (cost >= the floor) and unsolvable ones (cost 0), each
        step spending one remaining change, and h is 0 at the target."""
        for target in range(13):
            for c_min in range(14):
                solvable = range(c_min, target + 6)
                values = sorted({0, *solvable})
                h = {
                    (v, k): heuristic(MetricKind.P2, "safe", (v, ()), (target, ()), k, c_min)
                    for v in values
                    for k in range(8)
                }
                for k in range(8):
                    if target >= c_min:
                        assert h[target, k] == 0
                for k in range(1, 8):
                    for parent in values:
                        for child in values:
                            step = (parent - child) ** 2
                            assert h[parent, k] <= step + h[child, k - 1], (
                                target, c_min, k, parent, child,
                            )

    def test_safe_p4_is_consistent_on_random_plans(self):
        rng = random.Random(19)
        for _ in range(3000):
            target = random_action_sequence(rng, "abc", 6)
            parent = random_action_sequence(rng, "abc", 6)
            child = random_action_sequence(rng, "abc", 6)
            plans = [parent, child, target]
            c_min = rng.randint(0, min(len(p) for p in plans if p) if any(plans) else 0)
            k = rng.randint(1, 6)
            step = plan_edit_distance(parent, child) ** 2
            h_parent = heuristic(MetricKind.P4, "safe", (0, parent), (0, target), k, c_min)
            h_child = heuristic(MetricKind.P4, "safe", (0, child), (0, target), k - 1, c_min)
            assert h_parent <= step + h_child, (parent, child, target, c_min, k)


class TestMetricMustBeAKind:
    """A metric name is not a metric: it used to be scored as p4."""

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4"])
    def test_rho_rejects_a_name(self, name):
        with pytest.raises(ValueError, match="unknown metric"):
            rho(name, *step(prev_cost=5, cur_cost=10, cur_plan=("a",)))

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4"])
    def test_heuristic_rejects_a_name(self, name):
        with pytest.raises(ValueError, match="unknown metric"):
            heuristic(name, "safe", *node(cur_cost=4, target_cost=10, target_plan=("a",)), 3)

    @pytest.mark.parametrize("generate", [generate_progressive, generate_concise])
    def test_searches_reject_a_name(self, errand_fixture_pair, generate):
        problem = ReconciliationProblem(*errand_fixture_pair)
        with pytest.raises(ValueError, match="unknown metric"):
            generate(problem, metric="p1")

    def test_searches_score_each_kind(self, errand_fixture_pair):
        problem = ReconciliationProblem(*errand_fixture_pair)
        assert generate_progressive(problem, metric=MetricKind.P1).sum_rho == 6
        assert generate_progressive(problem, metric=MetricKind.P2).sum_rho == 26
        concise = generate_concise(problem, metric=MetricKind.P1)
        assert concise.metric is MetricKind.P1
        assert concise.sum_rho == concise.sum_rho_for(MetricKind.P1)
        rng = random.Random(23)
        for i in range(30):
            problem = random_reconciliation(rng)
            for kind in MetricKind:
                for trace in (
                    generate_progressive(problem, metric=kind),
                    generate_concise(problem, metric=kind),
                ):
                    assert trace.metric is kind
                    assert trace.sum_rho == trace.sum_rho_for(kind), (i, kind, trace.mode)
                    assert trace.steps[0].rho == 0
                    for prev, cur in zip(trace.steps, trace.steps[1:]):
                        pairs = (prev.cost_star, prev.plan), (cur.cost_star, cur.plan)
                        assert cur.rho == rho(kind, *pairs), (i, kind, trace.mode, cur.index)
