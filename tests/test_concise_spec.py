"""Both explanation modes against their oracles where change order matters.

Most instances come from ``constrained_reconciliation``: some pool changes
raise :class:`InvalidEditError` until another change has been applied, so
the searches must route around subsets whose compiled edit reports an
add/delete overlap.  Those edits are checked against ``apply_change`` on
every subset and order.  Concise completeness checks refute models with
earlier planner calls' cheaper plans, and progressive infers the optimal
cost and plans of cost-raising children from their parents, so both are
also checked against planning every model.  The inert pool changes the
searches leave out are checked to change no plan on every subset.  The
work of each mode is bounded on a rover instance, including how few
:class:`Model` objects the search builds.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pegplan.explain as explain
from pegplan import (
    MetricKind,
    PerturbSpec,
    ReconciliationProblem,
    SearchInstrument,
    generate_concise,
    generate_progressive,
    perturb_model,
)
from pegplan.metrics import heuristic
from pegplan.model import InvalidEditError, apply_change
from pegplan.planner import apply_edit, compile_edits, compile_model

from oracles import (
    constrained_reconciliation,
    exhaustive_concise,
    exhaustive_min_effort,
    planned_is_complete,
    random_reconciliation,
    simulated_cost,
    subset_model,
    uniform_cost_plan,
)


def _count_derivations(monkeypatch) -> Counter:
    """Count the searches' ``apply_change`` calls (each builds a Model), the
    edits they derive nodes and trace steps with, and the invalid subsets
    those edits meet."""
    counts = Counter()
    original_change = explain.apply_change
    original_edit = explain.apply_edit

    def counting_change(model, change):
        counts["apply_change"] += 1
        return original_change(model, change)

    def counting_edit(state, edit):
        counts["edits"] += 1
        child = original_edit(state, edit)
        counts["invalid"] += child is None
        return child

    monkeypatch.setattr(explain, "apply_change", counting_change)
    monkeypatch.setattr(explain, "apply_edit", counting_edit)
    return counts


def _orders_agree(human, order) -> object:
    """Apply ``order``, a sequence of (change, edit) pairs, with
    ``apply_change`` and with compiled edits; both must stop at the same
    step.  Returns the compiled model, or None when some step is invalid."""
    model, state = human, compile_model(human)
    for change, edit in order:
        state = apply_edit(state, edit)
        try:
            model = apply_change(model, change)
        except InvalidEditError:
            assert state is None, change.render()
            return None
        assert state == compile_model(model), change.render()
    return state


def test_compiled_edits_agree_with_apply_change_on_every_subset():
    """Every order of every pool subset: an edit is invalid exactly where
    ``apply_change`` raises, every valid order ends in the compiled subset
    model, and a subset has no valid order exactly when it has no model."""
    rng = random.Random(59)
    invalid = 0
    for i in range(150):
        make = random_reconciliation if i % 2 else constrained_reconciliation
        problem = make(rng)
        pool = sorted(problem.pool)
        pairs = list(zip(pool, compile_edits(problem.human, pool, problem._bits)))
        for r in range(len(pairs) + 1):
            for subset in itertools.combinations(pairs, r):
                model = subset_model(problem.human, [change for change, _ in subset])
                want = None if model is None else compile_model(model)
                ends = {
                    _orders_agree(problem.human, order)
                    for order in itertools.permutations(subset)
                }
                if want is None:
                    assert ends == {None}
                    invalid += 1
                else:
                    assert want in ends and ends <= {want, None}
    assert invalid > 0


def test_concise_is_the_lexicographically_smallest_minimum_explanation(monkeypatch):
    counts = _count_derivations(monkeypatch)
    rng = random.Random(1)
    for _ in range(1000):
        problem = constrained_reconciliation(rng)
        trace = generate_concise(problem)
        assert trace.complete
        assert trace.changes == exhaustive_concise(problem)
    assert counts["invalid"] > 0


def test_progressive_reaches_minimum_effort_around_invalid_edits(monkeypatch):
    counts = _count_derivations(monkeypatch)
    rng = random.Random(29)
    for _ in range(120):
        problem = constrained_reconciliation(rng)
        for metric in (MetricKind.P1, MetricKind.P2):
            trace = generate_progressive(
                problem, metric=metric, variant="safe", epsilon=Fraction(0)
            )
            assert trace.complete
            assert trace.sum_rho == exhaustive_min_effort(problem, metric.value)
    assert counts["invalid"] > 0


def test_witness_refutation_agrees_with_planning_every_model(monkeypatch):
    """Every valid subset, in shuffled order on one problem, so that the
    witnesses of earlier subsets are tried on later ones."""
    planned = Counter()
    original = explain.optimal_plan

    def counting(model, **kwargs):
        planned["calls"] += 1
        return original(model, **kwargs)

    monkeypatch.setattr(explain, "optimal_plan", counting)
    rng = random.Random(43)
    refuted = 0
    for i in range(2000):
        make = random_reconciliation if i % 2 else constrained_reconciliation
        problem = make(rng)
        pool = sorted(problem.pool)
        subsets = [c for r in range(len(pool) + 1) for c in itertools.combinations(pool, r)]
        rng.shuffle(subsets)
        for subset in subsets:
            model = subset_model(problem.human, subset)
            if model is None:
                continue
            before = planned["calls"]
            got = problem.is_complete_model(model)
            assert got == planned_is_complete(problem, model), [c.render() for c in subset]
            at_target = problem.target_plan_cost(model) == problem.robot_plan.cost
            if at_target and not got and planned["calls"] == before:
                refuted += 1  # answered by a witness, not by the planner
    assert refuted > 0


def test_inert_changes_change_no_plan_and_enter_no_explanation():
    """Every valid subset S and every inert pool change c with S + c valid:
    both models, planned fresh, have the same cost*, canonical plan and
    robot-plan cost.  No explanation of either search holds an inert change,
    also progressive at epsilon 0."""
    rng = random.Random(61)
    inert_seen = 0
    for i in range(300):
        make = random_reconciliation if i % 2 else constrained_reconciliation
        problem = make(rng)
        pool = sorted(problem.pool)
        inert = [c for c in pool if c not in problem._changes]
        inert_seen += len(inert)
        planned = {}
        for r in range(len(pool) + 1):
            for subset in itertools.combinations(pool, r):
                model = subset_model(problem.human, subset)
                if model is not None:
                    planned[frozenset(subset)] = (
                        uniform_cost_plan(model),
                        simulated_cost(problem.robot_plan.actions, model),
                    )
        for subset, info in planned.items():
            for change in inert:
                extended = planned.get(subset | {change})
                if change not in subset and extended is not None:
                    assert extended == info, (i, change.render())
        traces = [generate_concise(problem)]
        for metric in MetricKind:
            for epsilon in (Fraction(0), explain.DEFAULT_EPSILON):
                traces.append(generate_progressive(problem, metric=metric, epsilon=epsilon))
        for trace in traces:
            assert not set(trace.changes) & set(inert), i
    assert inert_seen > 0


def test_every_lattice_plan_is_a_plan_of_the_most_relaxed_model():
    """The floor's proof obligation (see ``ReconciliationProblem``): on every
    lattice model M, an action sequence that runs in M from a state s runs
    in the most relaxed model M_r from every superset of s, at no greater
    cost, keeping M_r's state a superset of M's, and M_r's goal holds
    wherever M's does.  So M's plans are plans of M_r, and the p2 and p4
    floors lie below cost* and the plans' lengths of every solvable M."""
    rng = random.Random(67)
    runs = 0
    for i in range(300):
        make = random_reconciliation if i % 2 else constrained_reconciliation
        problem = make(rng)
        relaxed = problem._relaxed
        relaxed_ops = {op[4]: op for op in relaxed.ops}
        full = (1 << len(problem.human.facts)) - 1
        c_min = problem._c_min(MetricKind.P2)
        length_floor = problem._c_min(MetricKind.P4)
        pool = sorted(problem.pool)
        for r in range(len(pool) + 1):
            for subset in itertools.combinations(pool, r):
                model = subset_model(problem.human, subset)
                if model is None:
                    continue
                state = compile_model(model)
                sequences = [rng.choices([a.name for a in model.actions], k=6) for _ in range(3)]
                starts = [rng.randrange(full + 1) for _ in sequences]
                planned = uniform_cost_plan(model)
                if planned is not None:
                    cost, plan = planned
                    assert c_min <= cost, (i, [c.render() for c in subset])
                    for actions in (plan, problem.anchored_plan(model)):
                        assert length_floor <= len(actions)
                    sequences.append(plan)
                    starts.append(state.init)
                for actions, start in zip(sequences, starts):
                    low, high = start, start | rng.randrange(full + 1)
                    spent = relaxed_spent = 0
                    ops = {op[4]: op for op in state.ops}
                    for name in actions:
                        pre, add, keep, cost, _ = ops[name]
                        if low & pre != pre:
                            break
                        low = (low & keep) | add
                        pre, add, keep, relaxed_cost, _ = relaxed_ops[name]
                        assert high & pre == pre
                        high = (high & keep) | add
                        spent += cost
                        relaxed_spent += relaxed_cost
                        assert low & ~high == 0 and relaxed_spent <= spent
                    if low & state.goal == state.goal:
                        assert high & relaxed.goal == relaxed.goal
                    runs += 1
    assert runs > 0


ROVER_P02_S7_CONCISE = [
    "add communicate_image_data-rover0-general-objective0-high_res-w1-w0"
    "-has-add-effect-communicated_image_data(objective0,high_res)",
    "add communicate_image_data-rover0-general-objective0-high_res-w1-w0"
    "-has-precondition-have_image(rover0,objective0,high_res)",
    "add communicate_soil_data-rover0-general-w0-w1-w0-has-precondition-have_soil_analysis(rover0,w0)",
    "add navigate-rover0-w2-w1-has-precondition-at(rover0,w2)",
    "add sample_rock-rover0-store0-w1-has-add-effect-have_rock_analysis(rover0,w1)",
]


def test_concise_work_on_rover_p02(rover_p02, monkeypatch):
    """Pool of 19 with 11 relevant changes, 816 expansions: witnesses answer
    almost every completeness check, only dequeued nodes derive their
    compiled model, and a Model is built only for each trace step."""
    counts = _count_derivations(monkeypatch)
    human, _, _ = perturb_model(rover_p02, PerturbSpec(0.2, 7))
    trace = generate_concise(ReconciliationProblem(rover_p02, human))
    assert [c.render() for c in trace.changes] == ROVER_P02_S7_CONCISE
    assert trace.expansions == 816
    assert trace.planner_calls <= 20
    assert counts["apply_change"] <= len(trace.steps)
    # one edit for each dequeued node but the root, invalid ones included,
    # and one for each trace step but the first
    assert counts["edits"] == trace.expansions - 1 + counts["invalid"] + len(trace.changes)


def _record_nodes(monkeypatch) -> list:
    """Every node progressive creates (concise makes no `_Node`s), the root
    and each scored child."""
    nodes = []
    original = explain._Node

    def recording(*args):
        node = original(*args)
        nodes.append(node)
        return node

    monkeypatch.setattr(explain, "_Node", recording)
    return nodes


def test_progressive_inference_agrees_with_planning_every_model(monkeypatch):
    """Every expanded node's h equals the h of its planned model, at the
    floor c_min of the problem's most relaxed model, and every node's info,
    generated or expanded, equals the planner's: cost*, the anchored plan
    and the canonical plan, also where the search inferred them without
    planning."""
    created = _record_nodes(monkeypatch)
    rng = random.Random(47)
    unplanned = 0
    inferred = 0
    for i in range(200):
        if i % 2:
            problem = random_reconciliation(rng, max_delta=6)
        else:
            problem = constrained_reconciliation(rng)
        fresh = ReconciliationProblem(problem.robot, problem.human, problem.robot_plan)
        target = problem.robot_plan
        for variant in ("paper", "safe"):
            for metric in MetricKind:
                expanded = []
                created.clear()
                generate_progressive(
                    problem, metric=metric, variant=variant,
                    instrument=SearchInstrument(
                        on_node=lambda model, h, seq: expanded.append((model, h, len(seq)))
                    ),
                )
                floored = metric in (MetricKind.P2, MetricKind.P4)
                c_min = fresh._c_min(metric) if floored else 0
                for model, h, size in expanded:
                    unplanned += compile_model(model) not in problem._plan_cache
                    cost, plan, _ = fresh._cost_and_plan(model)
                    remaining = len(problem._changes) - size
                    expected = heuristic(
                        metric, variant, (cost, plan), (target.cost, target.actions), remaining,
                        c_min,
                    )
                    assert h == expected, (i, metric, variant)
                for node in created:
                    assert node.info == fresh._cost_and_plan(node.state), (i, metric, variant)
                    if node.info[2] is not None and node.state not in problem._plan_cache:
                        inferred += 1  # solvable, and its info proven without planning
    assert unplanned > 0 and inferred > 0


ROVER_P01_S1_PROGRESSIVE = [
    "add calibrate-rover0-camera0-objective0-w0-has-add-effect-calibrated(camera0,rover0)",
    "add communicate_rock_data-rover0-general-w2-w1-w0-has-add-effect-communicated_rock_data(w2)",
    "add communicate_soil_data-rover0-general-w1-w1-w0-has-add-effect-communicated_soil_data(w1)",
]


def test_progressive_work_on_rover_p01(rover_p01, monkeypatch):
    """Pool of 12 with 3 relevant changes, 8 expansions: each subset is
    derived once, cost-raising children of unsolvable or unchanged parents
    are not planned, and a Model is built only for each trace step."""
    counts = _count_derivations(monkeypatch)
    human, _, _ = perturb_model(rover_p01, PerturbSpec(0.14, 1))
    problem = ReconciliationProblem(rover_p01, human)
    trace = generate_progressive(problem, metric=MetricKind.P2)
    assert [c.render() for c in trace.changes] == ROVER_P01_S1_PROGRESSIVE
    assert trace.sum_rho == 121
    assert trace.expansions == 8
    assert trace.planner_calls <= 9
    assert counts["apply_change"] <= len(trace.steps)
    # at most one edit for each subset but the root, and one for each trace
    # step but the first: none of them is invalid
    assert counts["invalid"] == 0
    assert counts["edits"] < 2 ** len(problem._changes) + len(trace.changes)
