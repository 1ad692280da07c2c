"""Independent reference implementations used to cross-check the library.

Everything here deliberately uses different algorithms and data structures
than the package.  A plan's cost comes from simulating it over frozenset
states (the package simulates over bitmasks).  The canonical plan (cheapest, then shortest, then
lexicographically smallest by action names) comes from uniform-cost search
over frozenset states (no bitmasks, no reachability check), and for tiny
models also from enumerating action sequences by length in name order.
Edit distance comes from memoized recursion (not the iterative two-row
table), and minimal explanation effort and the concise explanation from
exhaustive enumeration of change orderings (no heuristic search, no subset
lattice).  A model's digest and the delta between two models come from
their full :func:`~pegplan.model.gamma` feature sets (the package renders
feature strings without features and diffs only the actions that differ),
and :func:`reconstruct` rebuilds a model from its feature set.  A perturbed
model comes from one :func:`~pegplan.apply_change` per removed feature,
drawn from the robot's feature set (the package draws from feature triples
and builds the model in one pass).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import inf
from typing import Iterable

from pegplan import (
    Fact,
    Feature,
    FeatureChange,
    GroundAction,
    Model,
    ModelError,
    PerturbSpec,
    ReconciliationProblem,
    apply_change,
    delta,
    UnknownActionError,
    optimal_plan,
)
from pegplan.model import ChangePreconditionError, FeatureKind, InvalidEditError, gamma


def gamma_digest(model: Model) -> str:
    """:meth:`Model.digest` by its definition: sha256 over the sorted
    renderings of the model's feature set, the first 12 hex digits."""
    text = "\n".join(sorted(f.render() for f in gamma(model)))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def chained_perturbation(robot: Model, spec: PerturbSpec) -> tuple[Model, int, int]:
    """:func:`~pegplan.perturb_model` as a chain of ``remove`` changes: the
    robot's features of the spec's kinds, drawn in sorted render order, each
    removed by :func:`~pegplan.apply_change`."""
    pool = sorted((f for f in gamma(robot) if f.kind in spec.eligible_kinds), key=Feature.render)
    rng = random.Random(spec.seed)
    removed = [f for f in pool if rng.random() < spec.missing_prob]
    model = robot
    for feat in removed:
        model = apply_change(model, FeatureChange("remove", feat))
    return model, len(removed), len(pool)


def gamma_delta(m1: Model, m2: Model) -> frozenset[FeatureChange]:
    """:func:`~pegplan.delta` by set difference of the two feature sets.

    Features only ``m2`` has are added, features only ``m1`` has are
    removed, except ``m1``'s costs: an action's cost is replaced by adding
    ``m2``'s cost feature.  The two models share their action names.
    """
    g1, g2 = gamma(m1), gamma(m2)
    return frozenset(
        {FeatureChange("add", f) for f in g2 - g1}
        | {FeatureChange("remove", f) for f in g1 - g2 if f.kind is not FeatureKind.COST}
    )


def reconstruct(features: Iterable[Feature], facts: Iterable[Fact] | None = None) -> Model:
    """Rebuild the model a feature set came from.

    The fact universe is recovered from the features themselves unless a
    larger universe is supplied; action names are recovered from the cost
    features, which every action carries exactly one of.  The package never
    rebuilds a model this way; ``tests/test_model.py`` uses it as the
    reference that :func:`~pegplan.model.gamma` loses nothing and that every
    model :func:`~pegplan.apply_change` derives equals the one rebuilt from
    its features.
    """
    init: set[Fact] = set()
    goal: set[Fact] = set()
    pre: dict[str, set[Fact]] = {}
    add: dict[str, set[Fact]] = {}
    dele: dict[str, set[Fact]] = {}
    costs: dict[str, int] = {}
    owners: set[str] = set()
    for feat in features:
        if feat.kind is FeatureKind.INIT:
            init.add(feat.fact)
        elif feat.kind is FeatureKind.GOAL:
            goal.add(feat.fact)
        elif feat.kind is FeatureKind.COST:
            if feat.owner in costs:
                raise ModelError(f"action {feat.owner}: more than one cost feature")
            costs[feat.owner] = feat.cost
            owners.add(feat.owner)
        else:
            table = {
                FeatureKind.PRECONDITION: pre,
                FeatureKind.ADD_EFFECT: add,
                FeatureKind.DELETE_EFFECT: dele,
            }[feat.kind]
            table.setdefault(feat.owner, set()).add(feat.fact)
            owners.add(feat.owner)
    missing_costs = owners - set(costs)
    if missing_costs:
        raise ModelError(
            "actions without a cost feature: " + ", ".join(sorted(missing_costs))
        )
    actions = tuple(
        GroundAction(
            name,
            frozenset(pre.get(name, ())),
            frozenset(add.get(name, ())),
            frozenset(dele.get(name, ())),
            costs[name],
        )
        for name in sorted(owners)
    )
    referenced: set[Fact] = set(init) | set(goal)
    for act in actions:
        referenced |= act.preconditions | act.add_effects | act.delete_effects
    universe = frozenset(facts) | frozenset(referenced) if facts is not None else frozenset(referenced)
    return Model(universe, actions, frozenset(init), frozenset(goal))


def simulated_cost(plan, model: Model) -> int | None:
    """The plan's total cost by executing it over frozenset states.

    None on an unmet precondition or an unmet goal; an action name the
    model lacks raises :class:`UnknownActionError` when execution reaches it.
    """
    actions = {act.name: act for act in model.actions}
    state = frozenset(model.init)
    total = 0
    for name in plan:
        if name not in actions:
            raise UnknownActionError(name)
        act = actions[name]
        if not act.preconditions <= state:
            return None
        state = (state - act.delete_effects) | act.add_effects
        total += act.cost
    return total if model.goal <= state else None


def uniform_cost_plan(model: Model) -> tuple[int, tuple[str, ...]] | None:
    """The canonical plan by uniform-cost search over frozenset states.

    Paths are popped by (cost, length, action names), an order that
    appending one action to two paths keeps, so the first goal state popped
    carries the cheapest, then shortest, then lexicographically smallest
    plan.  Returns (cost, actions), or None if the model is unsolvable.
    """
    start = frozenset(model.init)
    goal = frozenset(model.goal)
    frontier: list = [(0, 0, (), start)]
    best = {start: (0, 0, ())}
    while frontier:
        g, n, path, state = heapq.heappop(frontier)
        if (g, n, path) > best[state]:
            continue
        if goal <= state:
            return g, path
        for act in model.actions:
            if act.preconditions <= state:
                nxt = (state - act.delete_effects) | act.add_effects
                key = (g + act.cost, n + 1, path + (act.name,))
                if key < best.get(nxt, (inf,)):
                    best[nxt] = key
                    heapq.heappush(frontier, key + (nxt,))
    return None


def gamma_is_explanation(problem: ReconciliationProblem, changes) -> bool:
    """:func:`~pegplan.is_explanation` by its definition over feature sets.

    Every feature the changes add must be the robot's (g_u - g_h ⊆ g_r),
    every feature they remove must not be (g_h - g_u ⊆ g_h - g_r), and the
    cost gap, the robot plan's simulated cost minus the cost of
    :func:`uniform_cost_plan`, must strictly shrink.
    """
    updated = problem.apply_changes(changes)
    g_h, g_r, g_u = gamma(problem.human), gamma(problem.robot), gamma(updated)
    if not (g_u - g_h <= g_r and g_h - g_u <= g_h - g_r):
        return False

    def gap(model: Model) -> float:
        target = simulated_cost(problem.robot_plan.actions, model)
        return inf if target is None else target - uniform_cost_plan(model)[0]

    return gap(updated) < gap(problem.human)


def enumerated_plan(model: Model, cost: int) -> tuple[str, ...]:
    """The first plan of the given cost among all action sequences listed
    by length, and within a length in sorted name order.

    With ``cost`` the model's optimal cost, this is the canonical plan by
    its definition.  Sequences are extended depth-first from executable
    prefixes no dearer than ``cost``; only feasible for tiny models.
    """
    actions = sorted(model.actions, key=lambda a: a.name)
    goal = model.goal

    def first(state: frozenset, spent: int, depth: int) -> tuple[str, ...] | None:
        if depth == 0:
            return () if spent == cost and goal <= state else None
        for act in actions:
            if act.preconditions <= state and spent + act.cost <= cost:
                nxt = (state - act.delete_effects) | act.add_effects
                rest = first(nxt, spent + act.cost, depth - 1)
                if rest is not None:
                    return (act.name,) + rest
        return None

    for length in itertools.count():
        plan = first(frozenset(model.init), 0, length)
        if plan is not None:
            return plan


def levenshtein_recursive(a, b) -> int:
    """Edit distance by memoized recursion on sequence suffixes."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def _step_effort(metric_name: str, prev: tuple, cur: tuple) -> int:
    """Effort of one step from local formulas over (cost, plan) node infos."""
    if metric_name == "p1":
        return abs(prev[0] - cur[0])
    if metric_name == "p2":
        return (prev[0] - cur[0]) ** 2
    d = levenshtein_recursive(prev[1], cur[1])
    return d if metric_name == "p3" else d * d


def exhaustive_min_effort(
    problem: ReconciliationProblem,
    metric_name: str,
    start: Model | None = None,
) -> float | int:
    """Minimum total effort over every complete ordered explanation.

    Enumerates all subsets of the model difference from ``start`` (default:
    the human model) and all permutations of each complete subset, summing
    per-step effort with local formulas.  Costs and canonical plans of the
    intermediate models come from the problem's memoized accessors, so this
    guards the search for orderings, not the planner.  Returns ``inf`` when
    no subset completes the reconciliation.
    """
    base = problem.human if start is None else start
    pool = sorted(delta(base, problem.robot), key=lambda c: c.render())

    infos: dict[frozenset, tuple] = {}

    def info(applied: frozenset, model: Model) -> tuple:
        got = infos.get(applied)
        if got is None:
            result = problem.plan_result(model)
            cost = result.plan.cost if result.solvable else 0
            got = (cost, problem._cost_and_plan(model)[1])
            infos[applied] = got
        return got

    best: float | int = inf
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            final = subset_model(base, combo)
            if final is None or not planned_is_complete(problem, final):
                continue
            for order in itertools.permutations(combo):
                total = 0
                model = base
                applied = frozenset()
                prev = info(applied, model)
                feasible = True
                for change in order:
                    try:
                        model = apply_change(model, change)
                    except (ChangePreconditionError, InvalidEditError):
                        feasible = False
                        break
                    applied = applied | {change}
                    cur = info(applied, model)
                    total += _step_effort(metric_name, prev, cur)
                    prev = cur
                    if total >= best:
                        feasible = False
                        break
                if feasible:
                    best = min(best, total)
    return best


def subset_model(base: Model, changes) -> Model | None:
    """``base`` with all ``changes`` applied, or None if no order can (a
    removals-first order succeeds whenever any order does)."""
    model = base
    for change in sorted(changes, key=lambda c: (c.direction != "remove", c.render())):
        try:
            model = apply_change(model, change)
        except (ChangePreconditionError, InvalidEditError):
            return None
    return model


def planned_is_complete(problem: ReconciliationProblem, model: Model) -> bool:
    """Completeness by its definition, planning ``model`` every time.

    The robot plan is feasible in ``model`` and an optimal plan there costs
    exactly the robot plan's cost in both models.
    """
    target = simulated_cost(problem.robot_plan.actions, model)
    result = optimal_plan(model)
    return (
        target is not None
        and result.solvable
        and result.plan.cost == target == problem.robot_plan.cost
    )


def exhaustive_concise(problem: ReconciliationProblem) -> tuple[FeatureChange, ...] | None:
    """The concise explanation by its definition.

    Among the complete explanations of minimum size, the valid ordering
    that is lexicographically smallest by rendered change.  Enumerates the
    ordered selections of the render-sorted pool size by size;
    ``permutations`` emits them in lexicographic order, so the first valid
    complete one is the answer.  None when no ordering completes.
    """
    pool = sorted(problem.pool, key=lambda c: c.render())
    for size in range(len(pool) + 1):
        for order in itertools.permutations(pool, size):
            model = problem.human
            try:
                for change in order:
                    model = apply_change(model, change)
            except (ChangePreconditionError, InvalidEditError):
                continue
            if planned_is_complete(problem, model):
                return order
    return None


# ---------------------------------------------------------------------------
# Random instance generation


def random_model(rng: random.Random, min_cost: int = 1, max_cost: int = 9) -> Model:
    """A small random ground model (not necessarily solvable).

    Action costs are drawn from ``min_cost``..``max_cost``; ``min_cost=0``
    allows zero-cost actions.
    """
    n_facts = rng.randint(4, 7)
    facts = []
    for i in range(n_facts):
        if rng.random() < 0.3:
            facts.append(Fact("holds", (f"o{i}",)))
        else:
            facts.append(Fact(f"p{i}"))
    actions = []
    for k in range(rng.randint(3, 6)):
        pre = frozenset(rng.sample(facts, rng.randint(0, 2)))
        add = frozenset(rng.sample(facts, rng.randint(1, 2)))
        dele = frozenset(rng.sample(facts, rng.randint(0, 1))) - add
        actions.append(GroundAction(f"act{k}", pre, add, dele, rng.randint(min_cost, max_cost)))
    init = frozenset(f for f in facts if rng.random() < 0.4)
    goal = frozenset(rng.sample(facts, rng.randint(1, 2)))
    return Model(frozenset(facts), tuple(actions), init, goal)


def random_solvable_model(rng: random.Random) -> Model:
    while True:
        model = random_model(rng)
        if uniform_cost_plan(model) is not None:
            return model


def random_edit(rng: random.Random, model: Model) -> FeatureChange | None:
    """One random feature edit that is valid on ``model``, or None."""
    from pegplan.model import Feature, FeatureKind, gamma

    facts = sorted(model.facts)
    action = rng.choice(model.actions)
    kind = rng.choice(
        [
            FeatureKind.INIT,
            FeatureKind.GOAL,
            FeatureKind.PRECONDITION,
            FeatureKind.ADD_EFFECT,
            FeatureKind.DELETE_EFFECT,
            FeatureKind.COST,
        ]
    )
    if kind is FeatureKind.COST:
        new_cost = rng.randint(1, 9)
        if new_cost == action.cost:
            return None
        return FeatureChange("add", Feature(kind, owner=action.name, cost=new_cost))
    fact = rng.choice(facts)
    owner = None if kind in (FeatureKind.INIT, FeatureKind.GOAL) else action.name
    feature = Feature(kind, owner=owner, fact=fact)
    direction = "remove" if feature in gamma(model) else "add"
    return FeatureChange(direction, feature)


def random_edit_chain(rng: random.Random, model: Model, steps: int) -> list[Model]:
    """``model`` and the models ``steps`` random valid edits derive from it
    in turn, each by :func:`~pegplan.apply_change`."""
    chain = [model]
    while len(chain) <= steps:
        change = random_edit(rng, chain[-1])
        if change is None:
            continue
        try:
            chain.append(apply_change(chain[-1], change))
        except (ChangePreconditionError, InvalidEditError):
            continue
    return chain


def random_reconciliation(
    rng: random.Random, max_delta: int = 5
) -> ReconciliationProblem:
    """A reconciliation problem whose model difference has at most
    ``max_delta`` changes (the robot model is always solvable)."""
    while True:
        robot = random_solvable_model(rng)
        human = robot
        edits = rng.randint(1, max_delta)
        applied = 0
        for _ in range(40):
            if applied == edits:
                break
            change = random_edit(rng, human)
            if change is None:
                continue
            try:
                human = apply_change(human, change)
            except (ChangePreconditionError, InvalidEditError):
                continue
            applied += 1
        problem = ReconciliationProblem(robot, human)
        if len(problem.pool) <= max_delta:
            return problem


def constrained_reconciliation(rng: random.Random, max_pool: int = 6) -> ReconciliationProblem:
    """A reconciliation problem whose pool constrains the order of changes.

    The human model moves one or two of the robot's delete effects into the
    same action's add effects, so adding the delete effect back before the
    add effect is removed raises :class:`InvalidEditError`; zero to two
    random edits follow.  The pool has at most ``max_pool`` changes.
    """
    while True:
        robot = random_solvable_model(rng)
        movable = [(act.name, fact) for act in robot.actions for fact in sorted(act.delete_effects)]
        if not movable:
            continue
        human = robot
        for name, fact in rng.sample(movable, min(len(movable), rng.randint(1, 2))):
            act = human.action(name)
            human = human.replace_action(
                GroundAction(
                    name,
                    act.preconditions,
                    act.add_effects | {fact},
                    act.delete_effects - {fact},
                    act.cost,
                )
            )
        for _ in range(rng.randint(0, 2)):
            change = random_edit(rng, human)
            if change is None:
                continue
            try:
                human = apply_change(human, change)
            except (ChangePreconditionError, InvalidEditError):
                continue
        problem = ReconciliationProblem(robot, human)
        if len(problem.pool) <= max_pool:
            return problem


def random_action_sequence(rng: random.Random, alphabet, max_len: int = 8) -> tuple:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
