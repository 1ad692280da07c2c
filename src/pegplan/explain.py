"""Model reconciliation: concise and progressive explanations.

An explanation is an ordered list of unit model changes that moves the
human's model toward the robot's until the robot's plan is optimal there
with its robot-side cost.  ``generate_concise`` minimizes the number of
changes; ``generate_progressive`` minimizes the cumulative stepwise effort
under one of the :mod:`~pegplan.metrics` proxies.  Both search the subset
lattice of the problem's relevant changes, the pool without its inert
changes (see :class:`ReconciliationProblem`): a node is an int whose bits
mark the applied changes.  Concise scans it breadth-first, by the number of
changes; progressive is A* with the metric's effort as step cost and its
remaining-effort estimate as heuristic.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from collections import deque
from functools import cached_property
from fractions import Fraction
from heapq import heappush, heappop
from math import inf, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .metrics import MetricKind, heuristic, rho
from .model import (
    FeatureChange,
    FeatureKind,
    Model,
    _check_action_names,
    _digest,
    _feature_string,
    _feature_strings,
    apply_change,
    delta,
)
from .planner import BudgetExceededError, CompiledModel, Plan, PlanResult, apply_edit, envelope
from .planner import compile_edits, compile_model, fact_bits, inert_edits, optimal_plan, plan_cost

__all__ = [
    "ReconciliationError",
    "ReconciliationProblem",
    "StepRecord",
    "ExplanationTrace",
    "SearchInstrument",
    "DEFAULT_EPSILON",
    "is_explanation",
    "is_complete",
    "generate_concise",
    "generate_progressive",
]

# Tiny per-change tax added to the objective so the search never pads an
# explanation with effort-free changes; small enough (with integer-valued
# metrics) never to trade away a unit of actual effort.
DEFAULT_EPSILON = Fraction(1, 1000)


class ReconciliationError(Exception):
    """The robot/human model pair cannot form a reconciliation problem."""


class ReconciliationProblem:
    """A robot model, a human model, and the robot plan to be explained.

    The robot plan must be optimal in the robot model.  Fact universes of
    the two models are merged so that any feature of one can be applied to
    the other; action-name universes must already agree.  Every model,
    edit and query of the problem compiles against one fact encoding of
    that universe.  Planner calls are memoized per compiled model (see
    :mod:`~pegplan.planner`) so repeated searches over the same problem
    share work.  The per-model queries take a :class:`Model` over the
    universe or its :class:`~pegplan.planner.CompiledModel`.

    ``node_budget`` is the problem's one node budget, None for unlimited.
    It bounds each planner call, construction's own included, and,
    separately, each search run on the problem: a call or a search that
    expands more nodes raises :class:`~pegplan.planner.BudgetExceededError`.
    The robot object keeps its plan result for later problems over it: one
    plans it again, and raises the planner's error, exactly when its budget
    is below the result's expansions, and :meth:`planner_calls` counts a
    reused result too.

    ``pool`` is the whole human/robot difference, but the searches run over
    its *relevant* changes only: those that
    :func:`~pegplan.planner.inert_edits` does not find inert.  Call a set of
    pool changes valid when applying it leaves no action with overlapping
    add and delete effects, and a lattice model the human model with a
    valid set applied.  Let R be the facts in any precondition or goal of
    either model, and T the facts in both inits that no action of either
    model deletes.

    *Claim.*  Two lattice models whose change sets differ only by inert
    changes have the same plans at the same costs.  In particular, for a
    valid set S and an inert change c with S + c valid, S + c has the same
    cost*, canonical plan, anchored plan and robot-plan cost as S, so every
    metric's effort for the step from S to S + c is 0.

    *Proof.*  Every feature of a lattice model is a feature of the human
    or the robot model.  So each lattice model's preconditions and goal lie
    in R; its init holds T, since no pool change touches a fact in both
    inits; and none of its actions deletes a T-fact.  Let M and M' be two
    lattice models whose change sets differ only by inert changes, and run
    one action sequence in both, from states s and s'.  Invariant: s and s'
    agree on R, and both hold T.  It holds at the inits, which differ only
    outside R.  An action's preconditions in M and M' differ only on
    T-facts, which both states hold, and lie in R otherwise, where the
    states agree; so the action is applicable in both or in neither.  Its
    delete effects differ only outside R, and its add effects only outside
    R or on T-facts, which both states hold and no action deletes; so the
    successors again agree on R and hold T.  The goals differ only on
    T-facts, so a sequence reaches the goal in both or in neither.  No cost
    change is inert, so each plan costs the same in both models.  The
    canonical plan, cost* and the robot plan's cost depend on the plans
    and their costs alone, and so does the anchored plan.  ∎

    *Overlap partners.*  Only an add- and a delete-effect change on the
    same action and fact can overlap.  If either is inert, so is the
    other: an add effect outside R pairs with a delete effect outside R,
    and vice versa; an add effect on a T-fact has no partner, since no
    action of either model deletes a T-fact.  So whether a set is valid
    depends on its relevant and its inert changes separately.  Dropping the
    inert changes from a valid set leaves a valid set with the same cost*
    and plans, reached by a valid path (its prefixes are valid sets).  So
    no minimum-size complete explanation holds an inert change, nor, when
    epsilon > 0, does one of minimum effort.

    *Floor.*  Let M_r be the most relaxed model of the human and robot
    models (:func:`~pegplan.planner.envelope`).  Each feature of a lattice
    model M is a feature of one of them, so, action by action, M's
    preconditions and deletes hold M_r's, its adds lie within M_r's, its
    cost is no lower, its init lies within M_r's and its goal holds M_r's.
    Preconditions and goals are positive, so a plan of M from a state s is
    a plan of M_r from every superset s' of s, at no greater cost: each
    action applies in M_r, whose preconditions s holds, and leaves a
    superset of its M successor, since M_r deletes no more and adds no
    less; and M_r's goal lies within M's.  From the inits, every plan of a
    solvable lattice model is a plan of M_r, so c_min = cost*(M_r) ≤
    cost*(M).  With w the dearest action of M_r, every such plan, the
    anchored one included, also has at least ⌈c_min / w⌉ actions (0 when
    w = 0).  These are the floors of the ``safe`` p2/p4 heuristic at an
    unsolvable node (see :mod:`~pegplan.metrics`).  The robot model is a
    lattice model, so M_r is solvable.  It is planned, through the plan
    cache, only when a search first needs a floor.
    """

    def __init__(
        self,
        robot: Model,
        human: Model,
        robot_plan: Plan | Sequence[str] | None = None,
        node_budget: int | None = None,
    ):
        _check_action_names(
            robot, human, "robot and human models must share an action-name universe: "
        )
        universe = robot.facts | human.facts
        self.robot = robot.with_facts(universe)
        self.human = human.with_facts(universe)
        self.node_budget = node_budget
        self._plan_cache: dict[CompiledModel, PlanResult] = {}
        self._witnesses: list[tuple[int, ...]] = []  # as op indices
        self._bits = fact_bits(universe)

        robot_state = self._compile(self.robot)
        robot_result = self.robot._plan_result
        if robot_result is None or (
            node_budget is not None and node_budget < robot_result.expansions
        ):
            robot_result = self.plan_result(robot_state)
            object.__setattr__(self.robot, "_plan_result", robot_result)
        self._plan_cache[robot_state] = robot_result
        if not robot_result.solvable:
            raise ReconciliationError("the robot model is unsolvable")
        optimum = robot_result.plan
        if robot_plan is None:
            self.robot_plan = optimum
        else:
            actions = robot_plan.actions if isinstance(robot_plan, Plan) else tuple(robot_plan)
            cost = plan_cost(actions, robot_state)
            if cost is None:
                raise ReconciliationError("the robot plan is infeasible in the robot model")
            if cost != optimum.cost:
                raise ReconciliationError(
                    f"the robot plan costs {cost} in the robot model, "
                    f"but the optimum costs {optimum.cost}"
                )
            self.robot_plan = Plan(actions, cost)
        # Plans checked in many models go to plan_cost as op indices.
        self._op_index = {op[4]: i for i, op in enumerate(robot_state.ops)}
        self._robot_steps = tuple(self._op_index[name] for name in self.robot_plan.actions)
        self.pool: frozenset[FeatureChange] = delta(self.human, self.robot)
        # The lattice in compiled form: each node is the human state with
        # the edits of its changes applied.  Search nodes are bitmasks over
        # the relevant changes in render order, so heap tie-breaks compare
        # change indices where they would compare strings.
        self._human_state = self._compile(self.human)
        changes = sorted(self.pool)
        edits = compile_edits(self.human, changes, self._bits)
        self._relaxed, constrained = envelope(self._human_state, robot_state)
        self._relaxed_cost: int | None = None  # cost*(M_r), planned on first use
        inert = inert_edits(constrained, edits)
        self._changes: tuple[FeatureChange, ...] = tuple(
            c for c, dead in zip(changes, inert) if not dead
        )
        self._edits = tuple(e for e, dead in zip(edits, inert) if not dead)
        # The same indices in feature order, the candidate order at a node.
        self._feature_order: tuple[int, ...] = tuple(
            sorted(range(len(self._changes)), key=lambda i: self._changes[i].feature.render())
        )
        # Each action has at most one cost change in the pool and keeps the
        # human's cost until it is applied, so whether a pool change raises
        # cost is the same at every node that lacks it.
        raising = [_is_cost_increasing(c, self.human) for c in self._changes]
        self._raising_mask = sum(1 << i for i, up in enumerate(raising) if up)
        # Feature order with the cost-raising changes first (a stable sort).
        self._raising_first: tuple[int, ...] = tuple(
            sorted(self._feature_order, key=lambda i: not raising[i])
        )

    # -- memoized per-model queries ------------------------------------

    def _compile(self, model: Model | CompiledModel) -> CompiledModel:
        """``model`` in the problem's fact encoding; a compiled model as is."""
        return compile_model(model, self._bits)

    def plan_result(self, model: Model | CompiledModel) -> PlanResult:
        state = self._compile(model)
        result = self._plan_cache.get(state)
        if result is None:
            result = optimal_plan(state, node_budget=self.node_budget)
            self._plan_cache[state] = result
        return result

    def target_plan_cost(self, model: Model | CompiledModel) -> int | None:
        """Cost of the robot plan in ``model``, or None when infeasible."""
        return plan_cost(self._robot_steps, model)

    def anchored_plan(self, model: Model | CompiledModel) -> tuple[str, ...]:
        """The model's canonical optimal plan, anchored to the robot plan.

        When the robot plan is among the model's optima it is taken as the
        canonical choice, so a finished reconciliation always lands exactly
        on the plan being explained; otherwise the model's canonical plan
        (see :func:`~pegplan.planner.optimal_plan`) is used, and the empty
        plan for unsolvable models.  The searches take it from
        :meth:`_cost_and_plan`; ``tests/oracles.py`` calls this method to
        score its exhaustive reference search.
        """
        return self._cost_and_plan(model)[1]

    def _cost_and_plan(
        self, model: Model | CompiledModel, plan: Plan | None = None
    ) -> tuple[int, tuple[str, ...], tuple[str, ...] | None]:
        """cost*(model), 0 when unsolvable, the anchored plan, and the
        canonical plan (None when unsolvable).  A caller that has already
        proven ``plan`` the model's canonical plan passes it, and the model
        is not planned."""
        state = self._compile(model)
        if plan is None:
            result = self.plan_result(state)
            if not result.solvable:
                return 0, (), None
            plan = result.plan
        if self.target_plan_cost(state) == plan.cost:
            return plan.cost, self.robot_plan.actions, plan.actions
        return plan.cost, plan.actions, plan.actions

    @cached_property
    def _human_strings(self) -> list[str]:
        """The human model's sorted feature strings (see :func:`_build_trace`)."""
        return _feature_strings(self.human)

    def planner_calls(self) -> int:
        return len(self._plan_cache)

    def _c_min(self, metric: MetricKind) -> int:
        """The lattice's floor for ``metric``: cost*(M_r) for p2, and for p4
        the fewest actions that can cost that much (see the class docstring)."""
        if self._relaxed_cost is None:
            self._relaxed_cost = self.plan_result(self._relaxed).plan.cost
        if metric is MetricKind.P2:
            return self._relaxed_cost
        dearest = max((op[3] for op in self._relaxed.ops), default=0)
        return -(-self._relaxed_cost // dearest) if dearest else 0

    # -- reconciliation predicates -------------------------------------

    def cost_gap(self, model: Model | CompiledModel) -> float | int:
        """cost(robot plan, model) - cost*(model); inf when infeasible."""
        state = self._compile(model)
        target = self.target_plan_cost(state)
        if target is None:
            return inf
        return target - self._cost_and_plan(state)[0]

    def is_complete_model(self, model: Model | CompiledModel) -> bool:
        """Is the robot plan optimal in ``model`` at its robot-side cost?

        The robot plan must be feasible there at exactly its robot cost,
        and no plan may be cheaper.  Before planning a model it has not
        planned yet, the problem tries its *witnesses*: plans that earlier
        planner calls found cheaper than their model's target.  All models
        share one action-name universe, so a witness always has a cost or
        is infeasible, and a feasible witness cheaper than the target
        proves cost* < target without planning.  An optimum found cheaper
        than the target becomes a witness; the list is kept most recently
        useful first.
        """
        state = self._compile(model)
        return self._is_complete(state, self.target_plan_cost(state))

    def _is_complete(self, state: CompiledModel, target: int | None) -> bool:
        """:meth:`is_complete_model` given the robot plan's cost there."""
        if target is None or target != self.robot_plan.cost:
            return False
        result = self._plan_cache.get(state)
        if result is None:
            witnesses = self._witnesses
            for k, witness in enumerate(witnesses):
                cost = plan_cost(witness, state)
                if cost is not None and cost < target:
                    witnesses.insert(0, witnesses.pop(k))
                    return False
            result = self.plan_result(state)
            if result.solvable and result.plan.cost < target:
                # every witness has just failed here, so this one is new
                witnesses.insert(0, tuple(self._op_index[a] for a in result.plan.actions))
        return result.solvable and result.plan.cost == target

    def apply_changes(self, changes: Iterable[FeatureChange]) -> Model:
        """The human model with ``changes`` applied in order.

        Each change goes through :func:`~pegplan.model.apply_change`, whose
        presence and validity checks reject a change list that does not fit
        the human model (see ``pegplan validate``).
        """
        model = self.human
        for change in changes:
            model = apply_change(model, change)
        return model


def _is_cost_increasing(change: FeatureChange, model: Model) -> bool:
    """Can this change only raise (or keep) the model's optimal cost?

    Adding preconditions, removing add effects, adding delete effects,
    removing initial facts, adding goal facts, and raising action costs all
    shrink the set of plans or make them dearer.
    """
    kind = change.feature.kind
    adding = change.direction == "add"
    if kind is FeatureKind.PRECONDITION:
        return adding
    if kind is FeatureKind.ADD_EFFECT:
        return not adding
    if kind is FeatureKind.DELETE_EFFECT:
        return adding
    if kind is FeatureKind.INIT:
        return not adding
    if kind is FeatureKind.GOAL:
        return adding
    return change.feature.cost > model.action(change.feature.owner).cost


def is_explanation(
    problem: ReconciliationProblem, changes: Sequence[FeatureChange]
) -> bool:
    """Do the changes strictly shrink the human's cost gap using only true content?

    Checks that every added feature is part of the robot model and every
    removed one absent from it (g_u - g_h ⊆ g_r and g_h - g_u ⊆ g_h - g_r
    over :func:`~pegplan.model.gamma`), and that the gap between the robot
    plan's cost and the optimal cost strictly decreases.  The first check
    is ``delta(human, updated) <= pool``: an add or remove is a pool change
    exactly when the robot has or lacks its feature, and a cost add exactly
    when the robot's cost is the new one, so the old one is not the robot's.
    """
    updated = problem.apply_changes(changes)
    if not delta(problem.human, updated) <= problem.pool:
        return False
    return problem.cost_gap(updated) < problem.cost_gap(problem.human)


def is_complete(problem: ReconciliationProblem, changes: Sequence[FeatureChange]) -> bool:
    """Is the robot plan optimal, at its robot-side cost, after the changes?"""
    return problem.is_complete_model(problem.apply_changes(changes))


class StepRecord(NamedTuple):
    """State after one change (index 0 is the unchanged human model)."""

    index: int
    change: FeatureChange | None
    model_digest: str  # the step's model's Model.digest()
    solvable: bool
    cost_star: int
    plan: tuple[str, ...]
    rho: int


class ExplanationTrace(NamedTuple):
    """An ordered explanation with its per-step records and search stats.

    ``expansions`` counts the nodes expanded.  ``generated`` counts the
    child subsets queued; concise queues a child before deriving its
    model, so it also counts a subset whose edit turns out invalid when
    dequeued.  ``planner_calls`` counts the models the problem planned, over
    all its searches so far: the robot model, even when its result was
    reused, and the most relaxed model M_r once a search has needed its
    floor (see :class:`ReconciliationProblem`).  Models refuted by a
    witness plan, and progressive children whose optimal cost follows from
    their parent's (see :func:`generate_progressive`), are not planned.
    """

    mode: str  # "peg" | "concise"
    metric: MetricKind
    variant: str
    epsilon: Fraction
    changes: tuple[FeatureChange, ...]
    steps: tuple[StepRecord, ...]
    sum_rho: int
    complete: bool
    expansions: int
    generated: int
    planner_calls: int
    wall_time: float

    @property
    def size(self) -> int:
        return len(self.changes)

    def sum_rho_for(self, kind: MetricKind) -> int:
        """Recompute the trace's total effort under another metric."""
        pairs = [(step.cost_star, step.plan) for step in self.steps]
        return sum(rho(kind, prev, cur) for prev, cur in zip(pairs, pairs[1:]))


class SearchInstrument(NamedTuple):
    """Optional probes into the progressive search, used by tests.

    ``on_node(model, h, seq)`` fires when a node is expanded, with ``seq``
    the changes applied so far (empty at the root);
    ``on_edge(parent_h, step_rho, child_h)`` fires for each generated edge.
    """

    on_node: Callable[[Model, Fraction, tuple[FeatureChange, ...]], None] | None = None
    on_edge: Callable[[Fraction, int, Fraction], None] | None = None


class _Node(NamedTuple):
    g: int  # scaled, as the A* keys are (see generate_progressive)
    idx_seq: tuple[int, ...]  # candidate positions along the path
    state: CompiledModel  # the subset's model
    h: Fraction  # as the heuristic returns it, for the instrument
    h_key: int  # h, scaled
    # (cost*, anchored plan, canonical plan or None when unsolvable)
    info: tuple[int, tuple[str, ...], tuple[str, ...] | None]


def _scaled(value: Fraction, scale: int) -> int:
    """``value * scale`` as an int, which ``scale`` makes exact."""
    assert scale % value.denominator == 0, "the key scale must clear every denominator"
    return value.numerator * (scale // value.denominator)


def _check_metric(metric: object) -> None:
    if not isinstance(metric, MetricKind):
        raise ValueError(f"unknown metric {metric!r}: expected a MetricKind")


def _build_trace(
    problem: ReconciliationProblem,
    mode: str,
    metric: MetricKind,
    variant: str,
    epsilon: Fraction,
    seq: tuple[int, ...],
    expansions: int,
    generated: int,
    start_time: float,
) -> ExplanationTrace:
    """The trace of ``seq``, valid relevant-change indices.  Each step's
    state is the previous one's with one edit, and its :class:`Model` the
    previous one's with :func:`~pegplan.model.apply_change`; its digest
    updates the previous step's sorted feature strings."""
    changes = tuple(problem._changes[i] for i in seq)
    model, state = problem.human, problem._human_state
    strings = list(problem._human_strings)
    steps: list[StepRecord] = []
    prev = None
    for index, change in enumerate((None,) + changes):
        if index:
            feat = change.feature
            if feat.kind is FeatureKind.COST:  # replaces the action's cost feature
                old = _feature_string(feat.kind, feat.owner, model.action(feat.owner).cost)
                del strings[bisect_left(strings, old)]
            model = apply_change(model, change)
            if change.direction == "add":
                insort(strings, feat.sort_index)
            else:
                del strings[bisect_left(strings, feat.sort_index)]
            state = apply_edit(state, problem._edits[seq[index - 1]])
        cost_star, plan, optimum = problem._cost_and_plan(state)
        steps.append(
            StepRecord(
                index=index,
                change=change,
                model_digest=_digest(strings),
                solvable=optimum is not None,
                cost_star=cost_star,
                plan=plan,
                rho=rho(metric, prev, (cost_star, plan)) if index else 0,
            )
        )
        prev = cost_star, plan
    return ExplanationTrace(
        mode=mode,
        metric=metric,
        variant=variant,
        epsilon=epsilon,
        changes=changes,
        steps=tuple(steps),
        sum_rho=sum(step.rho for step in steps),
        complete=problem.is_complete_model(state),
        expansions=expansions,
        generated=generated,
        planner_calls=problem.planner_calls(),
        wall_time=time.perf_counter() - start_time,
    )


def generate_progressive(
    problem: ReconciliationProblem,
    metric: MetricKind = MetricKind.P2,
    variant: str = "safe",
    epsilon: Fraction = DEFAULT_EPSILON,
    instrument: SearchInstrument | None = None,
) -> ExplanationTrace:
    """Minimum cumulative-effort ordered explanation (A* over change subsets).

    Nodes are identified by the set of applied changes, drawn from the
    problem's relevant changes (see :class:`ReconciliationProblem`); g is
    the effort so far plus ``epsilon`` per change, h the metric's
    remaining-effort estimate, whose ``remaining`` count is the number of
    relevant changes a node lacks.  Ties are broken toward lower h, then
    fewer changes, then the lexicographically smallest change-string
    sequence; among equally cheap orderings of the same set, the one that
    follows the candidate ordering earliest is kept.  A node at or below
    the robot cost tries the cost-raising changes first (they close the
    usual gap faster), each part keeping the feature order.  The first
    complete node expanded is returned: one whose cost* and the robot
    plan's cost there both equal the robot cost.  A feasible robot plan
    makes the model solvable, so this test plans nothing.

    A node holds its subset's compiled model, derived from its parent's
    with one edit (:func:`~pegplan.planner.apply_edit`).  That model
    depends on the subset alone, and so does whether it has one: from a
    valid parent only an add/delete overlap on the edited action can fail,
    which the edit reports as None.  So each subset is derived and scored
    once; another path to it is priced from the two nodes' (cost*, plan)
    alone.  A child made by a cost-raising change
    (:func:`_is_cost_increasing`) keeps a subset of its parent's plans,
    none of them cheaper, so it is not planned when an unsolvable parent
    makes it unsolvable, or when the parent's canonical plan keeps its cost
    there.  Then the child's optimal plans are among the parent's and
    include that plan, so it is the child's canonical plan too, at the
    parent's cost*.

    An inert change costs 0 effort, so with ``epsilon`` > 0 no explanation
    of minimum effort holds one.  With ``epsilon`` = 0 an explanation padded
    with inert changes ties with the same explanation without them, and
    the search returns one without, at the same minimum effort.  Among
    several explanations with tied f, which is popped first depends on h,
    and so on the relevant-change count.

    The ``safe`` p2/p4 heuristic takes the problem's floor c_min (see
    :class:`ReconciliationProblem`), which plans M_r.  That happens only
    when the search first scores a node whose h can depend on it: a node at
    value 0 (cost 0 for p2, the empty plan for p4), as an unsolvable node
    is, with a gap left and at least two changes remaining.

    The A* keys are integers: g, h and f scaled by L = lcm(2, the
    denominator of ``epsilon``).  Each h is an integer or a half, and each
    g a sum of integer efforts and epsilons, so L clears every denominator
    (asserted, never rounded).  Scaling by one positive L keeps every
    comparison and every tie of the exact rationals, so nodes pop in the
    same order.

    Every h is finite.  :func:`~pegplan.metrics.heuristic` returns inf
    only for a node with a gap left and 0 changes remaining.  Such a node
    holds every relevant change, so by the claim of
    :class:`ReconciliationProblem` its model has the robot model's plans
    at their costs: its cost* is the robot plan's cost and its anchored
    plan the robot plan, and no gap is left.

    ``instrument.on_node`` sees each expanded node as a :class:`Model`,
    built from its path only for that call.  Both probes receive h as the
    :class:`~fractions.Fraction` :func:`~pegplan.metrics.heuristic` returned.
    """
    start = time.perf_counter()
    _check_metric(metric)
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    changes = problem._changes
    edits = problem._edits
    target_cost = problem.robot_plan.cost
    target = (target_cost, problem.robot_plan.actions)
    on_node = instrument.on_node if instrument else None
    on_edge = instrument.on_edge if instrument else None
    node_budget = problem.node_budget

    def child_info(parent: _Node, i: int, state: CompiledModel) -> tuple:
        """The child's info, planning it only where the parent's cannot decide it."""
        if problem._raising_mask >> i & 1:
            cost, _, optimum = parent.info
            if optimum is None:
                return parent.info  # no plan to lose: still unsolvable
            if plan_cost(optimum, state) == cost:
                return problem._cost_and_plan(state, Plan(optimum, cost))
        return problem._cost_and_plan(state)

    # The floor is taken when a node at value 0 (info[0] = cost 0 for p2,
    # info[1] = the empty plan for p4) with a gap left and two or more
    # changes remaining is first scored.  With fewer changes, its h is the
    # same at every floor up to the target.
    value = 0 if metric is MetricKind.P2 else 1
    needs_floor = (
        variant == "safe" and metric in (MetricKind.P2, MetricKind.P4) and bool(target[value])
    )
    c_min = 0

    def score(info: tuple, remaining: int) -> Fraction | float:
        nonlocal c_min, needs_floor
        if needs_floor and remaining > 1 and not info[value]:
            c_min = problem._c_min(metric)
            needs_floor = False
        return heuristic(metric, variant, info, target, remaining, c_min)

    # Every h has denominator 1 or 2.
    scale = lcm(2, epsilon.denominator)
    epsilon_key = _scaled(epsilon, scale)

    root_info = problem._cost_and_plan(problem._human_state)
    root_h = score(root_info, len(changes))
    root_key = _scaled(root_h, scale)
    nodes = {0: _Node(0, (), problem._human_state, root_h, root_key, root_info)}
    # (f, h, size, pool-index sequence, candidate-position sequence, subset),
    # f and h scaled
    heap: list = [(root_key, root_key, 0, (), (), 0)]
    expansions = 0
    generated = 0

    while heap:
        _, _, _, seq, idx_seq, mask = heappop(heap)
        node = nodes[mask]
        if node.idx_seq != idx_seq:
            # Stale: a better path replaced the node.  Candidate positions fix
            # a path, and no path is pushed twice, so none is expanded twice.
            continue
        expansions += 1
        if node_budget is not None and expansions > node_budget:
            raise BudgetExceededError(
                f"progressive search exceeded the node budget of {node_budget}"
            )
        if on_node:
            path = tuple(changes[i] for i in seq)
            on_node(problem.apply_changes(path), node.h, path)
        if node.info[0] == target_cost == problem.target_plan_cost(node.state):
            return _build_trace(
                problem, "peg", metric, variant, epsilon, seq, expansions, generated, start
            )
        order = problem._raising_first if node.info[0] <= target_cost else problem._feature_order
        remaining = [i for i in order if not mask >> i & 1]
        for idx, i in enumerate(remaining):
            child_mask = mask | 1 << i
            known = nodes.get(child_mask)
            if known is None:
                state = apply_edit(node.state, edits[i])
                if state is None:
                    # e.g. adding a delete effect before the matching add
                    # effect was removed; the change stays available further down
                    continue
                info = child_info(node, i, state)
                child_h = score(info, len(remaining) - 1)
                h_key = _scaled(child_h, scale)
            else:
                # the subset's model, info and h depend on the subset alone
                state, info, child_h, h_key = known.state, known.info, known.h, known.h_key
            step_rho = rho(metric, node.info, info)
            if on_edge:
                on_edge(node.h, step_rho, child_h)
            child_g = node.g + step_rho * scale + epsilon_key
            child_idx = idx_seq + (idx,)
            if known is not None and (child_g, child_idx) >= (known.g, known.idx_seq):
                continue
            child_seq = seq + (i,)
            nodes[child_mask] = _Node(child_g, child_idx, state, child_h, h_key, info)
            generated += 1
            heappush(
                heap,
                (child_g + h_key, h_key, len(child_seq), child_seq, child_idx, child_mask),
            )

    raise ReconciliationError("search exhausted without finding a complete explanation")


def generate_concise(
    problem: ReconciliationProblem,
    metric: MetricKind = MetricKind.P2,
) -> ExplanationTrace:
    """Minimum-cardinality complete explanation (breadth-first over change subsets).

    Among the complete explanations with the fewest changes, returns the
    one whose change sequence is lexicographically smallest by rendered
    change (every prefix of it must be a valid edit sequence).  No such
    explanation holds an inert change, so only subsets of the problem's
    relevant changes are scanned (see :class:`ReconciliationProblem`); they
    keep their pool order, so the answer is the whole pool's.  ``metric``
    only labels the trace's per-step effort records.

    The queue is dequeued in (size, pool-index sequence) order: parents
    leave it in that order, and each parent queues its children in
    ascending pool index, so a child of an earlier parent sorts before
    every child of a later one.  All paths to a subset have the same
    length, so a subset is queued once, by its smallest valid path, and a
    subset already queued is skipped.

    A child's compiled model is derived from its parent's with one edit
    (:func:`~pegplan.planner.apply_edit`) only when the child is dequeued.
    That model depends on the subset alone, and so does whether it has
    one: from a valid parent only an add/delete overlap on the edited
    action can fail, which the edit reports as None.  A child whose edit is
    invalid is then dropped, counted as generated but not as expanded.
    Most dequeued nodes are rejected without planning: by the robot plan's
    cost there, or by a witness plan (see
    :meth:`ReconciliationProblem.is_complete_model`).  A node takes that
    cost from its parent unless its edit touches the init, the goal or a
    robot-plan action and can change it: a cost-raising edit keeps an
    infeasible plan infeasible, any other fact edit a feasible plan's cost.
    """
    start = time.perf_counter()
    _check_metric(metric)
    edits = problem._edits
    node_budget = problem.node_budget
    # Whether an edit can change the robot plan's cost, given the parent's.
    # A fact edit that is not cost-raising only grows the states along the
    # plan or drops something the plan needs; any other edit only shrinks
    # the states, adds a need or changes a cost.
    plan_ops = set(problem._robot_steps)
    moves_target = [i is None or i in plan_ops for _, i, _ in edits]
    grows = [kind is not FeatureKind.COST and not problem._raising_mask >> i & 1
             for i, (kind, _, _) in enumerate(edits)]
    # (pool-index sequence, subset, the parent's compiled model and robot
    # plan cost; the root's own)
    human = problem._human_state
    queue = deque([((), 0, human, problem.target_plan_cost(human))])
    seen = {0}
    expansions = 0
    generated = 0

    while queue:
        seq, mask, state, target = queue.popleft()
        if seq:
            state = apply_edit(state, edits[seq[-1]])
            if state is None:
                continue  # no valid model holds this subset
            if moves_target[seq[-1]] and (target is None) == grows[seq[-1]]:
                target = problem.target_plan_cost(state)
        expansions += 1
        if node_budget is not None and expansions > node_budget:
            raise BudgetExceededError(f"concise search exceeded the node budget of {node_budget}")
        if problem._is_complete(state, target):
            return _build_trace(
                problem, "concise", metric, "safe", Fraction(0), seq, expansions, generated,
                start,
            )
        for i in range(len(edits)):
            child_mask = mask | 1 << i
            if child_mask not in seen:  # the subset itself is seen, so i is new
                seen.add(child_mask)
                generated += 1
                queue.append((seq + (i,), child_mask, state, target))

    raise ReconciliationError("search exhausted without finding a complete explanation")
