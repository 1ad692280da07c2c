"""Optimal planning over ground models.

A* with the h-max delete-relaxation heuristic (admissible and consistent),
so the first goal expansion is cost-optimal.  Ties are broken
deterministically: lower f, then lower h, then the lexicographically
smallest action-name path, which makes the returned plan a stable canonical
choice for a given model.

States are bitmasks over the model's fact universe.  Every model of a
reconciliation problem shares one universe, so its bit order (facts sorted
by rendered string) is computed once per universe and kept in a small
cache, together with each action's precondition/add/delete masks; a search
node that edits one action costs one new set of masks, not a recompile.

h-max (Bonet & Geffner, "Planning as Heuristic Search", AIJ 2001) is
computed by sweeping the relaxed actions level by level over the reached
mask instead of running Dijkstra over facts.  For non-negative integer
costs both give the same value on every state, so the A* keys, tie-breaks,
plans and search counters are those of the fact-level computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappush, heappop
from math import inf
from typing import Iterable, Sequence

from .model import Fact, GroundAction, Model

__all__ = [
    "Plan",
    "PlanResult",
    "ValidationResult",
    "PlanningError",
    "UnknownActionError",
    "BudgetExceededError",
    "optimal_plan",
    "plan_cost",
    "validate_plan",
]


class PlanningError(Exception):
    """Base class for planner errors."""


class UnknownActionError(PlanningError):
    """A plan references an action the model does not define."""


class BudgetExceededError(PlanningError):
    """A search exceeded its node budget; distinct from unsolvability."""


@dataclass(frozen=True)
class Plan:
    """An action-name sequence with its total cost in the source model."""

    actions: tuple[str, ...]
    cost: int


@dataclass(frozen=True)
class PlanResult:
    """Outcome of an optimal-plan search, with search statistics."""

    solvable: bool
    plan: Plan | None
    expansions: int
    generated: int
    wall_time: float


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    message: str
    failed_index: int | None = None


# Distinct fact universes kept compiled at once.  Every model of a
# reconciliation problem shares one universe, so a handful covers any caller.
_UNIVERSES_KEPT = 4
# Distinct actions whose masks one universe remembers before it starts over.
# A search node differs from its parent in at most one action, so a whole
# rover lattice search needs about 200; the cap only bounds memory.
_ACTION_MASKS_KEPT = 1024


class _Universe:
    """Bit assignment of one fact universe, with memoized action masks.

    Facts get bits in the order of their rendered strings.
    """

    __slots__ = ("facts", "bit", "action_masks")

    def __init__(self, facts: frozenset[Fact]):
        self.facts = tuple(sorted(facts, key=lambda f: f.render()))
        self.bit = {f: 1 << i for i, f in enumerate(self.facts)}
        self.action_masks: dict[GroundAction, tuple[int, int, int]] = {}

    def mask(self, facts: Iterable[Fact]) -> int:
        bit = self.bit
        m = 0
        for f in facts:
            m |= bit[f]
        return m

    def masks(self, act: GroundAction) -> tuple[int, int, int]:
        """The (pre, add, del) masks of an action over this universe."""
        got = self.action_masks.get(act)
        if got is None:
            if len(self.action_masks) >= _ACTION_MASKS_KEPT:
                self.action_masks.clear()
            got = (
                self.mask(act.preconditions),
                self.mask(act.add_effects),
                self.mask(act.delete_effects),
            )
            self.action_masks[act] = got
        return got


@lru_cache(maxsize=_UNIVERSES_KEPT)
def _universe(facts: frozenset[Fact]) -> _Universe:
    return _Universe(facts)


class _Compiled:
    """Bitmask encoding of a model for the search inner loop.

    ``ops`` holds one (pre, add, keep, cost, name) tuple per action in model
    order, where ``keep`` clears the delete effects; ``relaxed`` holds the
    (pre, add, cost) triples of the actions that add anything, which are all
    that h-max needs.
    """

    __slots__ = ("facts", "ops", "relaxed", "init_mask", "goal_mask")

    def __init__(self, model: Model):
        universe = _universe(model.facts)
        self.facts = universe.facts
        self.ops = []
        self.relaxed = []
        for act in model.actions:
            pre, add, dele = universe.masks(act)
            self.ops.append((pre, add, ~dele, act.cost, act.name))
            if add:
                self.relaxed.append((pre, add, act.cost))
        self.init_mask = universe.mask(model.init)
        self.goal_mask = universe.mask(model.goal)


def _hmax(c: _Compiled, state: int) -> float:
    """Max-cost delete-relaxation estimate of reaching the goal from state.

    Reachability is swept level by level: at level L every action whose
    preconditions are all reached fires once, adding its effects at level
    L + cost (zero-cost effects join level L, which is swept again until
    nothing grows).  A fact's level is then its h-max cost, and the estimate
    is the first level at which the whole goal is reached, or inf.
    """
    goal = c.goal_mask
    reached = state
    if reached & goal == goal:
        return 0
    level = 0
    waiting = c.relaxed
    scheduled: dict[int, int] = {}  # level -> facts due to be added at it
    while True:
        unfired = []
        grew = False
        for act in waiting:
            pre, add, cost = act
            if reached & pre != pre:
                unfired.append(act)
            elif cost:
                at = level + cost
                scheduled[at] = scheduled.get(at, 0) | add
            elif add & ~reached:
                reached |= add
                grew = True
        waiting = unfired
        if grew:
            if reached & goal == goal:
                return level
            continue
        if not scheduled:
            return inf
        level = min(scheduled)
        reached |= scheduled.pop(level)
        if reached & goal == goal:
            return level


def optimal_plan(model: Model, node_budget: int | None = None) -> PlanResult:
    """Find a cost-optimal plan, or report unsolvability.

    Deterministic for a fixed model: among equally cheap nodes the search
    prefers lower heuristic values and then the lexicographically smallest
    action-name path, so repeated calls return the same plan and statistics.
    Raises :class:`BudgetExceededError` when ``node_budget`` expansions are
    exceeded before an answer is found.
    """
    start = time.perf_counter()
    c = _Compiled(model)
    init = c.init_mask
    goal = c.goal_mask
    expansions = 0
    generated = 0

    h0 = _hmax(c, init)
    h_cache: dict[int, float] = {init: h0}
    if h0 is inf:
        return PlanResult(False, None, 0, 0, time.perf_counter() - start)

    empty: tuple[str, ...] = ()
    # best[state] = (g, path); equal-g rediscoveries keep the lex-smaller path
    best: dict[int, tuple[int, tuple[str, ...]]] = {init: (0, empty)}
    heap: list[tuple[float, float, tuple[str, ...], int, int]] = [(h0, h0, empty, 0, init)]
    closed: set[int] = set()
    ops = c.ops

    while heap:
        f, h, path, g, state = heappop(heap)
        if state in closed:
            continue
        rec_g, rec_path = best[state]
        if g != rec_g or path != rec_path:
            continue  # stale entry
        closed.add(state)
        expansions += 1
        if node_budget is not None and expansions > node_budget:
            raise BudgetExceededError(
                f"optimal-plan search exceeded the node budget of {node_budget}"
            )
        if state & goal == goal:
            return PlanResult(
                True, Plan(path, g), expansions, generated, time.perf_counter() - start
            )
        for pre, add, keep, cost, name in ops:
            if state & pre != pre:
                continue
            succ = (state & keep) | add
            if succ in closed:
                continue
            g2 = g + cost
            path2 = path + (name,)
            rec = best.get(succ)
            if rec is not None and (g2, path2) >= rec:
                continue
            h2 = h_cache.get(succ)
            if h2 is None:
                h2 = h_cache[succ] = _hmax(c, succ)
            if h2 is inf:
                continue
            best[succ] = (g2, path2)
            heappush(heap, (g2 + h2, h2, path2, g2, succ))
            generated += 1

    return PlanResult(False, None, expansions, generated, time.perf_counter() - start)


def _plan_actions(plan: Plan | Sequence[str]) -> tuple[str, ...]:
    if isinstance(plan, Plan):
        return plan.actions
    return tuple(plan)


def plan_cost(plan: Plan | Sequence[str], model: Model) -> int | None:
    """Total cost of executing the plan in the model, or None if infeasible.

    Infeasible means an unmet precondition along the way or an unmet goal at
    the end.  Unknown action names raise :class:`UnknownActionError` instead,
    since they indicate a plan from a different action universe.
    """
    actions = model.action_map()
    state = set(model.init)
    total = 0
    for name in _plan_actions(plan):
        act = actions.get(name)
        if act is None:
            raise UnknownActionError(f"model defines no action named {name!r}")
        if not act.preconditions <= state:
            return None
        state -= act.delete_effects
        state |= act.add_effects
        total += act.cost
    if not model.goal <= state:
        return None
    return total


def validate_plan(plan: Plan | Sequence[str], model: Model) -> ValidationResult:
    """Like :func:`plan_cost` but with a step-level diagnostic."""
    actions = model.action_map()
    state = set(model.init)
    total = 0
    for i, name in enumerate(_plan_actions(plan)):
        act = actions.get(name)
        if act is None:
            return ValidationResult(False, f"step {i}: unknown action {name!r}", i)
        missing = act.preconditions - state
        if missing:
            facts = ", ".join(sorted(f.render() for f in missing))
            return ValidationResult(
                False, f"step {i}: action {name} requires unmet facts: {facts}", i
            )
        state -= act.delete_effects
        state |= act.add_effects
        total += act.cost
    unmet = model.goal - state
    if unmet:
        facts = ", ".join(sorted(f.render() for f in unmet))
        return ValidationResult(False, f"goal facts not achieved: {facts}", None)
    return ValidationResult(True, f"plan is valid; cost = {total}", None)
