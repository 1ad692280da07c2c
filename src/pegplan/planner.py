"""Optimal planning over ground models.

:func:`optimal_plan` returns the model's *canonical plan*: among the plans
of least cost, the one with the fewest actions, and among those the
lexicographically smallest action-name sequence.  It is found by
uniform-cost search over states, popped by (cost, length, action names).
That order survives appending the same action to two paths, so keeping one
path per state loses no canonical plan, and the first goal state popped
carries the canonical plan.  Names alone would not do: with zero-cost
actions, appending an action to two paths where one is a prefix of the
other can reverse their name order, and a zero-cost loop can leave no
lexicographically smallest cheapest plan at all.

States are bitmasks over the model's fact universe.  Every model of a
reconciliation problem shares one universe, so its bit order (facts sorted
by rendered string) is computed once per universe and kept in a small
cache, together with each action's precondition/add/delete masks; a search
node that edits one action costs one new set of masks, not a recompile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappush, heappop
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

    __slots__ = ("bit", "action_masks")

    def __init__(self, facts: frozenset[Fact]):
        ordered = sorted(facts, key=lambda f: f.render())
        self.bit = {f: 1 << i for i, f in enumerate(ordered)}
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
    order, where ``keep`` clears the delete effects.
    """

    __slots__ = ("ops", "init_mask", "goal_mask")

    def __init__(self, model: Model):
        universe = _universe(model.facts)
        self.ops = []
        for act in model.actions:
            pre, add, dele = universe.masks(act)
            self.ops.append((pre, add, ~dele, act.cost, act.name))
        self.init_mask = universe.mask(model.init)
        self.goal_mask = universe.mask(model.goal)

    def goal_relaxed_reachable(self) -> bool:
        """Is the goal reachable when delete effects are ignored?

        Otherwise no plan exists, which is decided here without a search.
        """
        reached, goal, waiting = self.init_mask, self.goal_mask, self.ops
        while reached & goal != goal:
            before = reached
            unfired = []
            for op in waiting:
                if reached & op[0] == op[0]:
                    reached |= op[1]
                else:
                    unfired.append(op)
            if reached == before:
                return False
            waiting = unfired
        return True


def optimal_plan(model: Model, node_budget: int | None = None) -> PlanResult:
    """Find the model's canonical plan, or report unsolvability.

    The canonical plan is the cheapest, then the shortest, then the
    lexicographically smallest by action names (see the module docstring),
    so it depends on the model alone.  Raises :class:`BudgetExceededError`
    when ``node_budget`` expansions are exceeded before an answer is found.
    """
    start = time.perf_counter()
    c = _Compiled(model)
    if not c.goal_relaxed_reachable():
        return PlanResult(False, None, 0, 0, time.perf_counter() - start)
    init = c.init_mask
    goal = c.goal_mask
    ops = c.ops
    expansions = 0
    generated = 0

    # best[state] = (cost, length, path) of the best path queued to it
    best: dict[int, tuple[int, int, tuple[str, ...]]] = {init: (0, 0, ())}
    heap: list[tuple[int, int, tuple[str, ...], int]] = [(0, 0, (), init)]
    closed: set[int] = set()

    while heap:
        g, n, path, state = heappop(heap)
        if state in closed:
            continue  # stale entry: a better path to it was expanded
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
        n += 1
        for pre, add, keep, cost, name in ops:
            if state & pre != pre:
                continue
            succ = (state & keep) | add
            if succ in closed:
                continue
            key = (g + cost, n, path + (name,))
            rec = best.get(succ)
            if rec is not None and key >= rec:
                continue
            best[succ] = key
            heappush(heap, key + (succ,))
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
