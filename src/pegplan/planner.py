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

When every action costs the same c (0 included), a path of length n costs
c * n, so the canonical order is (length, names), and a FIFO breadth-first
search finds the same plan.  Ops are tried in name order (see
:class:`CompiledModel`), so a state of length n with path p queues its
successors at keys (n + 1, p + (name,)) in increasing order.  States leave
the queue in the order they entered it, and every state queued from a later
state carries a larger key than every state queued from an earlier one: by
length if the lengths differ, and otherwise by the first name where the two
same-length paths differ.  So keys enter the queue strictly increasing, and
a state reached again never has a smaller key than its first entry: the
breadth-first search keeps that first path, as one parent link per state.
It tests the goal when it generates a state, not when it pops one.  Every
goal state's least path is its first entry, and the first goal state
generated has the least first entry of all, since every later entry has a
larger key; so it carries the canonical plan.  The search stops there, at
or before the expansion where the heap search would pop that state, so its
expansions and generated states never exceed the heap search's.  The heap
search keeps its pop-time test: with mixed costs a cheaper path can still
be generated after the first goal state is.

Both searches run on the model's projection onto its *live* facts: the facts
some precondition or the goal reads, minus the *fixed* facts, which the
init holds and no action deletes.  A fact no precondition or goal reads
never decides whether an action applies or the goal holds, and a fixed
fact holds in every reachable state, so dropping both from every state,
precondition, effect and goal leaves the same action sequences applicable
and the same ones reaching the goal, at the same cost.  Projection maps
each successor of a state to the projection of its successor, so the
search over projected states sees the same paths; it only merges states
that differ in dropped facts, whose futures are the same.  Each projected
state's first path is the least among its member states' least paths, so
both arguments above hold on the projection, and it yields the canonical
plan of the model, with fewer states expanded (Nebel, Dimopoulos & Koehler,
"Ignoring Irrelevant Facts and Operators in Plan Generation", ECP 1997).

States are bitmasks over a fact universe.  This module owns that encoding:
:func:`fact_bits` numbers the facts, :func:`compile_model` turns a model
into a hashable :class:`CompiledModel`, :func:`compile_edits` turns unit
changes into edits of it, and :func:`apply_edit` applies one.  A
reconciliation problem computes its universe's bits once and compiles its
models and change pool against them, takes the lattice's :func:`envelope`,
drops the edits that :func:`inert_edits` finds change no plan, and then
derives every lattice node with one edit.  Given a :class:`Model`,
:func:`optimal_plan` and :func:`plan_cost` compile it against its own
universe.
"""

from __future__ import annotations

from heapq import heappush, heappop
from typing import Iterable, NamedTuple, Sequence

from .model import Fact, FeatureChange, FeatureKind, Model

__all__ = [
    "Plan",
    "PlanResult",
    "PlanningError",
    "UnknownActionError",
    "BudgetExceededError",
    "optimal_plan",
    "plan_cost",
]


class PlanningError(Exception):
    """Base class for planner errors."""


class UnknownActionError(PlanningError):
    """A plan references an action the model does not define."""


class BudgetExceededError(PlanningError):
    """A search exceeded its node budget; distinct from unsolvability."""


class Plan(NamedTuple):
    """An action-name sequence with its total cost in the source model."""

    actions: tuple[str, ...]
    cost: int


class PlanResult(NamedTuple):
    """Outcome of an optimal-plan search, with search statistics."""

    solvable: bool
    plan: Plan | None
    expansions: int
    generated: int


class CompiledModel(NamedTuple):
    """A model as bitmasks over a fact universe, for the planner's inner loop.

    Facts get bits by :func:`fact_bits`.  ``ops`` holds one
    (pre, add, keep, cost, name) tuple per action in model order, which is
    action-name order, where ``keep`` clears the delete effects.  The
    breadth-first planner relies on that order: it tries ops in it.  Equal
    models compile to equal tuples under the same bits, so a compiled model
    serves as a cache key for its model among one problem's models.
    """

    ops: tuple[tuple[int, int, int, int, str], ...]
    init: int
    goal: int


# An edit of a compiled model: (feature kind, action index or None, fact bit
# or new cost).  It toggles the bit in the init, goal or the action's mask
# of that kind, or replaces the action's cost.
Edit = tuple[FeatureKind, int | None, int]
Bits = dict[Fact, int]  # each fact's bit in a compiled model


def fact_bits(facts: Iterable[Fact]) -> Bits:
    """Each fact's bit: the facts in the order of their rendered strings."""
    ordered = sorted(facts, key=lambda f: f.render())
    return {f: 1 << i for i, f in enumerate(ordered)}


def compile_model(model: Model | CompiledModel, bits: Bits | None = None) -> CompiledModel:
    """The model's bitmask encoding under ``bits``, by default its own
    universe's :func:`fact_bits`; a compiled model is returned as is."""
    if isinstance(model, CompiledModel):
        return model
    bit = fact_bits(model.facts) if bits is None else bits

    def mask(facts: Iterable[Fact]) -> int:
        return sum(bit[f] for f in facts)  # distinct bits: the sum is their union

    ops = tuple(
        (mask(a.preconditions), mask(a.add_effects), ~mask(a.delete_effects), a.cost, a.name)
        for a in model.actions
    )
    return CompiledModel(ops, mask(model.init), mask(model.goal))


def compile_edits(model: Model, changes: Iterable[FeatureChange], bits: Bits) -> tuple[Edit, ...]:
    """Each change as an edit of ``compile_model(model, bits)``.

    A toggle agrees with :func:`~pegplan.model.apply_change` wherever the
    change's presence/absence precondition holds, as it does on every
    subset of a reconciliation pool: no two pool changes share a feature.
    """
    index = {act.name: i for i, act in enumerate(model.actions)}
    edits = []
    for change in changes:
        feat = change.feature
        value = feat.cost if feat.fact is None else bits[feat.fact]
        edits.append((feat.kind, index.get(feat.owner), value))
    return tuple(edits)


def apply_edit(state: CompiledModel, edit: Edit) -> CompiledModel | None:
    """The compiled model with one edit applied, or None when the edit
    leaves an action's add and delete effects overlapping."""
    kind, i, value = edit
    ops, init, goal = state
    if kind is FeatureKind.INIT:
        return CompiledModel(ops, init ^ value, goal)
    if kind is FeatureKind.GOAL:
        return CompiledModel(ops, init, goal ^ value)
    pre, add, keep, cost, name = ops[i]
    if kind is FeatureKind.PRECONDITION:
        pre ^= value
    elif kind is FeatureKind.ADD_EFFECT:
        add ^= value
    elif kind is FeatureKind.DELETE_EFFECT:
        keep ^= value
    else:
        cost = value
    if add & ~keep:
        return None
    return CompiledModel(ops[:i] + ((pre, add, keep, cost, name),) + ops[i + 1:], init, goal)


def envelope(a: CompiledModel, b: CompiledModel) -> tuple[CompiledModel, CompiledModel]:
    """The most relaxed and the most constrained model between ``a`` and ``b``.

    Both compiled models share one fact universe and action order.  The
    most relaxed model M_r takes, per action, the facts both preconditions
    need, the facts either adds, the facts both delete and the lower cost;
    its init holds the facts of either init and its goal the facts of both
    goals.  The most constrained model M_c is the dual: either's
    preconditions and deletes, both's adds, the higher cost, both inits and
    either goal.  A model whose every feature is a feature of ``a`` or of
    ``b`` lies between the two, mask by mask (see
    :class:`~pegplan.explain.ReconciliationProblem` for what M_r bounds).
    """
    relaxed, constrained = [], []
    for (pre_a, add_a, keep_a, cost_a, name), (pre_b, add_b, keep_b, cost_b, _) in zip(
        a.ops, b.ops
    ):
        relaxed.append((pre_a & pre_b, add_a | add_b, keep_a | keep_b, min(cost_a, cost_b), name))
        constrained.append(
            (pre_a | pre_b, add_a & add_b, keep_a & keep_b, max(cost_a, cost_b), name)
        )
    return (
        CompiledModel(tuple(relaxed), a.init | b.init, a.goal & b.goal),
        CompiledModel(tuple(constrained), a.init & b.init, a.goal | b.goal),
    )


def _read_and_fixed(c: CompiledModel) -> tuple[int, int]:
    """The facts some precondition or the goal reads, and the facts the init
    holds that no action deletes."""
    read = c.goal
    deleted = 0
    for pre, _, keep, _, _ in c.ops:
        read |= pre
        deleted |= ~keep
    return read, c.init & ~deleted


def _project(c: CompiledModel) -> CompiledModel:
    """The model on its live facts: read ones that are not fixed (see the
    module docstring for why its plans are the model's)."""
    read, fixed = _read_and_fixed(c)
    live = read & ~fixed
    ops = tuple(
        (pre & live, add & live, keep & live, cost, name) for pre, add, keep, cost, name in c.ops
    )
    return CompiledModel(ops, c.init & live, c.goal & live)


def inert_edits(constrained: CompiledModel, edits: Sequence[Edit]) -> tuple[bool, ...]:
    """Which edits of a reconciliation pool change no plan and no plan's cost.

    ``constrained`` is the most constrained model of the human and robot
    models (see :func:`envelope`), and ``edits`` the changes between them.
    Let R be the facts it reads, its preconditions and goal, and T its init
    minus every fact it deletes: the facts in any precondition or goal of
    either model, and the facts in both inits that no action of either
    model deletes.  An edit is inert when it toggles a precondition or goal
    on a T-fact, an add effect on a T-fact or on a fact outside R, or a
    delete effect or an init fact outside R.  See
    :class:`~pegplan.explain.ReconciliationProblem` for why such an edit
    leaves every plan and its cost unchanged.
    """
    read, fixed = _read_and_fixed(constrained)
    inert = {
        FeatureKind.PRECONDITION: fixed,
        FeatureKind.GOAL: fixed,
        FeatureKind.ADD_EFFECT: fixed | ~read,
        FeatureKind.DELETE_EFFECT: ~read,
        FeatureKind.INIT: ~read,
        FeatureKind.COST: 0,
    }
    return tuple(bool(value & inert[kind]) for kind, _, value in edits)


def _goal_relaxed_reachable(state: CompiledModel) -> bool:
    """Is the goal reachable when delete effects are ignored?

    Otherwise no plan exists, which is decided here without a search.
    """
    reached, goal, waiting = state.init, state.goal, state.ops
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


def optimal_plan(model: Model | CompiledModel, node_budget: int | None = None) -> PlanResult:
    """Find the model's canonical plan, or report unsolvability.

    The canonical plan is the cheapest, then the shortest, then the
    lexicographically smallest by action names (see the module docstring),
    so it depends on the model alone.  Raises :class:`BudgetExceededError`
    when ``node_budget`` expansions are exceeded before an answer is found.
    The search runs on the model's projection onto its live facts; a model
    whose actions all cost the same is searched breadth-first, any other
    cheapest-first.
    """
    c = compile_model(model)
    if not _goal_relaxed_reachable(c):
        return PlanResult(False, None, 0, 0)
    search = _breadth_first if len({op[3] for op in c.ops}) <= 1 else _cheapest_first
    plan, expansions, generated = search(_project(c), node_budget)
    return PlanResult(plan is not None, plan, expansions, generated)


def _over_budget(search: str, node_budget: int) -> BudgetExceededError:
    """The error of an optimal-plan, progressive or concise ``search`` over budget."""
    return BudgetExceededError(f"{search} search exceeded the node budget of {node_budget}")


def _cheapest_first(c: CompiledModel, node_budget: int | None) -> tuple[Plan | None, int, int]:
    """Uniform-cost search popping paths by (cost, length, action names).

    Returns the canonical plan (None if there is none), the expansions and
    the generated states.
    """
    ops, init, goal = c
    expansions = 0
    generated = 0

    # best[state] = (cost, length, path) of the best path queued to it.  A
    # successor's key exceeds its parent's (the length grows, no cost is
    # negative), so no expanded state is queued again.
    best: dict[int, tuple[int, int, tuple[str, ...]]] = {init: (0, 0, ())}
    heap: list[tuple[int, int, tuple[str, ...], int]] = [(0, 0, (), init)]

    while heap:
        g, n, path, state = heappop(heap)
        if best[state] != (g, n, path):
            continue  # stale entry: a better path to it was queued
        expansions += 1
        if node_budget is not None and expansions > node_budget:
            raise _over_budget("optimal-plan", node_budget)
        if state & goal == goal:
            return Plan(path, g), expansions, generated
        n += 1
        for pre, add, keep, cost, name in ops:
            if state & pre != pre:
                continue
            succ = (state & keep) | add
            key = (g + cost, n, path + (name,))
            rec = best.get(succ)
            if rec is not None and key >= rec:
                continue
            best[succ] = key
            heappush(heap, key + (succ,))
            generated += 1

    return None, expansions, generated


def _breadth_first(c: CompiledModel, node_budget: int | None) -> tuple[Plan | None, int, int]:
    """:func:`_cheapest_first` for a model whose actions all cost the same.

    A FIFO queue over states, with one parent link per state in place of
    keys and path tuples, that tests the goal on the init and then on each
    state it generates.  The module docstring shows why the first goal state
    generated carries the canonical plan, and why the expansions and
    generated states never exceed :func:`_cheapest_first`'s.
    """
    ops, init, goal = c
    if init & goal == goal:
        return Plan((), 0), 0, 0
    expansions = 0
    generated = 0
    parent: dict[int, tuple[int, str] | None] = {init: None}
    queue = [init]
    for state in queue:  # the loop also visits the states appended below
        expansions += 1
        if node_budget is not None and expansions > node_budget:
            raise _over_budget("optimal-plan", node_budget)
        for pre, add, keep, _, name in ops:
            if state & pre != pre:
                continue
            succ = (state & keep) | add
            if succ in parent:
                continue
            parent[succ] = (state, name)
            generated += 1
            if succ & goal == goal:
                path = []
                while (link := parent[succ]) is not None:
                    succ, name = link
                    path.append(name)
                path.reverse()
                return Plan(tuple(path), ops[0][3] * len(path)), expansions, generated
            queue.append(succ)

    return None, expansions, generated


def plan_cost(plan: Plan | Sequence[str | int], model: Model | CompiledModel) -> int | None:
    """Total cost of executing the plan in the model, or None if infeasible.

    Infeasible means an unmet precondition along the way or an unmet goal at
    the end.  A step is an action name or its index in the compiled model's
    ops, which a caller checking one plan in many models maps once.  An
    unknown name or index raises :class:`UnknownActionError` when reached,
    since it indicates a plan from a different action universe.
    """
    ops, state, goal = compile_model(model)
    by_name = None
    total = 0
    for step in plan.actions if isinstance(plan, Plan) else plan:
        if step.__class__ is not int:
            if by_name is None:
                by_name = {op[4]: i for i, op in enumerate(ops)}
            if step not in by_name:
                raise UnknownActionError(f"model defines no action named {step!r}")
            step = by_name[step]
        elif not 0 <= step < len(ops):
            raise UnknownActionError(f"model has no op at index {step}")
        pre, add, keep, cost, _ = ops[step]
        if state & pre != pre:
            return None
        state = (state & keep) | add
        total += cost
    if state & goal != goal:
        return None
    return total
