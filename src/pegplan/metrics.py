"""Cognitive-effort proxies for stepwise model reconciliation.

Each step of an explanation moves the listener from one model to the next;
its effort is scored from the two models' optimal-plan costs or plans:

* ``p1`` — absolute difference of adjacent optimal costs
* ``p2`` — squared difference of adjacent optimal costs
* ``p3`` — edit distance between adjacent canonical optimal plans
* ``p4`` — squared edit distance between adjacent canonical optimal plans

Unsolvable models enter these formulas with cost 0 and the empty plan.  The
matching search heuristics estimate the remaining effort from a node to the
fully reconciled model; the ``paper`` variant halves the squared gap for
``p2``/``p4``, the ``safe`` variant divides it by the number of remaining
candidate changes, which keeps it admissible and consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import inf
from typing import Sequence

__all__ = ["MetricKind", "StepContext", "plan_edit_distance", "rho", "heuristic"]


class MetricKind(Enum):
    P1 = "p1"
    P2 = "p2"
    P3 = "p3"
    P4 = "p4"

    @classmethod
    def from_name(cls, name: str) -> "MetricKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown metric {name!r}: expected p1, p2, p3, or p4") from None


@dataclass(frozen=True)
class StepContext:
    """Everything one step's score can depend on.

    ``prev_*``/``cur_*`` describe the models before and after the step
    (optimal cost and canonical optimal plan, with the unsolvable-as-zero
    convention already applied).  ``target_plan``/``target_cost`` are the
    plan being explained and its cost in the fully reconciled model; they
    stay fixed across a search.
    """

    prev_cost: int
    prev_plan: tuple[str, ...]
    cur_cost: int
    cur_plan: tuple[str, ...]
    target_plan: tuple[str, ...]
    target_cost: int


def plan_edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Levenshtein distance over action sequences (unit edit costs)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[len(b)]


def rho(kind: MetricKind, ctx: StepContext) -> int:
    """Effort of one reconciliation step."""
    if kind is MetricKind.P1:
        return abs(ctx.prev_cost - ctx.cur_cost)
    if kind is MetricKind.P2:
        return (ctx.prev_cost - ctx.cur_cost) ** 2
    if kind is MetricKind.P3:
        return plan_edit_distance(ctx.prev_plan, ctx.cur_plan)
    if kind is MetricKind.P4:
        return plan_edit_distance(ctx.prev_plan, ctx.cur_plan) ** 2
    raise ValueError(f"unknown metric {kind!r}: expected a MetricKind")


def heuristic(
    kind: MetricKind,
    variant: str,
    ctx: StepContext,
    remaining: int,
) -> Fraction | float:
    """Estimated remaining effort from the node described by ``ctx.cur_*``.

    ``remaining`` is the number of candidate changes still available at the
    node; it bounds how many steps the rest of the explanation can take.
    Returns ``inf`` for a dead end (a gap left but no changes to spend).
    Exact rationals are used so comparisons never suffer float ties.
    """
    if variant not in ("paper", "safe"):
        raise ValueError(f"unknown heuristic variant {variant!r}: expected 'paper' or 'safe'")
    if kind in (MetricKind.P1, MetricKind.P2):
        gap = abs(ctx.cur_cost - ctx.target_cost)
    elif kind in (MetricKind.P3, MetricKind.P4):
        gap = plan_edit_distance(ctx.cur_plan, ctx.target_plan)
    else:
        raise ValueError(f"unknown metric {kind!r}: expected a MetricKind")
    if gap == 0:
        return Fraction(0)
    if kind in (MetricKind.P1, MetricKind.P3):
        return Fraction(gap)
    if variant == "paper":
        return Fraction(gap * gap, 2)
    if remaining <= 0:
        return inf
    return Fraction(gap * gap, remaining)
