"""Cognitive-effort proxies for stepwise model reconciliation.

Each step of an explanation moves the listener from one model to the next.
Its effort is scored from each model's (cost*, plan) pair: the optimal cost
and the canonical optimal plan.

* ``p1`` — absolute difference of adjacent optimal costs
* ``p2`` — squared difference of adjacent optimal costs
* ``p3`` — edit distance between adjacent canonical optimal plans
* ``p4`` — squared edit distance between adjacent canonical optimal plans

Unsolvable models enter these formulas with cost 0 and the empty plan.  The
matching search heuristics estimate the remaining effort from a node's pair
to the (cost, plan) pair of the plan being explained in the fully
reconciled model; the ``paper`` variant halves the squared gap for
``p2``/``p4``, the ``safe`` variant divides it by the number of remaining
candidate changes, which keeps it admissible and consistent.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import inf
from typing import Sequence

__all__ = ["MetricKind", "plan_edit_distance", "rho", "heuristic"]


class MetricKind(Enum):
    """The effort proxy scoring each step: p1..p4 as in the module docstring."""

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


def rho(kind: MetricKind, prev: Sequence, cur: Sequence) -> int:
    """Effort of one reconciliation step from the model ``prev`` to ``cur``.

    Each of ``prev`` and ``cur`` starts with its model's optimal cost and
    canonical plan (0 and the empty plan when unsolvable); any later items
    are ignored.
    """
    if kind is MetricKind.P1:
        return abs(prev[0] - cur[0])
    if kind is MetricKind.P2:
        return (prev[0] - cur[0]) ** 2
    if kind is MetricKind.P3:
        return plan_edit_distance(prev[1], cur[1])
    if kind is MetricKind.P4:
        return plan_edit_distance(prev[1], cur[1]) ** 2
    raise ValueError(f"unknown metric {kind!r}: expected a MetricKind")


def heuristic(
    kind: MetricKind,
    variant: str,
    cur: Sequence,
    target: tuple[int, tuple[str, ...]],
    remaining: int,
) -> Fraction | float:
    """Estimated remaining effort from the node whose model is ``cur``.

    ``cur`` starts with the node's optimal cost and canonical plan, as in
    :func:`rho`; ``target`` is the cost and actions of the plan being
    explained in the fully reconciled model, fixed across a search.
    ``remaining`` is the number of candidate changes still available at the
    node; it bounds how many steps the rest of the explanation can take.
    Returns ``inf`` for a dead end (a gap left but no changes to spend).
    Exact rationals are used so comparisons never suffer float ties.
    """
    if variant not in ("paper", "safe"):
        raise ValueError(f"unknown heuristic variant {variant!r}: expected 'paper' or 'safe'")
    if kind in (MetricKind.P1, MetricKind.P2):
        gap = abs(cur[0] - target[0])
    elif kind in (MetricKind.P3, MetricKind.P4):
        gap = plan_edit_distance(cur[1], target[1])
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
