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
reconciled model.  For ``p1``/``p3`` that is the gap G itself.  For
``p2``/``p4`` the ``paper`` variant halves G², and the ``safe`` variant
takes the *balanced bound* B(G, k), with k the number of remaining
candidate changes:

    k' = min(k, G),  q, r = divmod(G, k'),  B(G, k) = r(q + 1)² + (k' − r)q².

Costs and plan edit distances are integers, so each of at most k steps moves
the gap by an integer d at effort d², and B is the least Σd² of at most k
integer moves that cover G (B(0, k) = 0; B(G, 0) = inf for G > 0).  For
``p4`` the triangle inequality of edit distance gives the same picture.  B
is non-decreasing in G, non-increasing in k, and B(x + y, k) ≤ x² + B(y,
k − 1), which with the triangle inequality makes ``safe`` admissible and
consistent.

A node at value 0 (cost 0 for ``p2``, the empty plan for ``p4``), which is
how an unsolvable model scores, may also take a floor ``c_min``: a lower
bound on the value of every solvable model the search can reach.  Its next
solvable model then sits at some value c ≥ c_min, reached at effort c², so
with T the target's value

    h = min over c in c_min .. max(c_min, T) of c² + B(|T − c|, k − 1).

Larger c add more than they save, so the range stops at max(c_min, T).
With c_min = 0 this is B(T, k), the plain bound.  Taking only c = c_min
would be admissible but not consistent (T = 11, c_min = 1, k − 1 = 1).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import inf
from typing import Sequence

__all__ = ["MetricKind", "plan_edit_distance", "rho", "heuristic", "balanced_bound"]


class MetricKind(Enum):
    """The effort proxy scoring each step: p1..p4 as in the module docstring."""

    P1 = "p1"
    P2 = "p2"
    P3 = "p3"
    P4 = "p4"


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


def balanced_bound(gap: int, remaining: int) -> int | float:
    """B(gap, remaining): the least Σd² of at most ``remaining`` integer
    moves that cover ``gap`` (see the module docstring); inf when a gap is
    left but no moves."""
    if gap == 0:
        return 0
    if remaining <= 0:
        return inf
    moves = min(remaining, gap)
    q, r = divmod(gap, moves)
    return r * (q + 1) ** 2 + (moves - r) * q * q


def heuristic(
    kind: MetricKind,
    variant: str,
    cur: Sequence,
    target: tuple[int, tuple[str, ...]],
    remaining: int,
    c_min: int = 0,
) -> Fraction | float:
    """Estimated remaining effort from the node whose model is ``cur``.

    ``cur`` starts with the node's optimal cost and canonical plan, as in
    :func:`rho`; ``target`` is the cost and actions of the plan being
    explained in the fully reconciled model, fixed across a search.
    ``remaining`` is the number of candidate changes still available at the
    node; it bounds how many steps the rest of the explanation can take.
    ``c_min`` is the ``safe`` ``p2``/``p4`` floor of a node at value 0: a
    lower bound on the cost* (``p2``) or canonical-plan length (``p4``) of
    every solvable model the search can reach, fixed across a search (see
    the module docstring); 0 gives the plain balanced bound.  Returns
    ``inf`` for a dead end (a gap left but no changes to spend).  Exact
    rationals are used so comparisons never suffer float ties; every
    value is an integer or a half.
    """
    if variant not in ("paper", "safe"):
        raise ValueError(f"unknown heuristic variant {variant!r}: expected 'paper' or 'safe'")
    if kind in (MetricKind.P1, MetricKind.P2):
        value, goal = cur[0], target[0]
        gap = abs(value - goal)
    elif kind in (MetricKind.P3, MetricKind.P4):
        value, goal = len(cur[1]), len(target[1])
        gap = plan_edit_distance(cur[1], target[1])
    else:
        raise ValueError(f"unknown metric {kind!r}: expected a MetricKind")
    if gap == 0:
        return Fraction(0)
    if kind in (MetricKind.P1, MetricKind.P3):
        return Fraction(gap)
    if variant == "paper":
        return Fraction(gap * gap, 2)
    if value == 0 and c_min > 0 and remaining > 0:
        bound = min(
            c * c + balanced_bound(abs(goal - c), remaining - 1)
            for c in range(c_min, max(c_min, goal) + 1)
        )
    else:
        bound = balanced_bound(gap, remaining)
    return inf if bound == inf else Fraction(bound)
