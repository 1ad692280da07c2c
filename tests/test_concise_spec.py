"""Both explanation modes against their oracles where change order matters.

The instances come from ``constrained_reconciliation``: some pool changes
raise :class:`InvalidEditError` until another change has been applied, so
the searches must route around invalid edits.
"""

import random
from fractions import Fraction

import pegplan.explain as explain
from pegplan import MetricKind, generate_concise, generate_progressive
from pegplan.model import InvalidEditError

from oracles import constrained_reconciliation, exhaustive_concise, exhaustive_min_effort


def _count_invalid_edits(monkeypatch) -> list[int]:
    """Count the invalid edits the searches attempt."""
    count = [0]
    original = explain.apply_change

    def counting(model, change):
        try:
            return original(model, change)
        except InvalidEditError:
            count[0] += 1
            raise

    monkeypatch.setattr(explain, "apply_change", counting)
    return count


def test_concise_is_the_lexicographically_smallest_minimum_explanation(monkeypatch):
    invalid = _count_invalid_edits(monkeypatch)
    rng = random.Random(1)
    for _ in range(1000):
        problem = constrained_reconciliation(rng)
        trace = generate_concise(problem)
        assert trace.complete
        assert trace.changes == exhaustive_concise(problem)
    assert invalid[0] > 0


def test_progressive_reaches_minimum_effort_around_invalid_edits(monkeypatch):
    invalid = _count_invalid_edits(monkeypatch)
    rng = random.Random(29)
    for _ in range(120):
        problem = constrained_reconciliation(rng)
        for metric in (MetricKind.P1, MetricKind.P2):
            trace = generate_progressive(
                problem, metric=metric, variant="safe", epsilon=Fraction(0)
            )
            assert trace.complete
            assert trace.sum_rho == exhaustive_min_effort(problem, metric.value)
    assert invalid[0] > 0
